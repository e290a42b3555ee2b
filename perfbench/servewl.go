package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"mime/multipart"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/trace"
)

// pollInterval is how often the collector polls each in-flight job. It
// bounds the resolution of the state-transition timings.
const pollInterval = 5 * time.Millisecond

// drainGrace is how long after the last scheduled arrival the run waits
// for outstanding jobs before counting them as failed.
const drainGrace = 30 * time.Second

// serveJob is one scheduled job: its upload and the SAM the server must
// return for it.
type serveJob struct {
	body   []byte
	ctype  string
	expect []byte
}

// servePlan is a serve-open run's inputs, all derived from the seed.
type servePlan struct {
	jobs []serveJob
	due  []time.Duration // scheduled send offsets
	all  readSet         // every job's reads, in job order
	sim  float64         // simulated seconds of the reference map run
}

// planServe generates the jobs and their jittered schedule, maps all of
// their reads once with `repute map` using the server's options, and
// cuts that SAM into each job's expected output.
func planServe(e *env, spec serveSpec) (*servePlan, error) {
	n := int(math.Round(spec.rate * e.seconds.Seconds()))
	plan := &servePlan{due: jitteredSchedule(n, e.seconds, e.seed)}
	all, err := e.genReads(spec.profile, n*spec.jobReads)
	if err != nil {
		return nil, err
	}
	plan.all = all
	allFq := filepath.Join(e.work, "all.fq")
	if err := os.WriteFile(allFq, all.fastq(), 0o644); err != nil {
		return nil, err
	}
	refSAM := filepath.Join(e.work, "expect.sam")
	ckpt := filepath.Join(e.work, "expect.ckpt")
	if _, err := runProc(e.repute, "map", "-index", e.index, "-reads", allFq,
		"-e", fmt.Sprint(spec.errors), "-platform", spec.platform,
		"-batch", "512", "-checkpoint", ckpt, "-out", refSAM); err != nil {
		return nil, fmt.Errorf("reference map: %w", err)
	}
	st, err := checkpoint.Load(ckpt)
	if err != nil {
		return nil, err
	}
	plan.sim = st.SimSeconds
	text, err := os.ReadFile(refSAM)
	if err != nil {
		return nil, err
	}
	header, records := splitSAM(text)
	for j := 0; j < n; j++ {
		rs := all.slice(j*spec.jobReads, (j+1)*spec.jobReads)
		expect := append([]byte(nil), header...)
		for _, name := range rs.names {
			expect = append(expect, records[name]...)
		}
		var body bytes.Buffer
		mw := multipart.NewWriter(&body)
		fw, err := mw.CreateFormFile("reads", "reads.fq")
		if err != nil {
			return nil, err
		}
		fw.Write(rs.fastq()) //nolint:errcheck // bytes.Buffer writes do not fail
		if err := mw.Close(); err != nil {
			return nil, err
		}
		plan.jobs = append(plan.jobs, serveJob{body: body.Bytes(),
			ctype: mw.FormDataContentType(), expect: expect})
	}
	return plan, nil
}

// splitSAM separates the header lines from the records and groups the
// records by read name, keeping their order.
func splitSAM(text []byte) (header []byte, records map[string][]byte) {
	records = map[string][]byte{}
	for len(text) > 0 {
		line := text
		if i := bytes.IndexByte(text, '\n'); i >= 0 {
			line = text[:i+1]
		}
		text = text[len(line):]
		if line[0] == '@' {
			header = append(header, line...)
			continue
		}
		name, _, _ := strings.Cut(string(line), "\t")
		records[name] = append(records[name], line...)
	}
	return header, records
}

// server is a running `repute serve` subprocess.
type server struct {
	cmd    *exec.Cmd
	base   string
	ready  time.Duration // process start to the first 200 on /readyz
	done   chan error
	stderr bytes.Buffer
}

// startServer starts `repute serve` on a free loopback port over a fresh
// spool and waits until /readyz answers 200.
func startServer(e *env, spec serveSpec, spool string) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	s := &server{base: "http://" + addr, done: make(chan error, 1)}
	s.cmd = exec.Command(e.repute, "serve", "-index", e.index, "-spool", spool, "-addr", addr,
		"-platform", spec.platform, "-e", fmt.Sprint(spec.errors))
	s.cmd.Stderr = &s.stderr
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() { s.done <- s.cmd.Wait() }()
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	for time.Since(start) < 30*time.Second {
		select {
		case err := <-s.done:
			return nil, fmt.Errorf("serve exited before ready: %v: %s", err, strings.TrimSpace(s.stderr.String()))
		default:
		}
		if resp, err := client.Get(s.base + "/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // readiness needs only the status
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.ready = time.Since(start)
				return s, nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	s.stop() //nolint:errcheck // already failing
	return nil, fmt.Errorf("serve not ready within 30 s")
}

// stop sends SIGTERM (the graceful drain), waits for the process to
// exit and returns its peak resident set. A process still alive after
// 30 s is killed.
func (s *server) stop() (float64, error) {
	s.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // an exited process is handled below
	var err error
	select {
	case err = <-s.done:
	case <-time.After(30 * time.Second):
		s.cmd.Process.Kill() //nolint:errcheck // best effort after the drain timed out
		err = <-s.done
		if err == nil {
			err = fmt.Errorf("serve did not drain within 30 s")
		}
	}
	if err != nil {
		err = fmt.Errorf("serve exit: %v: %s", err, strings.TrimSpace(s.stderr.String()))
	}
	return maxRSSMiB(s.cmd.ProcessState), err
}

// jobObs is what the load generator saw of one job. Times are offsets
// from the run start.
type jobObs struct {
	id        string
	refused   bool          // answered 429
	submitErr error         // why a submission failed other than by a 429
	submit    time.Duration // POST round trip
	sentAt    time.Duration // POST response received
	running   time.Duration // first poll that saw state running (0 = never seen)
	doneAt    time.Duration // first poll that saw state done
	fetch     time.Duration // SAM GET round trip
	finished  time.Duration // SAM fully read
	ok        bool          // done, SAM fetched and identical to the expected SAM
	sam       []byte
}

// serveSession is one measured serve-open run.
type serveSession struct {
	plan     *servePlan
	obs      []jobObs
	stats    openLoopStats
	setups   []float64
	rssMiB   float64
	refused  int
	queueMax int
	metrics  trace.Snapshot
	span     time.Duration // run start to the last SAM fetched
}

// newClient returns a client bound to one loopback connection.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
}

// runSession measures set-up with probe starts, then drives one server
// with the open-loop schedule.
func runSession(e *env, spec serveSpec, res *result) (*serveSession, error) {
	plan, err := planServe(e, spec)
	if err != nil {
		return nil, err
	}
	var setups []float64
	for i := 0; i < setupProbes-1; i++ {
		res.attempted++
		s, err := startServer(e, spec, filepath.Join(e.work, fmt.Sprintf("probe%d", i)))
		if err != nil {
			res.miss("set-up probe: %v", err)
			continue
		}
		setups = append(setups, s.ready.Seconds())
		if _, err := s.stop(); err != nil {
			res.miss("set-up probe: %v", err)
		}
	}
	res.attempted++
	srv, err := startServer(e, spec, filepath.Join(e.work, "spool"))
	if err != nil {
		return nil, err
	}
	sess := drive(srv.base, plan, e.seconds+drainGrace, res)
	sess.setups = append(setups, srv.ready.Seconds())
	if sess.rssMiB, err = srv.stop(); err != nil {
		res.miss("%v", err)
	}
	log := filepath.Join(e.root, ".bench_build", "traces", fmt.Sprintf("serve-jobs-seed%d.tsv", e.seed))
	if err := sess.writeJobs(log); err != nil {
		return nil, err
	}
	res.note("# per-job timings written to %s", log)
	return sess, nil
}

// writeJobs stores what the generator saw of each job as TSV, in
// seconds from the run start.
func (sess *serveSession) writeJobs(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var b bytes.Buffer
	fmt.Fprintln(&b, "job\tid\tdue\tsubmitted\trunning\tdone\tfetched\tlatency\tok")
	for i, o := range sess.obs {
		due := sess.plan.due[i]
		fmt.Fprintf(&b, "%d\t%s\t%.6f\t%.6f\t%.6f\t%.6f\t%.6f\t%.6f\t%t\n", i, o.id, due.Seconds(),
			o.sentAt.Seconds(), o.running.Seconds(), o.doneAt.Seconds(), o.finished.Seconds(),
			(o.finished - due).Seconds(), o.ok)
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// drive runs the open-loop schedule against the server at base and
// checks every returned SAM. The generator is one process with two
// connections: a sender that submits each job at its due time, and a
// collector that polls in-flight jobs and fetches finished SAMs. Jobs
// still unfinished limit after the run start count as failed.
func drive(base string, plan *servePlan, limit time.Duration, res *result) *serveSession {
	sess := &serveSession{plan: plan, obs: make([]jobObs, len(plan.jobs))}
	acc := make(chan int, len(plan.jobs)) // sized to every job, so the sender never blocks
	sender, collector := newClient(), newClient()
	defer sender.CloseIdleConnections()
	defer collector.CloseIdleConnections()
	t0 := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(acc)
		for i, due := range plan.due {
			time.Sleep(time.Until(t0.Add(due)))
			sent := time.Since(t0)
			sess.stats.Lags = append(sess.stats.Lags, (sent - due).Seconds())
			ok, err := submit(sender, base, plan.jobs[i], &sess.obs[i], t0)
			sess.obs[i].submitErr = err
			if ok {
				acc <- i
			}
		}
	}()

	deadline := t0.Add(limit)
	var inflight []int
	open := true
	for (open || len(inflight) > 0) && time.Now().Before(deadline) {
	drain:
		for open {
			select {
			case i, ok := <-acc:
				if !ok {
					open = false
				} else {
					inflight = append(inflight, i)
				}
			default:
				break drain
			}
		}
		queued := 0
		kept := inflight[:0]
		for _, i := range inflight {
			o := &sess.obs[i]
			state, jobErr, err := pollJob(collector, base, o.id)
			now := time.Since(t0)
			switch {
			case err != nil:
				res.miss("job %d (%s): poll: %v", i, o.id, err)
			case state == "failed":
				res.miss("job %d (%s) failed: %s", i, o.id, jobErr)
			case state == "done":
				o.doneAt = now
				if o.running == 0 {
					o.running = now
				}
				collect(collector, base, o, plan.jobs[i], t0, res)
				if o.ok {
					sess.stats.Latencies = append(sess.stats.Latencies, (o.finished - plan.due[i]).Seconds())
					sess.span = max(sess.span, o.finished)
				}
			case state == "running":
				if o.running == 0 {
					o.running = now
				}
				kept = append(kept, i)
			default:
				queued++
				kept = append(kept, i)
			}
		}
		inflight = kept
		sess.queueMax = max(sess.queueMax, queued)
		time.Sleep(pollInterval)
	}
	wg.Wait()
	for _, i := range inflight {
		res.miss("job %d (%s) unfinished %v after the run start", i, sess.obs[i].id, limit)
	}
	res.attempted += len(plan.jobs)
	for i, o := range sess.obs {
		if o.ok {
			continue
		}
		sess.stats.Misses++
		switch {
		case o.refused:
			sess.refused++
			res.miss("job %d refused (429)", i)
		case o.submitErr != nil:
			res.miss("job %d: submit: %v", i, o.submitErr)
		}
	}
	if err := getJSON(collector, base+"/metrics", &sess.metrics); err != nil {
		res.fail("metrics: %v", err)
	}
	if !sess.stats.valid() {
		res.correct = false
		fmt.Fprintf(os.Stderr, "perfbench: run invalid: the generator fell %.3f s behind its schedule (limit %v)\n",
			sess.stats.maxLag(), lagLimit)
	}
	return sess
}

// submit posts one job. It reports whether the server accepted it and,
// for a failure other than a 429, why.
func submit(c *http.Client, base string, job serveJob, o *jobObs, t0 time.Time) (bool, error) {
	start := time.Since(t0)
	resp, err := c.Post(base+"/jobs", job.ctype, bytes.NewReader(job.body))
	if err != nil {
		return false, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.sentAt = time.Since(t0)
	o.submit = o.sentAt - start
	if err != nil {
		return false, err
	}
	switch resp.StatusCode {
	case http.StatusAccepted:
	case http.StatusTooManyRequests:
		o.refused = true
		return false, nil
	default:
		return false, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var meta struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &meta); err != nil || meta.ID == "" {
		return false, fmt.Errorf("no job id in %q", body)
	}
	o.id = meta.ID
	return true, nil
}

// pollJob returns a job's state and, for a failed job, its error.
func pollJob(c *http.Client, base, id string) (state string, jobErr json.RawMessage, err error) {
	var j struct {
		State string          `json:"state"`
		Error json.RawMessage `json:"error"`
	}
	err = getJSON(c, base+"/jobs/"+id, &j)
	return j.State, j.Error, err
}

// collect fetches a finished job's SAM and checks it byte for byte.
func collect(c *http.Client, base string, o *jobObs, job serveJob, t0 time.Time, res *result) {
	start := time.Since(t0)
	resp, err := c.Get(base + "/jobs/" + o.id + "/sam")
	if err != nil {
		res.miss("job %s: fetch SAM: %v", o.id, err)
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.finished = time.Since(t0)
	o.fetch = o.finished - start
	switch {
	case err != nil || resp.StatusCode != http.StatusOK:
		res.miss("job %s: fetch SAM: status %d: %v", o.id, resp.StatusCode, err)
	case !bytes.Equal(body, job.expect):
		res.fail("job %s: SAM %s differs from `repute map`'s %s", o.id, samDigest(body), samDigest(job.expect))
	default:
		o.ok, o.sam = true, body
	}
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// runServe reports the serve-open end-to-end metrics.
func runServe(e *env, spec serveSpec) (*result, error) {
	res := newResult()
	sess, err := runSession(e, spec, res)
	if err != nil {
		return nil, err
	}
	var samText []byte
	okReads := 0
	for _, o := range sess.obs {
		if o.ok {
			samText = append(samText, o.sam...)
			okReads += spec.jobReads
		}
	}
	sens, err := sess.plan.all.sensitivity(samText, spec.errors)
	if err != nil {
		res.fail("sensitivity: %v", err)
	}
	lat := sess.stats.Latencies
	m := res.metrics
	m["reads_per_s"] = float64(okReads) / sess.span.Seconds()
	m["setup_s"] = median(sess.setups)
	m["peak_rss_mb"] = sess.rssMiB
	m["sim_seconds"] = sess.plan.sim
	m["sensitivity_pct"] = sens
	m["success_pct"] = 100 * float64(res.attempted-res.failed) / float64(res.attempted)
	m["job_latency_p50_s"] = median(lat)
	m["job_latency_p90_s"] = quantile(lat, 0.9)
	tailNote := fmt.Sprintf("no percentile has %d samples beyond it", minBeyond)
	if tail := tailPercentile(len(lat)); tail > 0 {
		tailNote = fmt.Sprintf("p%g (highest with %d samples beyond) %.4f s", tail, minBeyond, quantile(lat, tail/100))
	}
	res.note("# %d jobs of %d reads at %.1f jobs/s (open loop, one per jittered slot), %d completed, %d refused (429), %d misses",
		len(sess.obs), spec.jobReads, spec.rate, len(lat), sess.refused, sess.stats.Misses)
	res.note("# job latency from due time: p50 %.4f s, p90 %.4f s, %s (n=%d); generator lag max %.4f s, p50 %.4f s",
		median(lat), quantile(lat, 0.9), tailNote, len(lat), sess.stats.maxLag(), median(sess.stats.Lags))
	return res, nil
}
