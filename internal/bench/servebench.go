package bench

// Serve load benchmark: M concurrent clients upload mapping jobs at a
// live in-process server (the same handler stack `repute serve` mounts)
// and measure end-to-end job latency — submit to done, polling included
// — plus saturation throughput. The sweep raises the client count past
// the scheduler's concurrency so the p99/p50 spread shows where
// queueing starts. BENCH_serve.json at the repository root is a
// committed run of it.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cl"
	"repro/internal/fmindex"
	"repro/internal/genome"
	"repro/internal/index"
	"repro/internal/serve"
)

// ServeRow is one client-concurrency level's measurements.
type ServeRow struct {
	// Clients is how many uploaders run at once; Jobs is the total they
	// completed.
	Clients int `json:"clients"`
	Jobs    int `json:"jobs"`
	// Retried429 counts submissions that bounced off admission control
	// and were retried after their Retry-After.
	Retried429 int `json:"retried_429"`
	// P50/P99 are job latency percentiles in seconds, submit to done.
	P50LatencySec float64 `json:"p50_latency_sec"`
	P99LatencySec float64 `json:"p99_latency_sec"`
	// WallSec is the level's total wall time; JobsPerSec and ReadsPerSec
	// are the resulting throughput.
	WallSec     float64 `json:"wall_sec"`
	JobsPerSec  float64 `json:"jobs_per_sec"`
	ReadsPerSec float64 `json:"reads_per_sec"`
}

// ServeBench is the full client-concurrency sweep.
type ServeBench struct {
	Scale         string     `json:"scale"`
	ReadsPerJob   int        `json:"reads_per_job"`
	PoolDevices   int        `json:"pool_devices"`
	MaxConcurrent int        `json:"max_concurrent"`
	Rows          []ServeRow `json:"rows"`
}

// serveBenchJobsPerClient is how many jobs each client submits in
// sequence — enough that a level's wall time is dominated by steady
// state, not the first job's cold start.
const serveBenchJobsPerClient = 3

// RunServeBench sweeps client concurrency against one in-process
// mapping service over the dataset's reference and short-read set.
func RunServeBench(ds *Dataset) (*ServeBench, error) {
	g, err := genome.New([]string{"chr21s"}, [][]byte{ds.Ref})
	if err != nil {
		return nil, err
	}
	f, err := index.Build(g, 1, 0, fmindex.Options{})
	if err != nil {
		return nil, err
	}
	set := ds.Sets[100]
	nReads := len(set.Reads)
	if nReads > 400 {
		nReads = 400 // per-job upload; the sweep varies clients, not job size
	}
	var fq bytes.Buffer
	for i, r := range set.Reads[:nReads] {
		seq := make([]byte, len(r))
		for j, c := range r {
			seq[j] = "ACGT"[c]
		}
		fmt.Fprintf(&fq, "@r%d\n%s\n+\n%s\n", i, seq, strings.Repeat("I", len(seq)))
	}
	body, contentType, err := multipartBody(fq.Bytes())
	if err != nil {
		return nil, err
	}

	const poolSize = 4
	b := &ServeBench{Scale: ds.Scale.Name, ReadsPerJob: nReads, PoolDevices: poolSize, MaxConcurrent: poolSize}
	for _, clients := range []int{1, 2, 4, 8} {
		row, err := runServeLevel(f, body, contentType, clients, poolSize, nReads)
		if err != nil {
			return nil, err
		}
		b.Rows = append(b.Rows, *row)
	}
	return b, nil
}

// runServeLevel runs one client-concurrency level against a fresh
// server (fresh spool, fresh breakers: levels do not contaminate each
// other).
func runServeLevel(f *index.File, body []byte, contentType string, clients, poolSize, nReads int) (*ServeRow, error) {
	devices := make([]*cl.Device, poolSize)
	for i := range devices {
		d := cl.SystemOneCPU()
		d.Name = fmt.Sprintf("bench-%d", i)
		devices[i] = d
	}
	spool, err := os.MkdirTemp("", "repute-servebench")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(spool)
	srv, err := serve.New(serve.Config{
		Index:         f,
		Devices:       devices,
		Spool:         spool,
		MaxQueue:      2 * clients,
		MaxConcurrent: poolSize,
	})
	if err != nil {
		return nil, err
	}
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	row := &ServeRow{Clients: clients}
	var (
		mu   sync.Mutex
		lats []float64
		errs []error
		wg   sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < serveBenchJobsPerClient; k++ {
				t0 := time.Now()
				retries, err := runServeJob(ts.URL, body, contentType)
				mu.Lock()
				if err != nil {
					errs = append(errs, err)
				} else {
					lats = append(lats, time.Since(t0).Seconds())
					row.Retried429 += retries
				}
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	row.WallSec = time.Since(start).Seconds()
	if len(errs) > 0 {
		return nil, errs[0]
	}
	sort.Float64s(lats)
	row.Jobs = len(lats)
	row.P50LatencySec = percentile(lats, 50)
	row.P99LatencySec = percentile(lats, 99)
	if row.WallSec > 0 {
		row.JobsPerSec = float64(row.Jobs) / row.WallSec
		row.ReadsPerSec = float64(row.Jobs*nReads) / row.WallSec
	}
	return row, nil
}

// runServeJob submits one upload and polls it to completion, honouring
// Retry-After on 429. Returns how many times admission bounced it.
func runServeJob(url string, body []byte, contentType string) (retries int, err error) {
	var id string
	for {
		resp, err := http.Post(url+"/jobs", contentType, bytes.NewReader(body))
		if err != nil {
			return retries, err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			resp.Body.Close()
			retries++
			// The header is whole seconds; waiting it out at full length
			// would swamp the bench, so back off a bounded fraction.
			time.Sleep(20 * time.Millisecond)
			continue
		}
		if resp.StatusCode != http.StatusAccepted {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			return retries, fmt.Errorf("servebench: submit: %d: %s", resp.StatusCode, b)
		}
		var job struct {
			ID string `json:"id"`
		}
		err = json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		if err != nil {
			return retries, err
		}
		id = job.ID
		break
	}
	for {
		resp, err := http.Get(url + "/jobs/" + id)
		if err != nil {
			return retries, err
		}
		var job struct {
			State string          `json:"state"`
			Error json.RawMessage `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		if err != nil {
			return retries, err
		}
		switch job.State {
		case "done":
			return retries, nil
		case "failed":
			return retries, fmt.Errorf("servebench: job %s failed: %s", id, job.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// multipartBody wraps a FASTQ payload as the multipart form the submit
// endpoint expects, returning the body and its content type.
func multipartBody(fastq []byte) ([]byte, string, error) {
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	fw, err := mw.CreateFormFile("reads", "reads.fq")
	if err != nil {
		return nil, "", err
	}
	if _, err := fw.Write(fastq); err != nil {
		return nil, "", err
	}
	if err := mw.Close(); err != nil {
		return nil, "", err
	}
	return buf.Bytes(), mw.FormDataContentType(), nil
}

// percentile returns the pth percentile of sorted values
// (nearest-rank).
func percentile(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := (p*len(sorted) + 99) / 100
	if i < 1 {
		i = 1
	}
	if i > len(sorted) {
		i = len(sorted)
	}
	return sorted[i-1]
}

// Render prints the sweep table.
func (b *ServeBench) Render(w io.Writer) {
	fmt.Fprintf(w, "Serve load sweep (%s scale, %d reads/job, %d-device pool, max %d concurrent jobs)\n",
		b.Scale, b.ReadsPerJob, b.PoolDevices, b.MaxConcurrent)
	fmt.Fprintf(w, "%8s %6s %8s %10s %10s %9s %10s %12s\n",
		"clients", "jobs", "429s", "p50", "p99", "wall", "jobs/s", "reads/s")
	for _, r := range b.Rows {
		fmt.Fprintf(w, "%8d %6d %8d %8.1fms %8.1fms %8.2fs %10.1f %12.0f\n",
			r.Clients, r.Jobs, r.Retried429, r.P50LatencySec*1e3, r.P99LatencySec*1e3,
			r.WallSec, r.JobsPerSec, r.ReadsPerSec)
	}
}
