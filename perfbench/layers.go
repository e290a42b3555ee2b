package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cl"
	"repro/internal/core"
	"repro/internal/dna"
	"repro/internal/eval"
	"repro/internal/fastx"
	"repro/internal/filter"
	"repro/internal/fmindex"
	"repro/internal/genome"
	"repro/internal/index"
	"repro/internal/mapper"
	"repro/internal/sam"
	"repro/internal/seed"
	"repro/internal/serve"
)

// replayReadCap bounds the reads a traced replay maps, so a traced run
// stays well inside its time budget on every workload.
const replayReadCap = 4000

// replayRounds is how many alternating rounds of serial Pipeline.Map,
// untraced replay and traced replay a traced run makes.
const replayRounds = 3

// Span names, one per layer call the replay times.
const (
	spBatch = iota
	spScan
	spRead
	spSelect
	spLocate
	spDedup
	spFilter
	spVerify
	spFinalize
	spSAM
	spSave
	numSpans
)

var spanNames = [numSpans]string{"batch", "fastx.scan", "read", "seed.select", "fmindex.locate",
	"mapper.dedup", "filter.accept", "mapper.verify", "mapper.finalize", "sam.write", "checkpoint.save"}

// kernelSpans are the layers that run inside the device kernel; the rest
// of a serial Pipeline.Map is dispatch.
var kernelSpans = []int{spSelect, spLocate, spDedup, spFilter, spVerify, spFinalize}

// span is one timed layer call. start and end are nanoseconds since the
// replay began; parent indexes the enclosing span (-1 for none); id is
// the read index, or the batch index for batch-level spans.
type span struct {
	name       uint8
	parent, id int32
	start, end int64
}

// tracer keeps spans in memory. A tracer with on unset records nothing
// and costs one branch per call, which is how the replay measures its
// own overhead.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name int, parent, id int32) int32 {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{name: uint8(name), parent: parent, id: id, start: int64(time.Since(t.t0))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if i >= 0 {
		t.spans[i].end = int64(time.Since(t.t0))
	}
}

// selfTimes returns each layer's self time: its spans' durations minus
// the parts their child spans cover.
func (t *tracer) selfTimes() [numSpans]int64 {
	var self [numSpans]int64
	for _, s := range t.spans {
		d := s.end - s.start
		self[s.name] += d
		if s.parent >= 0 {
			self[t.spans[s.parent].name] -= d
		}
	}
	return self
}

// write stores the spans as TSV: name, start ns, end ns, parent, id.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name\tstart_ns\tend_ns\tparent\tid")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", spanNames[s.name], s.start, s.end, s.parent, s.id)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerCounts are the work tallies the replay records at the same
// boundaries as its spans.
type layerCounts struct {
	reads, fmSteps, dpCells, located, candidates  int64
	verified, matched, verifyWords                int64
	filterWords, rejected, accepted, falseAccepts int64
	samBytes                                      int64
}

// replayConfig is the mapping configuration a replay reproduces.
type replayConfig struct {
	selector  seed.Selector
	errors    int
	maxLoc    int
	prefilter bool
	batch     int // reads per SAM flush and checkpoint save
}

// replayOut is one replay's outcome.
type replayOut struct {
	mappings [][]mapper.Mapping
	verifyIn [][]mapper.Candidate // what each read handed to Verify
	counts   layerCounts
	saveMs   []float64
	wall     time.Duration
}

// replayState is the replay's per-read scratch, as a kernel worker's.
type replayState struct {
	vs    mapper.VerifyState
	fs    filter.State
	rev   []byte
	win   []byte
	cands []mapper.Candidate
	locs  []int32
}

// replay maps a FASTQ stream the way `repute map -batch` does, calling
// each layer directly: scan and encode, select seeds, locate, dedup,
// prefilter, verify, finalize, write SAM, and save a checkpoint per
// batch.
func replay(fq []byte, ix *fmindex.Index, g *genome.Genome, cfg replayConfig, tr *tracer, dir string) (*replayOut, error) {
	out := &replayOut{}
	c := &out.counts
	refs := make([]sam.RefSeq, len(g.Contigs()))
	for i, ct := range g.Contigs() {
		refs[i] = sam.RefSeq{Name: ct.Name, Length: ct.Length}
	}
	samFile, err := os.Create(filepath.Join(dir, "replay.sam"))
	if err != nil {
		return nil, err
	}
	defer samFile.Close()
	sw, err := sam.NewMultiWriter(samFile, refs)
	if err != nil {
		return nil, err
	}
	ckpt := filepath.Join(dir, "replay.ckpt")
	st := &checkpoint.State{Version: checkpoint.Version, BatchSize: cfg.batch}
	save := func(parent int32, batch int32) error {
		sp := tr.begin(spSave, parent, batch)
		t := time.Now()
		err := checkpoint.Save(ckpt, st)
		out.saveMs = append(out.saveMs, float64(time.Since(t))/1e6)
		tr.end(sp)
		return err
	}

	sc := fastx.NewScanner(bytes.NewReader(fq), fastx.ScanOptions{Format: fastx.FormatFASTQ})
	codec := fastx.NewCodec(0)
	rs := &replayState{}
	text := ix.Text()
	start := time.Now()
	tr.t0 = start
	for b := int32(0); ; b++ {
		bsp := tr.begin(spBatch, -1, b)
		var names []string
		var reads [][]byte
		for len(reads) < cfg.batch {
			sp := tr.begin(spScan, bsp, int32(len(out.mappings)+len(reads)))
			if !sc.Scan() {
				tr.end(sp)
				break
			}
			rec := sc.Record()
			names = append(names, rec.Name)
			reads = append(reads, codec.Codes(rec))
			tr.end(sp)
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
		if len(reads) == 0 {
			tr.end(bsp)
			break
		}
		for i, read := range reads {
			id := int32(len(out.mappings))
			rsp := tr.begin(spRead, bsp, id)
			ms, err := rs.mapRead(ix, text, read, cfg, tr, rsp, id, c, out)
			tr.end(rsp)
			if err != nil {
				return nil, err
			}
			out.mappings = append(out.mappings, ms)
			sp := tr.begin(spSAM, bsp, id)
			_, err = serve.WriteReadAlignments(sw, g, nil, names[i], read, ms, false, cfg.errors)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
		}
		sp := tr.begin(spSAM, bsp, -1)
		err := sw.Flush()
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		st.Batches++
		st.Reads = len(out.mappings)
		st.Offset = sc.Offset()
		if st.SAMBytes, err = samFile.Seek(0, 1); err != nil {
			return nil, err
		}
		if err := save(bsp, b); err != nil {
			return nil, err
		}
		tr.end(bsp)
	}
	if err := save(-1, -1); err != nil {
		return nil, err
	}
	out.wall = time.Since(start)
	c.reads = int64(len(out.mappings))
	c.samBytes = st.SAMBytes
	return out, nil
}

// mapRead is the combined kernel body (or the prefilter kernel followed
// by the verify kernel) for one read, with a span around each layer call.
func (rs *replayState) mapRead(ix *fmindex.Index, text dna.PackedSeq, read []byte, cfg replayConfig,
	tr *tracer, parent, id int32, c *layerCounts, out *replayOut) ([]mapper.Mapping, error) {
	params := seed.Params{Errors: cfg.errors, MinSeedLen: core.DefaultMinSeedLen(len(read), cfg.errors)}
	maxCand := 2 * cfg.maxLoc
	if cap(rs.rev) < len(read) {
		rs.rev = make([]byte, len(read))
	}
	rs.rev = rs.rev[:len(read)]
	rs.cands = rs.cands[:0]
	for _, strand := range []byte{mapper.Forward, mapper.Reverse} {
		pattern := read
		if strand == mapper.Reverse {
			dna.ReverseComplementInto(rs.rev, read)
			pattern = rs.rev
		}
		sp := tr.begin(spSelect, parent, id)
		sel, err := cfg.selector.Select(ix, pattern, params)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		c.fmSteps += int64(sel.FMSteps)
		c.dpCells += int64(sel.DPCells)
		remaining := maxCand
		for _, s := range sel.Seeds {
			if remaining <= 0 {
				break
			}
			n := s.Count()
			if n == 0 {
				continue
			}
			n = min(n, remaining)
			sp := tr.begin(spLocate, parent, id)
			rs.locs = ix.Locate(s.Lo, s.Lo+n, 0, rs.locs[:0])
			tr.end(sp)
			c.located += int64(len(rs.locs))
			for _, pos := range rs.locs {
				rs.cands = append(rs.cands, mapper.Candidate{Pos: pos - int32(s.Start), Strand: strand})
			}
			remaining -= n
		}
	}
	sp := tr.begin(spDedup, parent, id)
	dd := mapper.DedupCandidates(rs.cands, int32(cfg.errors))
	tr.end(sp)
	c.candidates += int64(len(dd))

	verifyIn := dd
	if cfg.prefilter {
		sp := tr.begin(spFilter, parent, id)
		verifyIn = rs.filter(text, read, dd, cfg.errors, c)
		tr.end(sp)
		c.accepted += int64(len(verifyIn))
	}
	out.verifyIn = append(out.verifyIn, append([]mapper.Candidate(nil), verifyIn...))

	sp = tr.begin(spVerify, parent, id)
	ms, vc := rs.vs.Verify(text, read, verifyIn, cfg.errors, cfg.maxLoc)
	tr.end(sp)
	c.verified += int64(len(verifyIn))
	c.matched += vc.Matched
	c.verifyWords += vc.VerifyWords
	if cfg.prefilter {
		c.falseAccepts += int64(len(verifyIn)) - vc.Matched
	}

	sp = tr.begin(spFinalize, parent, id)
	ms = mapper.Finalize(ms, false, cfg.maxLoc)
	tr.end(sp)
	return ms, nil
}

// filter is the prefilter kernel's loop: drop candidates whose
// verification window is too short to hold a match or that the
// shifted-Hamming filter rejects. Survivors are compacted into dd's
// prefix, which the caller reads before the next read reuses it.
func (rs *replayState) filter(text dna.PackedSeq, read []byte, dd []mapper.Candidate, delta int, c *layerCounts) []mapper.Candidate {
	n := len(read)
	kept := 0
	prepared := byte(0xFF)
	for _, cd := range dd {
		lo := max(int(cd.Pos)-delta, 0)
		hi := min(int(cd.Pos)+n+delta, text.Len())
		if hi-lo < n-delta {
			c.rejected++
			continue
		}
		if cd.Strand != prepared {
			pattern := read
			if cd.Strand == mapper.Reverse {
				pattern = rs.rev
			}
			c.filterWords += rs.fs.Prepare(pattern, delta)
			prepared = cd.Strand
		}
		if cap(rs.win) < hi-lo {
			rs.win = make([]byte, hi-lo)
		}
		ok, w := rs.fs.Accept(text.SliceInto(rs.win, lo, hi))
		c.filterWords += w
		if !ok {
			c.rejected++
			continue
		}
		dd[kept] = cd
		kept++
	}
	return dd[:kept]
}

// layerRun is a traced run's in-process half: index load, Pipeline.Map
// serial and parallel, the replay untraced and traced, and the
// allocation passes. It fills every per-layer metric except serve.*.
func layerRun(e *env, res *result, rs readSet, cfg replayConfig, platform, name string) error {
	var loads []float64
	var f *index.File
	for i := 0; i < 3; i++ {
		t := time.Now()
		var err error
		if f, err = index.LoadFile(e.index); err != nil {
			return err
		}
		loads = append(loads, time.Since(t).Seconds())
	}
	ix := f.Indexes[0]
	g, err := genome.FromContigs(f.Meta.Contigs)
	if err != nil {
		return err
	}
	opt := mapper.Options{MaxErrors: cfg.errors, MaxLocations: cfg.maxLoc, Prefilter: mapper.PrefilterOff}
	if cfg.prefilter {
		opt.Prefilter = mapper.PrefilterGateKeeper
	}

	// Pipeline.Map over the same batches the CLI streams, serially for
	// the dispatch baseline, and the replay untraced and traced, in
	// alternating rounds so that drift in the machine's speed falls on
	// all three alike; each reports its median round.
	fq := rs.fastq()
	var (
		serialMs        [][]mapper.Mapping
		serialW, plainW []float64
		tracedW         []float64
		traced          *replayOut
		tr              *tracer
	)
	for round := 0; round < replayRounds; round++ {
		ms, wall, err := pipelineMap(ix, rs.reads, cfg, opt, platform, cl.Serial)
		if err != nil {
			return err
		}
		serialMs = ms
		serialW = append(serialW, wall.Seconds())
		plain, err := replay(fq, ix, g, cfg, &tracer{}, e.work)
		if err != nil {
			return err
		}
		plainW = append(plainW, plain.wall.Seconds())
		t := &tracer{on: true}
		r, err := replay(fq, ix, g, cfg, t, e.work)
		if err != nil {
			return err
		}
		tracedW = append(tracedW, r.wall.Seconds())
		for _, out := range []*replayOut{plain, r} {
			if ok, i := eval.IdenticalMappings(serialMs, out.mappings); !ok {
				res.fail("trace rejected: replay mappings differ from Pipeline.Map at read %d", i)
			}
		}
		// The middle round's spans give the layer breakdown.
		if traced == nil || round == replayRounds/2 {
			traced, tr = r, t
		}
	}
	serialWall := median(serialW)

	// The parallel work-group scheduler with GOMAXPROCS workers, under
	// the runtime's allocation and GC counters.
	before := readRuntime()
	parMs, parWall, err := pipelineMap(ix, rs.reads, cfg, opt, platform, cl.Parallel)
	if err != nil {
		return err
	}
	after := readRuntime()
	if ok, i := eval.IdenticalMappings(serialMs, parMs); !ok {
		res.fail("parallel Pipeline.Map differs from serial at read %d", i)
	}
	tracePath := filepath.Join(e.root, ".bench_build", "traces", fmt.Sprintf("%s-seed%d.tsv", name, e.seed))
	if err := tr.write(tracePath); err != nil {
		return err
	}

	rev := make([]byte, len(rs.reads[0])) // simulated reads share one length
	seedAllocs := countAllocs(func() {
		for _, read := range rs.reads {
			params := seed.Params{Errors: cfg.errors, MinSeedLen: core.DefaultMinSeedLen(len(read), cfg.errors)}
			dna.ReverseComplementInto(rev, read)
			cfg.selector.Select(ix, read, params) //nolint:errcheck // the replay already succeeded on these reads
			cfg.selector.Select(ix, rev, params)  //nolint:errcheck // as above
		}
	})
	var vs mapper.VerifyState
	verifyAllocs := countAllocs(func() {
		for i, read := range rs.reads {
			vs.Verify(ix.Text(), read, traced.verifyIn[i], cfg.errors, cfg.maxLoc)
		}
	})

	c := traced.counts
	n := float64(c.reads)
	self := tr.selfTimes()
	perRead := func(sp int) float64 { return float64(self[sp]) / n }
	var kernel int64
	for _, sp := range kernelSpans {
		kernel += self[sp]
	}
	m := res.metrics
	m["seed.select_ns_per_read"] = perRead(spSelect)
	m["seed.fm_steps_per_read"] = float64(c.fmSteps) / n
	m["seed.ns_per_fm_step"] = ratio(float64(self[spSelect]), float64(c.fmSteps))
	m["seed.dp_cells_per_read"] = float64(c.dpCells) / n
	m["seed.allocs_per_read"] = float64(seedAllocs.objects) / n
	m["fmindex.locate_ns_per_read"] = perRead(spLocate)
	m["fmindex.located_per_read"] = float64(c.located) / n
	m["mapper.dedup_ns_per_read"] = perRead(spDedup)
	m["mapper.candidates_per_read"] = float64(c.candidates) / n
	m["mapper.finalize_ns_per_read"] = perRead(spFinalize)
	m["verify.ns_per_read"] = perRead(spVerify)
	m["verify.ns_per_candidate"] = ratio(float64(self[spVerify]), float64(c.verified))
	m["verify.words_per_read"] = float64(c.verifyWords) / n
	m["verify.allocs_per_read"] = float64(verifyAllocs.objects) / n
	m["verify.bytes_per_read"] = float64(verifyAllocs.bytes) / n
	m["verify.match_frac"] = ratio(float64(c.matched), float64(c.verified))
	m["filter.ns_per_read"] = perRead(spFilter)
	m["filter.words_per_read"] = float64(c.filterWords) / n
	m["filter.reject_frac"] = ratio(float64(c.rejected), float64(c.candidates))
	m["filter.false_accept_frac"] = ratio(float64(c.falseAccepts), float64(c.accepted))
	m["fastx.scan_ns_per_read"] = perRead(spScan)
	m["sam.write_ns_per_read"] = perRead(spSAM)
	m["sam.bytes_per_read"] = float64(c.samBytes) / n
	m["checkpoint.save_ms_p50"] = median(traced.saveMs)
	m["checkpoint.saves"] = float64(len(traced.saveMs))
	m["index.load_s"] = median(loads)
	m["core.map_ns_per_read"] = serialWall * 1e9 / n
	m["core.parallel_speedup"] = serialWall / parWall.Seconds()
	m["cl.dispatch_overhead_frac"] = 1 - float64(kernel)/(serialWall*1e9)
	m["runtime.alloc_bytes_per_read"] = float64(after.allocBytes-before.allocBytes) / n
	m["runtime.gc_cpu_frac"] = ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU)
	m["trace.overhead_frac"] = median(tracedW)/median(plainW) - 1

	res.attempted += int(c.reads)
	res.note("# traced replay of %d reads (%d spans written to %s); replay mappings identical to Pipeline.Map: checked",
		c.reads, len(tr.spans), tracePath)
	res.note("# self time per read: %s", layerShares(self, n))
	res.note("# medians of %d rounds: serial Pipeline.Map %.3f s, replay untraced %.3f s, traced %.3f s; parallel Pipeline.Map %.3f s (GOMAXPROCS=%d)",
		replayRounds, serialWall, median(plainW), median(tracedW), parWall.Seconds(), runtime.GOMAXPROCS(0))
	return nil
}

// layerShares renders each layer's self time per read and its share of
// the kernel-layer total.
func layerShares(self [numSpans]int64, n float64) string {
	var kernel int64
	for _, sp := range kernelSpans {
		kernel += self[sp]
	}
	s := ""
	for sp := spScan; sp < numSpans; sp++ {
		if sp == spRead {
			continue
		}
		s += fmt.Sprintf("%s %.0f ns", spanNames[sp], float64(self[sp])/n)
		for _, k := range kernelSpans {
			if k == sp {
				s += fmt.Sprintf(" (%.1f%% of kernel)", 100*float64(self[sp])/float64(kernel))
			}
		}
		if sp < numSpans-1 {
			s += ", "
		}
	}
	return s
}

// pipelineMap maps reads through a fresh Pipeline in the CLI's batches.
func pipelineMap(ix *fmindex.Index, reads [][]byte, cfg replayConfig, opt mapper.Options,
	platform string, exec cl.ExecMode) ([][]mapper.Mapping, time.Duration, error) {
	devs := []*cl.Device{cl.SystemOneCPU()}
	if platform == "system1" {
		devs = cl.SystemOne().Devices
	}
	p, err := core.NewFromIndex(ix, devs, core.Config{Name: "REPUTE", Selector: cfg.selector, Exec: exec})
	if err != nil {
		return nil, 0, err
	}
	var out [][]mapper.Mapping
	start := time.Now()
	for lo := 0; lo < len(reads); lo += cfg.batch {
		r, err := p.Map(reads[lo:min(lo+cfg.batch, len(reads))], opt)
		if err != nil {
			return nil, 0, err
		}
		out = append(out, r.Mappings...)
	}
	return out, time.Since(start), nil
}

// allocTally is a heap allocation count over an interval.
type allocTally struct{ objects, bytes uint64 }

// countAllocs runs fn and returns the heap allocations it made.
func countAllocs(fn func()) allocTally {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return allocTally{b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc}
}

// runtimeSample is a reading of the runtime's cumulative counters.
type runtimeSample struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{s[0].Value.Uint64(), s[1].Value.Float64(), s[2].Value.Float64()}
}

// ratio is a/b, or 0 when nothing was attempted (b == 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// mapReplayConfig is a map workload's replay configuration.
func mapReplayConfig(spec mapSpec) replayConfig {
	var sel seed.Selector = seed.REPUTE{}
	if spec.selector == "coral" {
		sel = seed.CORAL{}
	}
	return replayConfig{selector: sel, errors: spec.errors, maxLoc: 100,
		prefilter: spec.prefilter == "gatekeeper", batch: spec.batch}
}

// traceMap is the traced run of a map workload: its reads, its CLI
// options, replayed in process. The serve layer is bypassed.
func traceMap(e *env, name string, spec mapSpec) (*result, error) {
	res := newResult()
	rs, err := e.genReads(spec.profile, min(spec.reads, replayReadCap))
	if err != nil {
		return nil, err
	}
	if err := layerRun(e, res, rs, mapReplayConfig(spec), spec.platform, name); err != nil {
		return nil, err
	}
	for _, k := range []string{"serve.submit_ms_p50", "serve.queue_wait_ms_p50", "serve.run_ms_p50",
		"serve.sam_fetch_ms_p50", "serve.refused_429", "serve.queue_depth_max"} {
		res.metrics[k] = 0
	}
	return res, nil
}

// traceServe is the traced run of serve-open: the serve layer's numbers
// come from outside (HTTP timings and state transitions seen by
// polling, plus /metrics); the other layers from replaying the first
// jobs' reads in process with the server's options, one job per batch.
func traceServe(e *env, name string, spec serveSpec) (*result, error) {
	res := newResult()
	sess, err := runSession(e, spec, res)
	if err != nil {
		return nil, err
	}
	var submit, wait, run, fetch []float64
	for _, o := range sess.obs {
		if o.id != "" {
			submit = append(submit, ms(o.submit))
		}
		if o.ok {
			wait = append(wait, ms(o.running-o.sentAt))
			run = append(run, ms(o.doneAt-o.running))
			fetch = append(fetch, ms(o.fetch))
		}
	}
	m := res.metrics
	m["serve.submit_ms_p50"] = median(submit)
	m["serve.queue_wait_ms_p50"] = median(wait)
	m["serve.run_ms_p50"] = median(run)
	m["serve.sam_fetch_ms_p50"] = median(fetch)
	m["serve.refused_429"] = float64(sess.refused)
	m["serve.queue_depth_max"] = float64(sess.queueMax)
	if got := sess.metrics.Counters["serve_jobs_rejected_total/overload"]; got != int64(sess.refused) {
		res.fail("/metrics counts %d refused jobs, the generator %d", got, sess.refused)
	}

	n := min(len(sess.plan.all.reads), replayReadCap/2)
	cfg := replayConfig{selector: seed.REPUTE{}, errors: spec.errors, maxLoc: 100, batch: spec.jobReads}
	if err := layerRun(e, res, sess.plan.all.slice(0, n), cfg, spec.platform, name); err != nil {
		return nil, err
	}
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
