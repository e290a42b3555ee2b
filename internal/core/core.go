// Package core implements REPUTE, the paper's contribution: an OpenCL
// read mapper for heterogeneous systems. The host program builds the
// FM-index preprocessing, splits the read set across any number of
// simulated OpenCL devices in task-parallel fashion, allocates the static
// kernel buffers that OpenCL 1.2 demands (batching when a buffer would
// exceed the 1/4-of-RAM allocation limit), and launches a combined
// filtration + verification kernel per batch.
//
// The filtration stage is the memory-optimised dynamic-programming seed
// selection of §II-B (seed.REPUTE); the verification stage is the Myers
// bit-vector (§II-A). A different Selector — e.g. seed.CORAL — turns the
// same pipeline into the CORAL comparison mapper, mirroring how the two
// tools share their kernel flow in the paper.
package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/align"
	"repro/internal/cl"
	"repro/internal/dna"
	"repro/internal/filter"
	"repro/internal/fmindex"
	"repro/internal/mapper"
	"repro/internal/seed"
	"repro/internal/trace"
)

// locationBytes is the per-reported-location size of the fixed output
// slots (pos int32 + strand/dist packed), matching the paper's first-n
// output policy.
const locationBytes = 8

// Index aliases the FM-index type so wrappers (e.g. the CORAL package)
// need not import internal/fmindex directly.
type Index = fmindex.Index

// Config tunes a Pipeline.
type Config struct {
	// Name labels the mapper in results ("REPUTE-cpu", "REPUTE-all", ...).
	Name string
	// Selector is the filtration strategy; nil means seed.REPUTE{}.
	Selector seed.Selector
	// Split gives each device's share of the reads; nil or all-zero
	// means everything on the first device. Shares are normalised.
	Split []float64
	// SASampleRate is passed to the FM-index build (0 = full SA).
	SASampleRate int
	// Exec pins the host execution mode of the pipeline's queues;
	// cl.Auto (the zero value) uses the package default. Simulated
	// results are identical either way — cl.Serial exists for debugging
	// and for determinism regression tests.
	Exec cl.ExecMode
	// Deadlines, when non-nil, gives each device a simulated-seconds
	// budget (one entry per device, 0 = unlimited): once a device's
	// accumulated busy time crosses its deadline, its remaining batches
	// migrate to the other devices — the recovery path for a device that
	// is alive but too slow (thermal throttling, a contended lane).
	Deadlines []float64
	// Tracer receives spans and instants for every enqueue, penalty,
	// buffer event, round, retry, failover and deadline decision, keyed
	// on simulated time (DESIGN.md §10). nil or trace.Noop disables
	// tracing with zero overhead on the hot path. Installing a
	// *trace.Recorder additionally feeds its per-item op histogram.
	Tracer trace.Tracer
}

// Shard binds one reference slice's FM-index to its global placement:
// the index covers text[SliceStart:SliceEnd] and *owns* (reports
// mappings for) positions in [OwnStart, OwnEnd). Neighbouring slices
// overlap so reads straddling an ownership boundary are still fully
// contained in some shard's slice.
type Shard struct {
	Index                *fmindex.Index
	OwnStart, OwnEnd     int64
	SliceStart, SliceEnd int64
}

// Pipeline is a REPUTE-style mapper bound to a reference and devices.
// It dispatches in one of two geometries:
//
//   - read-split (ix != nil): every device holds the whole index and the
//     read set is split across devices by the configured shares;
//   - shard (shards != nil): the reference is partitioned, each device
//     holds its own shards' FM-index buffers, every read is broadcast to
//     every shard, and per-shard candidates merge in global coordinates.
//
// Both geometries ride the same fault-tolerant round engine: work is
// tracked as (shard, read-span) units, and a failed device's units —
// including its reference shards — re-dispatch to the survivors.
type Pipeline struct {
	name      string
	ix        *fmindex.Index // read-split geometry (nil when sharded)
	shards    []Shard        // shard geometry (nil when read-split)
	overlap   int            // shard slice overlap in bases
	devices   []*cl.Device
	split     []float64
	selector  seed.Selector
	exec      cl.ExecMode
	deadlines []float64

	// tracer is the normalised Config.Tracer (nil when off); itemHist is
	// the tracer's per-item op histogram when it offers one. traceSec is
	// the simulated time already traced by earlier Map calls on this
	// pipeline, so successive runs (MapPairs' two mates) extend one
	// timeline; traceMu guards it across concurrent Map calls.
	tracer   trace.Tracer
	itemHist *trace.Histogram
	traceMu  sync.Mutex
	traceSec float64 // guarded by traceMu
}

// New builds the index from ref and returns the pipeline.
func New(ref []byte, devices []*cl.Device, cfg Config) (*Pipeline, error) {
	if len(ref) == 0 {
		return nil, fmt.Errorf("core: empty reference")
	}
	ix := fmindex.Build(ref, fmindex.Options{SASampleRate: cfg.SASampleRate})
	return NewFromIndex(ix, devices, cfg)
}

// NewFromIndex wraps an existing index (e.g. loaded from disk).
func NewFromIndex(ix *fmindex.Index, devices []*cl.Device, cfg Config) (*Pipeline, error) {
	p, err := newPipeline(devices, cfg)
	if err != nil {
		return nil, err
	}
	p.ix = ix
	return p, nil
}

// NewSharded builds a shard-dispatch pipeline: each shard's FM-index
// covers one overlapping reference slice (normally loaded from a sharded
// index artifact), reads broadcast to every shard, and mappings merge in
// global coordinates. overlap is the slice overlap the shards were built
// with; Map validates it against the read length so boundary-straddling
// alignments cannot be silently lost. Config.Split does not apply —
// shard dispatch assigns whole shards to devices round-robin.
func NewSharded(shards []Shard, overlap int, devices []*cl.Device, cfg Config) (*Pipeline, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("core: no shards")
	}
	if cfg.Split != nil {
		return nil, fmt.Errorf("core: read-split shares do not apply to shard dispatch")
	}
	prev := int64(0)
	for i, s := range shards {
		if s.Index == nil {
			return nil, fmt.Errorf("core: shard %d has no index", i)
		}
		if s.OwnStart != prev || s.OwnEnd < s.OwnStart ||
			s.SliceStart > s.OwnStart || s.SliceEnd < s.OwnEnd {
			return nil, fmt.Errorf("core: shard %d has inconsistent geometry", i)
		}
		if int64(s.Index.Len()) != s.SliceEnd-s.SliceStart {
			return nil, fmt.Errorf("core: shard %d index covers %d bases, slice is %d",
				i, s.Index.Len(), s.SliceEnd-s.SliceStart)
		}
		prev = s.OwnEnd
	}
	p, err := newPipeline(devices, cfg)
	if err != nil {
		return nil, err
	}
	p.shards = shards
	p.overlap = overlap
	return p, nil
}

// newPipeline applies the geometry-independent configuration.
func newPipeline(devices []*cl.Device, cfg Config) (*Pipeline, error) {
	if len(devices) == 0 {
		return nil, fmt.Errorf("core: no devices")
	}
	sel := cfg.Selector
	if sel == nil {
		sel = seed.REPUTE{}
	}
	name := cfg.Name
	if name == "" {
		name = "REPUTE"
	}
	split := cfg.Split
	if split != nil && len(split) != len(devices) {
		return nil, fmt.Errorf("core: split has %d entries for %d devices",
			len(split), len(devices))
	}
	if cfg.Deadlines != nil && len(cfg.Deadlines) != len(devices) {
		return nil, fmt.Errorf("core: deadlines has %d entries for %d devices",
			len(cfg.Deadlines), len(devices))
	}
	p := &Pipeline{name: name, devices: devices, split: split,
		selector: sel, exec: cfg.Exec, deadlines: cfg.Deadlines}
	if !trace.IsNoop(cfg.Tracer) {
		p.tracer = cfg.Tracer
		if h, ok := cfg.Tracer.(interface{ ItemOpsHistogram() *trace.Histogram }); ok {
			p.itemHist = h.ItemOpsHistogram()
		}
	}
	return p, nil
}

// Sharded reports whether the pipeline uses shard dispatch.
func (p *Pipeline) Sharded() bool { return p.shards != nil }

// Name implements mapper.Mapper.
func (p *Pipeline) Name() string { return p.name }

// Devices returns the pipeline's devices in dispatch order.
func (p *Pipeline) Devices() []*cl.Device { return p.devices }

// Tracer returns the pipeline's tracer (nil when tracing is off), so
// stages around a run — streaming ingest, say — record on the same
// timeline.
func (p *Pipeline) Tracer() trace.Tracer { return p.tracer }

// Index exposes the pipeline's FM-index (examples inspect it). It is nil
// for shard-dispatch pipelines, which hold per-shard indexes instead.
func (p *Pipeline) Index() *fmindex.Index { return p.ix }

// shardOwning returns the shard whose ownership range contains the
// global position, or nil.
func (p *Pipeline) shardOwning(pos int64) *Shard {
	for i := range p.shards {
		if s := &p.shards[i]; pos >= s.OwnStart && pos < s.OwnEnd {
			return s
		}
	}
	return nil
}

// CigarFor recovers the CIGAR string of a reported mapping by re-aligning
// the read against the mapped reference window — the SAM-output feature
// the paper's §IV defers to future versions. Cost is paid only for
// mappings actually written out. In shard dispatch the window comes from
// the owning shard's slice; mappings sit at least one read length from
// the slice edge (the overlap Map validates), so the window never clips.
func (p *Pipeline) CigarFor(read []byte, m mapper.Mapping, maxErrors int) (align.Cigar, error) {
	pattern := read
	if m.Strand == mapper.Reverse {
		pattern = dna.ReverseComplement(read)
	}
	var text dna.PackedSeq
	base := 0
	if p.Sharded() {
		sh := p.shardOwning(int64(m.Pos))
		if sh == nil {
			return nil, fmt.Errorf("core: mapping position %d owned by no shard", m.Pos)
		}
		text = sh.Index.Text()
		base = int(sh.SliceStart)
	} else {
		text = p.ix.Text()
	}
	lo := int(m.Pos) - base
	hi := lo + len(pattern) + maxErrors
	if lo < 0 || lo >= text.Len() {
		return nil, fmt.Errorf("core: mapping position %d out of range", m.Pos)
	}
	if hi > text.Len() {
		hi = text.Len()
	}
	window := text.Slice(lo, hi)
	match, cigar, ok := align.AlignCigar(pattern, window, int(m.Dist))
	if !ok {
		return nil, fmt.Errorf("core: mapping at %d does not realign within %d edits", m.Pos, m.Dist)
	}
	if match.Start != 0 {
		// The window starts exactly at the mapping position, so the best
		// alignment should anchor there; tolerate small shifts by
		// prepending a deletion-free offset via re-slice.
		window = window[match.Start:]
		_, cigar, ok = align.AlignCigar(pattern, window, int(m.Dist))
		if !ok {
			return nil, fmt.Errorf("core: realignment drifted at %d", m.Pos)
		}
	}
	return cigar, nil
}

// DefaultMinSeedLen picks Smin for a read length and error count the way
// the paper's experiments do ("the best performances of REPUTE taking
// into consideration the k-mer lengths"): it targets an exploration
// window of ~44 prefixes — enough freedom for the DP to matter without
// blowing up filtration time — clamped to [8, 16] and to feasibility.
func DefaultMinSeedLen(readLen, errors int) int {
	parts := errors + 1
	smin := (readLen - 44) / parts
	if smin > 16 {
		smin = 16
	}
	if smin < 8 {
		smin = 8
	}
	if parts*smin > readLen {
		smin = readLen / parts
	}
	if smin < 1 {
		smin = 1
	}
	return smin
}

// shares normalises the configured split into per-device read counts.
func (p *Pipeline) shares(total int) []int {
	counts := make([]int, len(p.devices))
	if p.split == nil {
		counts[0] = total
		return counts
	}
	sum := 0.0
	for _, s := range p.split {
		if s > 0 {
			sum += s
		}
	}
	if sum == 0 {
		counts[0] = total
		return counts
	}
	assigned := 0
	largest, largestShare := 0, 0.0
	for i, s := range p.split {
		if s < 0 {
			s = 0
		}
		if s > largestShare {
			largest, largestShare = i, s
		}
		counts[i] = int(float64(total) * s / sum)
		assigned += counts[i]
	}
	// The rounding remainder goes to the device with the largest share —
	// never to a device whose configured share is zero.
	counts[largest] += total - assigned
	return counts
}

// pending is a half-open span [start, end) of global read indices still
// awaiting mapping. The failover machinery moves spans, not individual
// reads, so redistribution stays O(devices) per round.
type pending struct{ start, end int }

// spanReads counts the reads covered by spans.
func spanReads(spans []pending) int {
	n := 0
	for _, sp := range spans {
		n += sp.end - sp.start
	}
	return n
}

// unit is the engine's work quantum: a span of reads to map against one
// shard's index (shard == -1 means the whole read-split index). In
// read-split dispatch every unit has shard -1 and spans partition the
// read set; in shard dispatch each shard broadcasts the full read range,
// so the same read index appears in one unit per shard. Failover moves
// units, which is what re-homes a lost device's reference slice onto
// the survivors.
type unit struct {
	shard int
	span  pending
}

// unitReads counts the read-dispatches covered by units.
func unitReads(units []unit) int {
	n := 0
	for _, u := range units {
		n += u.span.end - u.span.start
	}
	return n
}

// outcome is one device's report at a round barrier: which units it did
// not finish, why it stopped, and the recovery work it performed.
type outcome struct {
	unmapped []unit
	failed   bool // permanent device failure — fail the units over
	deadline bool // simulated-seconds budget exceeded — migrate the units
	err      error
	stats    mapper.FaultStats
}

// Map implements mapper.Mapper. Each device's share runs in its own host
// goroutine over its own queue — the paper's task-parallel model — and
// the shares join at a barrier before aggregation.
//
// The barrier is also the recovery point: a device that fails permanently
// (CL_DEVICE_NOT_AVAILABLE, a deterministic kernel fault, an infeasible
// allocation) or exceeds its simulated-seconds deadline reports its
// unfinished spans, and Map redistributes them across the surviving
// devices in another round. Transient faults never reach the barrier —
// mapOnDevice retries them in place. Map fails only when no device can
// finish the workload.
//
// Recovery changes where and when work runs, never what it computes:
// mappings and Cost are identical to a fault-free run (the determinism
// suite asserts this), while SimSeconds accumulates each round's makespan
// and mapper.Result.Faults accounts the recovery actions.
//
// Aggregation happens in device order, so simulated seconds, energy and
// cost are independent of which device's goroutine finishes first.
func (p *Pipeline) Map(reads [][]byte, opt mapper.Options) (*mapper.Result, error) {
	opt = opt.WithDefaults()
	if err := mapper.ValidateReads(reads, opt); err != nil {
		return nil, err
	}
	if err := p.validateOverlap(reads, opt); err != nil {
		return nil, err
	}
	// Chaos hook: REPUTE_CL_FAULTS arms its plan on every device that has
	// no explicit one, turning any pipeline run into a fault-recovery run.
	if plan := cl.EnvFaultPlan(); plan != nil {
		for i, dev := range p.devices {
			if plan.Device > 0 && plan.Device != i+1 {
				continue // device=K targets only the Kth pipeline device
			}
			if !dev.FaultsInstalled() {
				dev.InstallFaults(plan)
			}
		}
	}
	res := &mapper.Result{
		Mappings:      make([][]mapper.Mapping, len(reads)),
		DeviceSeconds: map[string]float64{},
	}
	ctx := cl.NewContext()
	queues := make([]*cl.Queue, len(p.devices))
	// traceBase is where this run starts on the pipeline's traced
	// timeline: fresh queues count busy time from zero, so the origin
	// shifts their spans past everything already recorded (a second Map
	// call — MapPairs' mate 2 — continues the timeline, not overlaps it).
	traceBase := 0.0
	if p.tracer != nil {
		p.traceMu.Lock()
		traceBase = p.traceSec
		p.traceMu.Unlock()
		ctx.SetTracer(p.tracer)
	}
	for i, dev := range p.devices {
		queues[i] = cl.NewQueue(dev)
		queues[i].SetExecMode(p.exec)
		if p.tracer != nil {
			queues[i].SetTracer(p.tracer)
			queues[i].SetTraceOrigin(traceBase)
		}
	}
	if t := p.tracer; t != nil {
		id := t.Begin("host", "map", traceBase,
			trace.I64("reads", int64(len(reads))),
			trace.I64("devices", int64(len(p.devices))),
			trace.Str("mapper", p.name))
		defer func() {
			p.traceMu.Lock()
			p.traceSec = traceBase + res.SimSeconds
			p.traceMu.Unlock()
			t.End(id, traceBase+res.SimSeconds,
				trace.F64("sim_seconds", res.SimSeconds),
				trace.F64("energy_j", res.EnergyJ))
		}()
	}

	// Output destinations: read-split units write straight into
	// res.Mappings; shard units write per-shard partials that merge in
	// global coordinates once every round has completed.
	outFor := func(shard int) [][]mapper.Mapping { return res.Mappings }
	var partials [][][]mapper.Mapping
	if p.Sharded() {
		partials = make([][][]mapper.Mapping, len(p.shards))
		for s := range partials {
			partials[s] = make([][]mapper.Mapping, len(reads))
		}
		outFor = func(shard int) [][]mapper.Mapping { return partials[shard] }
	}

	// Initial assignment. Read-split: the configured split, as contiguous
	// spans of the whole-index unit. Shard: every read goes to every
	// shard, shards deal round-robin onto devices.
	assign := make([][]unit, len(p.devices))
	if p.Sharded() {
		for s := range p.shards {
			di := s % len(p.devices)
			assign[di] = append(assign[di], unit{shard: s, span: pending{0, len(reads)}})
		}
	} else {
		offset := 0
		for di, n := range p.shares(len(reads)) {
			if n > 0 {
				assign[di] = []unit{{shard: -1, span: pending{offset, offset + n}}}
				offset += n
			}
		}
	}

	// Health-aware eligibility: a device whose circuit breaker is open is
	// quarantined — it starts ineligible and its initial assignment
	// redistributes to the healthy devices before the first round, in
	// both geometries. Passing over an open breaker ticks its cooldown
	// (Skipped), so a long-quarantined device eventually goes half-open
	// and the next Map call admits it for a canary. Half-open devices are
	// eligible: their first batch is the canary, and a canary failure
	// reopens the breaker and fails the device over mid-run.
	eligible := make([]bool, len(p.devices))
	var quarantined []unit
	for i, dev := range p.devices {
		eligible[i] = true
		brk := dev.Breaker()
		if brk == nil || brk.State() != cl.BreakerOpen {
			continue
		}
		if st, changed := brk.Skipped(); changed && st == cl.BreakerHalfOpen {
			if t := p.tracer; t != nil {
				t.Instant(dev.Name, "breaker-half-open")
			}
			continue
		}
		eligible[i] = false
		if t := p.tracer; t != nil {
			t.Instant(dev.Name, "quarantine-skip",
				trace.I64("unmapped_reads", int64(unitReads(assign[i]))))
		}
		quarantined = append(quarantined, assign[i]...)
		assign[i] = nil
	}
	if len(quarantined) > 0 {
		moved := p.redistribute(quarantined, eligible)
		if moved == nil {
			return nil, fmt.Errorf("core: every device is quarantined by its circuit breaker")
		}
		for di, units := range moved {
			assign[di] = append(assign[di], units...)
		}
	}
	ran := make([]bool, len(p.devices))
	var devErrs []error
	for round := 1; ; round++ {
		outs := make([]outcome, len(p.devices))
		busyBefore := make([]float64, len(p.devices))
		var wg sync.WaitGroup
		for di := range p.devices {
			if len(assign[di]) == 0 {
				continue
			}
			ran[di] = true
			busyBefore[di], _ = queues[di].Finish()
			wg.Add(1)
			go func(di int) {
				defer wg.Done()
				outs[di] = p.mapOnDevice(ctx, queues[di], assign[di], reads, outFor, opt, p.deadlineFor(di))
			}(di)
		}
		wg.Wait()

		// Rounds are sequential, devices within a round concurrent: the
		// round's makespan is the max per-device busy delta.
		roundMax := 0.0
		for di := range p.devices {
			if len(assign[di]) == 0 {
				continue
			}
			busy, _ := queues[di].Finish()
			if d := busy - busyBefore[di]; d > roundMax {
				roundMax = d
			}
		}
		if t := p.tracer; t != nil {
			t.Span("host", fmt.Sprintf("round %d", round),
				traceBase+res.SimSeconds, roundMax,
				trace.F64("makespan_sec", roundMax))
		}
		res.SimSeconds += roundMax

		// Collect outcomes in device order so stats and error lists are
		// deterministic.
		var failUnits, lateUnits []unit
		for di, dev := range p.devices {
			if len(assign[di]) == 0 {
				continue
			}
			o := &outs[di]
			res.Faults.Add(o.stats)
			assign[di] = nil
			switch {
			case o.failed:
				eligible[di] = false
				res.Faults.FailedDevices = append(res.Faults.FailedDevices, dev.Name)
				devErrs = append(devErrs, fmt.Errorf("device %s: %w", dev.Name, o.err))
				failUnits = append(failUnits, o.unmapped...)
				if t := p.tracer; t != nil {
					t.Instant(dev.Name, "device-failed",
						trace.Str("error", o.err.Error()),
						trace.I64("unmapped_reads", int64(unitReads(o.unmapped))))
				}
			case o.deadline:
				eligible[di] = false
				devErrs = append(devErrs, fmt.Errorf(
					"device %s: simulated deadline %gs exceeded", dev.Name, p.deadlineFor(di)))
				lateUnits = append(lateUnits, o.unmapped...)
				if t := p.tracer; t != nil {
					t.Instant(dev.Name, "deadline-exceeded",
						trace.F64("deadline_sec", p.deadlineFor(di)),
						trace.I64("unmapped_reads", int64(unitReads(o.unmapped))))
				}
			}
		}
		if t := p.tracer; t != nil {
			if n := unitReads(failUnits); n > 0 {
				t.Instant("host", "failover", trace.I64("reads", int64(n)),
					trace.I64("round", int64(round)))
			}
			if n := unitReads(lateUnits); n > 0 {
				t.Instant("host", "deadline-migrate", trace.I64("reads", int64(n)),
					trace.I64("round", int64(round)))
			}
		}
		res.Faults.FailoverReads += unitReads(failUnits)
		res.Faults.DeadlineReads += unitReads(lateUnits)
		redo := append(failUnits, lateUnits...)
		if len(redo) == 0 {
			break
		}
		assign = p.redistribute(redo, eligible)
		if assign == nil {
			return nil, fmt.Errorf("core: no device completed the workload: %w",
				errors.Join(devErrs...))
		}
	}

	// Aggregate in device order over every queue that ran.
	for di, dev := range p.devices {
		if !ran[di] {
			continue
		}
		busy, cost := queues[di].Finish()
		res.DeviceSeconds[dev.Name] += busy
		res.EnergyJ += queues[di].EnergyJ()
		res.Cost.Add(cost)
	}

	// Shard dispatch: merge the per-shard partials per read. Shards
	// already globalized positions and filtered to their ownership
	// ranges, so the merge is a deterministic re-finalize over disjoint
	// position sets — independent of device count, scheduling and
	// failover history.
	if p.Sharded() {
		parts := make([][]mapper.Mapping, len(partials))
		for r := range reads {
			for s := range partials {
				parts[s] = partials[s][r]
			}
			res.Mappings[r] = mapper.MergeShards(parts, opt.Best, opt.MaxLocations)
		}
	}
	return res, nil
}

// validateOverlap rejects shard-dispatch runs whose reads are too long
// for the overlap the shards were built with: a read of length L mapping
// with up to δ edits needs every candidate window of length L+2δ around
// an owned position to be inside the owning shard's slice, so the slice
// margin must be at least L+2δ. Failing loudly here is what makes the
// shard-vs-whole equivalence guarantee honest.
func (p *Pipeline) validateOverlap(reads [][]byte, opt mapper.Options) error {
	if !p.Sharded() || len(p.shards) < 2 {
		return nil
	}
	maxLen := 0
	for _, r := range reads {
		if len(r) > maxLen {
			maxLen = len(r)
		}
	}
	if need := maxLen + 2*opt.MaxErrors; p.overlap < need {
		return fmt.Errorf("core: shard overlap %d is too small for %d-base reads with %d errors (need >= %d); rebuild the index with a larger overlap",
			p.overlap, maxLen, opt.MaxErrors, need)
	}
	return nil
}

// redistribute deals the redo units out across the eligible devices,
// shard by shard: each shard's spans split by the surviving shares, so a
// lost device's reference slice re-dispatches (with its unfinished
// reads) onto every survivor. Returns nil when no device is eligible.
func (p *Pipeline) redistribute(redo []unit, eligible []bool) [][]unit {
	sort.Slice(redo, func(i, j int) bool {
		if redo[i].shard != redo[j].shard {
			return redo[i].shard < redo[j].shard
		}
		return redo[i].span.start < redo[j].span.start
	})
	assign := make([][]unit, len(p.devices))
	for lo := 0; lo < len(redo); {
		hi := lo
		for hi < len(redo) && redo[hi].shard == redo[lo].shard {
			hi++
		}
		spans := make([]pending, 0, hi-lo)
		for _, u := range redo[lo:hi] {
			spans = append(spans, u.span)
		}
		counts := p.sharesAmong(spanReads(spans), eligible)
		if counts == nil {
			return nil
		}
		for di, sps := range partitionSpans(spans, counts) {
			for _, sp := range sps {
				assign[di] = append(assign[di], unit{shard: redo[lo].shard, span: sp})
			}
		}
		lo = hi
	}
	return assign
}

// deadlineFor returns device di's simulated-seconds budget (0 = none).
func (p *Pipeline) deadlineFor(di int) float64 {
	if p.deadlines == nil {
		return 0
	}
	return p.deadlines[di]
}

// sharesAmong splits total reads across the devices still eligible,
// reusing the configured split weights. When the survivors' configured
// shares sum to zero (nil split, or only zero-share devices survive) the
// reads spread evenly. Returns nil when no device is eligible.
func (p *Pipeline) sharesAmong(total int, eligible []bool) []int {
	weights := make([]float64, len(p.devices))
	sum, any := 0.0, false
	for i, ok := range eligible {
		if !ok {
			continue
		}
		any = true
		if p.split != nil && p.split[i] > 0 {
			weights[i] = p.split[i]
			sum += weights[i]
		}
	}
	if !any {
		return nil
	}
	if sum == 0 {
		for i, ok := range eligible {
			if ok {
				weights[i] = 1
				sum++
			}
		}
	}
	counts := make([]int, len(p.devices))
	assigned := 0
	largest, largestShare := 0, 0.0
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		if w > largestShare {
			largest, largestShare = i, w
		}
		counts[i] = int(float64(total) * w / sum)
		assigned += counts[i]
	}
	counts[largest] += total - assigned
	return counts
}

// partitionSpans deals the sorted spans out by per-device read counts,
// splitting a span at a device boundary when needed.
func partitionSpans(spans []pending, counts []int) [][]pending {
	out := make([][]pending, len(counts))
	si := 0
	pos := 0
	if len(spans) > 0 {
		pos = spans[0].start
	}
	for di, want := range counts {
		for want > 0 && si < len(spans) {
			sp := spans[si]
			if pos < sp.start {
				pos = sp.start
			}
			take := sp.end - pos
			if take > want {
				take = want
			}
			out[di] = append(out[di], pending{pos, pos + take})
			pos += take
			want -= take
			if pos >= sp.end {
				si++
			}
		}
	}
	return out
}

// shardRef resolves a unit's shard id to the index it searches and the
// coordinate transform its kernel applies: read-split units (-1) search
// the whole index with no transform; shard units search the slice index,
// shift positions by the slice origin, and keep only owned positions.
type shardRef struct {
	ix               *fmindex.Index
	sliceStart       int64
	ownStart, ownEnd int64
	filter           bool
}

func (p *Pipeline) shardRef(shard int) shardRef {
	if shard < 0 {
		return shardRef{ix: p.ix}
	}
	s := p.shards[shard]
	return shardRef{ix: s.Index, sliceStart: s.SliceStart,
		ownStart: s.OwnStart, ownEnd: s.OwnEnd, filter: true}
}

// mapOnDevice runs one device's assigned units on its queue, batching
// reads so the static buffers respect CL_DEVICE_MAX_MEM_ALLOC_SIZE. The
// device holds one shard's index buffer at a time — freed when the next
// unit needs a different shard, the embedded-memory model — so a device
// serving several shards pays one allocation per shard changeover. It
// implements the in-place recovery tier: transient faults retry on the
// same device with doubling simulated backoff, allocation failures halve
// the batch, and anything permanent stops the device and reports the
// unfinished units for failover.
func (p *Pipeline) mapOnDevice(ctx *cl.Context, queue *cl.Queue, units []unit, reads [][]byte, outFor func(int) [][]mapper.Mapping, opt mapper.Options, deadlineSec float64) (o outcome) {
	dev := queue.Device()
	var ixBuf *cl.Buffer
	curShard := -2 // no buffer resident yet
	defer func() {
		if ixBuf != nil {
			ixBuf.Free()
		}
	}()

	for ui, u := range units {
		ref := p.shardRef(u.shard)
		if u.shard != curShard {
			if ixBuf != nil {
				ixBuf.Free()
				ixBuf = nil
			}
			buf, err := p.allocWithRetry(ctx, queue, ref.ix.SizeBytes(), opt, &o)
			if err != nil {
				o.failed = true
				o.err = fmt.Errorf("index does not fit: %w", err)
				o.unmapped = append([]unit{}, units[ui:]...)
				return o
			}
			ixBuf = buf
			curShard = u.shard
		}
		out := outFor(u.shard)
		sp := u.span
		readLen := len(reads[sp.start])
		outPerRead := int64(opt.MaxLocations) * locationBytes
		inPerRead := int64((readLen + 3) / 4)
		batch := sp.end - sp.start
		if limit := dev.MaxAlloc / outPerRead; int64(batch) > limit {
			batch = int(limit)
		}
		if limit := dev.MaxAlloc / inPerRead; int64(batch) > limit {
			batch = int(limit)
		}
		if batch < 1 {
			o.failed = true
			o.err = fmt.Errorf("a single read's buffers exceed the allocation limit")
			o.unmapped = append([]unit{u}, units[ui+1:]...)
			return o
		}
		start := sp.start
		attempts := 0
		backoff := opt.RetryBackoffSimSec
		for start < sp.end {
			if deadlineSec > 0 {
				if busy, _ := queue.Finish(); busy >= deadlineSec {
					o.deadline = true
					o.unmapped = append([]unit{{u.shard, pending{start, sp.end}}}, units[ui+1:]...)
					return o
				}
			}
			end := start + batch
			if end > sp.end {
				end = sp.end
			}
			err := p.runBatch(ctx, queue, ref, reads[start:end], out[start:end], opt)
			if err == nil {
				start = end
				attempts = 0
				backoff = opt.RetryBackoffSimSec
				continue
			}
			if cl.IsWatchdogTimeout(err) {
				o.stats.WatchdogFires++
			}
			switch {
			case cl.IsAllocFailure(err) && end-start > 1:
				// OpenCL's static-allocation wall: halve the batch and go
				// around degraded rather than give the device up.
				batch = (end - start + 1) / 2
				o.stats.DegradedBatches++
				if t := p.tracer; t != nil {
					t.Instant(dev.Name, "batch-halved",
						trace.I64("batch", int64(batch)), trace.Str("error", err.Error()))
				}
			// In-place retries are pointless once the device's breaker has
			// opened (a failed half-open canary, or the failure score
			// crossing the threshold): the work fails over instead.
			case cl.IsTransient(err) && attempts < opt.Retries && dev.BreakerState() != cl.BreakerOpen:
				attempts++
				queue.ChargePenalty(backoff)
				o.stats.Retries++
				o.stats.BackoffSimSec += backoff
				backoff *= 2
				if t := p.tracer; t != nil {
					t.Instant(dev.Name, "retry",
						trace.I64("attempt", int64(attempts)), trace.Str("error", err.Error()))
				}
			default:
				o.failed = true
				o.err = err
				o.unmapped = append([]unit{{u.shard, pending{start, sp.end}}}, units[ui+1:]...)
				return o
			}
		}
	}
	return o
}

// allocWithRetry allocates size bytes on the queue's device, retrying
// injected transient failures with the same bounded, charged backoff as
// kernel launches. Structural failures — the buffer genuinely does not
// fit — repeat identically and are returned at once.
func (p *Pipeline) allocWithRetry(ctx *cl.Context, queue *cl.Queue, size int64, opt mapper.Options, o *outcome) (*cl.Buffer, error) {
	backoff := opt.RetryBackoffSimSec
	for attempts := 0; ; attempts++ {
		buf, err := ctx.AllocBuffer(queue.Device(), size)
		if err == nil {
			return buf, nil
		}
		if !cl.IsTransient(err) || attempts >= opt.Retries ||
			queue.Device().BreakerState() == cl.BreakerOpen {
			return nil, err
		}
		queue.ChargePenalty(backoff)
		o.stats.Retries++
		o.stats.BackoffSimSec += backoff
		backoff *= 2
		if t := p.tracer; t != nil {
			t.Instant(queue.Device().Name, "retry",
				trace.I64("attempt", int64(attempts+1)), trace.Str("error", err.Error()))
		}
	}
}

// runBatch allocates the batch buffers and enqueues the mapping kernel.
func (p *Pipeline) runBatch(ctx *cl.Context, queue *cl.Queue, ref shardRef, reads [][]byte, out [][]mapper.Mapping, opt mapper.Options) error {
	dev := queue.Device()
	readLen := len(reads[0])
	inBuf, err := ctx.AllocBuffer(dev, int64(len(reads))*int64((readLen+3)/4))
	if err != nil {
		return fmt.Errorf("read buffer: %w", err)
	}
	defer inBuf.Free()
	outBuf, err := ctx.AllocBuffer(dev, int64(len(reads))*int64(opt.MaxLocations)*locationBytes)
	if err != nil {
		return fmt.Errorf("output buffer: %w", err)
	}
	defer outBuf.Free()

	if opt.Prefilter == mapper.PrefilterGateKeeper {
		return p.runBatchPrefilter(ctx, queue, ref, reads, out, opt, inBuf.Size(), outBuf.Size())
	}
	kern := p.kernel(ref, reads, out, opt, inBuf.Size()+outBuf.Size())
	if p.itemHist != nil {
		kern = instrumentKernel(kern, p.itemHist)
	}
	if _, err := queue.EnqueueNDRange(kern, len(reads)); err != nil {
		return err
	}
	return nil
}

// candidateBytes is the device-side size of one candidate slot in the
// intermediate buffer between the prefilter and verification kernels
// (pos int32 + strand, padded).
const candidateBytes = 8

// runBatchPrefilter is runBatch's two-kernel variant for the optional
// pre-alignment filter stage: a seed+filter kernel writes the
// candidates that survive the shifted-Hamming test into fixed per-read
// slots of a device-resident intermediate buffer, then a verification
// kernel scans only the survivors. The intermediate buffer counts
// against the device allocation limit like every other static buffer
// (an oversized batch fails allocation and is halved by mapOnDevice),
// but charges no host-transfer bytes — it never crosses the bus. A
// faulted verification launch retries the whole batch; the prefilter
// kernel is deterministic and idempotent over its slots, so the retry
// recomputes identical survivors.
func (p *Pipeline) runBatchPrefilter(ctx *cl.Context, queue *cl.Queue, ref shardRef, reads [][]byte, out [][]mapper.Mapping, opt mapper.Options, inBytes, outBytes int64) error {
	dev := queue.Device()
	// Dedup can only shrink the candidate set, so 2 strands × maxCand
	// located candidates bound the survivors per read.
	slotCap := 4 * opt.MaxLocations
	candBuf, err := ctx.AllocBuffer(dev, int64(len(reads))*int64(slotCap)*candidateBytes)
	if err != nil {
		return fmt.Errorf("candidate buffer: %w", err)
	}
	defer candBuf.Free()
	backing := make([]mapper.Candidate, len(reads)*slotCap)
	candOut := make([][]mapper.Candidate, len(reads))
	for i := range candOut {
		candOut[i] = backing[i*slotCap : i*slotCap : (i+1)*slotCap]
	}
	pre, ver := p.prefilterKernels(ref, reads, candOut, out, opt, inBytes, outBytes)
	if p.itemHist != nil {
		pre = instrumentKernel(pre, p.itemHist)
		ver = instrumentKernel(ver, p.itemHist)
	}
	if _, err := queue.EnqueueNDRange(pre, len(reads)); err != nil {
		return err
	}
	if _, err := queue.EnqueueNDRange(ver, len(reads)); err != nil {
		return err
	}
	return nil
}

// instrumentKernel wraps a kernel so each work item's total charged op
// count is observed into h after the inner body runs. The wrapper keeps
// the kernel contract: it delegates every item to the already-vetted
// inner body and adds no captured mutable state (Histogram.Observe is
// internally synchronised, and op counts are integers so the histogram
// sum is order-independent — serial and parallel runs agree exactly).
func instrumentKernel(k *cl.Kernel, h *trace.Histogram) *cl.Kernel {
	inner := k.Body
	out := *k
	out.Body = func(wi *cl.WorkItem, state any) {
		inner(wi, state)
		h.Observe(float64(wi.Cost().Ops()))
	}
	return &out
}

// kernelState is one host worker's private memory for the mapping
// kernels: the reverse-complement buffer, the candidate and locate
// scratch slices, the verifier state and the pre-alignment filter
// scratch. Keeping them here — not captured by the kernel closure — is
// what lets the work-group scheduler run work items on several workers
// at once.
type kernelState struct {
	vs    mapper.VerifyState
	rev   []byte
	cands []mapper.Candidate
	locs  []int32
	win   []byte       // prefilter window scratch
	fs    filter.State // prefilter shifted-Hamming scratch
}

// gather runs seed selection and candidate location for both strands of
// read, appending candidates into st.cands (which the caller resets)
// and charging the selection and locate work to itemCost. On return
// st.rev holds the read's reverse complement. This is the shared first
// half of the combined kernel and the standalone prefilter kernel; it
// allocates only into kernel-state scratch, per the clvet contract its
// callers are held to.
func (st *kernelState) gather(selector seed.Selector, ref shardRef, read []byte,
	params seed.Params, maxCand int, locSteps float64, itemCost *cl.Cost) {
	for _, strand := range []byte{mapper.Forward, mapper.Reverse} {
		pattern := read
		if strand == mapper.Reverse {
			if cap(st.rev) < len(read) {
				st.rev = make([]byte, len(read))
			}
			st.rev = st.rev[:len(read)]
			dna.ReverseComplementInto(st.rev, read)
			pattern = st.rev
		}
		sel, err := selector.Select(ref.ix, pattern, params)
		if err != nil {
			// Static kernels cannot recover; surface as a launch
			// failure like a real kernel fault would.
			panic(err)
		}
		itemCost.FMSteps += int64(sel.FMSteps)
		itemCost.DPCells += int64(sel.DPCells)
		remaining := maxCand
		for _, s := range sel.Seeds {
			if remaining <= 0 {
				break
			}
			c := s.Count()
			if c == 0 {
				continue
			}
			if c > remaining {
				c = remaining
			}
			st.locs = ref.ix.Locate(s.Lo, s.Lo+c, 0, st.locs[:0])
			itemCost.LocateSteps += int64(float64(c) * (1 + locSteps))
			for _, pos := range st.locs {
				st.cands = append(st.cands, mapper.Candidate{
					Pos:    pos - int32(s.Start),
					Strand: strand,
				})
			}
			remaining -= c
		}
	}
}

// kernel builds the combined filtration+verification kernel over a batch
// against one shard's (or the whole) index. Each work item maps one read
// on both strands. Shard kernels verify in slice-local coordinates, then
// shift positions by the slice origin and drop mappings outside the
// shard's ownership range in place — the merge step only ever sees
// globally-coordinated, owner-filtered mappings.
func (p *Pipeline) kernel(ref shardRef, reads [][]byte, out [][]mapper.Mapping, opt mapper.Options, transferBytes int64) *cl.Kernel {
	maxErr := opt.MaxErrors
	params := seed.Params{
		Errors:      maxErr,
		MinSeedLen:  opt.MinSeedLen,
		MaxSeedFreq: opt.MaxSeedFreq,
	}
	if params.MinSeedLen <= 0 {
		params.MinSeedLen = DefaultMinSeedLen(len(reads[0]), maxErr)
	}
	// Cap on located candidates per strand: the verification slots are
	// static, so a read cannot fan out indefinitely (first-n policy).
	maxCand := 2 * opt.MaxLocations
	locSteps := ref.ix.LocateSteps()
	perItemBytes := transferBytes / int64(len(reads))

	return &cl.Kernel{
		Name:                p.name + "-map",
		PrivateBytesPerItem: int64(seed.DPPeakMem(len(reads[0]), maxErr, params.MinSeedLen, p.selector)),
		NewState: func() any {
			return &kernelState{rev: make([]byte, len(reads[0]))}
		},
		Body: func(wi *cl.WorkItem, state any) {
			st := state.(*kernelState)
			read := reads[wi.Global]
			st.cands = st.cands[:0]
			var itemCost cl.Cost
			st.gather(p.selector, ref, read, params, maxCand, locSteps, &itemCost)
			dd := mapper.DedupCandidates(st.cands, int32(maxErr))
			ms, vc := st.vs.Verify(ref.ix.Text(), read, dd, maxErr, opt.MaxLocations)
			if ref.filter {
				// Globalize and owner-filter in place: positions shift by a
				// constant so the sorted order Verify established survives,
				// and compaction writes only into slots already held.
				w := 0
				for _, m := range ms {
					g := int64(m.Pos) + ref.sliceStart
					if g < ref.ownStart || g >= ref.ownEnd {
						continue
					}
					m.Pos = int32(g)
					ms[w] = m
					w++
				}
				ms = ms[:w]
			}
			itemCost.VerifyWords += vc.VerifyWords
			itemCost.Items = 1
			itemCost.Bytes = perItemBytes
			itemCost.Candidates = int64(len(dd))
			itemCost.Verified = int64(len(ms))
			wi.Charge(itemCost)
			out[wi.Global] = mapper.Finalize(ms, opt.Best, opt.MaxLocations)
		},
	}
}

// prefilterKernels builds the two-kernel pre-alignment pipeline over a
// batch: the prefilter kernel repeats the combined kernel's seed
// selection, location and dedup, then runs the GateKeeper-style
// shifted-Hamming filter (internal/filter) over each candidate's
// verification window and writes the survivors into the read's fixed
// candidate slot; the verification kernel Myers-scans only the
// survivors. The filter accepts a superset of the verifiable windows,
// so the final mappings are byte-identical to the single-kernel path —
// the equivalence and oracle tests pin exactly that. Host-transfer
// bytes split across the pair: reads travel with the prefilter launch,
// mapping slots travel back with verification.
func (p *Pipeline) prefilterKernels(ref shardRef, reads [][]byte, candOut [][]mapper.Candidate, out [][]mapper.Mapping, opt mapper.Options, inBytes, outBytes int64) (pre, ver *cl.Kernel) {
	maxErr := opt.MaxErrors
	params := seed.Params{
		Errors:      maxErr,
		MinSeedLen:  opt.MinSeedLen,
		MaxSeedFreq: opt.MaxSeedFreq,
	}
	if params.MinSeedLen <= 0 {
		params.MinSeedLen = DefaultMinSeedLen(len(reads[0]), maxErr)
	}
	maxCand := 2 * opt.MaxLocations
	locSteps := ref.ix.LocateSteps()
	inPerItem := inBytes / int64(len(reads))
	outPerItem := outBytes / int64(len(reads))
	text := ref.ix.Text()

	pre = &cl.Kernel{
		Name:                p.name + "-prefilter",
		PrivateBytesPerItem: int64(seed.DPPeakMem(len(reads[0]), maxErr, params.MinSeedLen, p.selector)),
		NewState: func() any {
			return &kernelState{rev: make([]byte, len(reads[0]))}
		},
		Body: func(wi *cl.WorkItem, state any) {
			st := state.(*kernelState)
			read := reads[wi.Global]
			st.cands = st.cands[:0]
			var itemCost cl.Cost
			st.gather(p.selector, ref, read, params, maxCand, locSteps, &itemCost)
			dd := mapper.DedupCandidates(st.cands, int32(maxErr))
			n := len(read)
			slot := candOut[wi.Global][:cap(candOut[wi.Global])]
			kept := 0
			prepared := byte(0xFF) // no pattern prepared yet
			for _, c := range dd {
				// The window is exactly the one verification would scan;
				// windows too short to hold any match are dropped here the
				// way Verify itself would skip them.
				lo := int(c.Pos) - maxErr
				hi := int(c.Pos) + n + maxErr
				if lo < 0 {
					lo = 0
				}
				if hi > text.Len() {
					hi = text.Len()
				}
				if hi-lo < n-maxErr {
					itemCost.Filtered++
					continue
				}
				if c.Strand != prepared {
					// Candidates arrive sorted by strand, so each strand's
					// pattern bitvectors build at most once per read.
					pattern := read
					if c.Strand == mapper.Reverse {
						pattern = st.rev
					}
					itemCost.FilterWords += st.fs.Prepare(pattern, maxErr)
					prepared = c.Strand
				}
				if cap(st.win) < hi-lo {
					st.win = make([]byte, hi-lo)
				}
				win := text.SliceInto(st.win, lo, hi)
				ok, fw := st.fs.Accept(win)
				itemCost.FilterWords += fw
				if !ok {
					itemCost.Filtered++
					continue
				}
				slot[kept] = c
				kept++
			}
			candOut[wi.Global] = slot[:kept]
			itemCost.Items = 1
			itemCost.Bytes = inPerItem
			itemCost.Candidates = int64(len(dd))
			wi.Charge(itemCost)
		},
	}

	ver = &cl.Kernel{
		Name:                p.name + "-verify",
		PrivateBytesPerItem: int64(8 * len(reads[0])),
		NewState: func() any {
			return &kernelState{}
		},
		Body: func(wi *cl.WorkItem, state any) {
			st := state.(*kernelState)
			read := reads[wi.Global]
			cands := candOut[wi.Global]
			var itemCost cl.Cost
			ms, vc := st.vs.Verify(text, read, cands, maxErr, opt.MaxLocations)
			if ref.filter {
				// Globalize and owner-filter in place, as in the combined
				// kernel: a constant shift preserves Verify's sort order.
				w := 0
				for _, m := range ms {
					g := int64(m.Pos) + ref.sliceStart
					if g < ref.ownStart || g >= ref.ownEnd {
						continue
					}
					m.Pos = int32(g)
					ms[w] = m
					w++
				}
				ms = ms[:w]
			}
			itemCost.VerifyWords += vc.VerifyWords
			itemCost.Items = 1
			itemCost.Bytes = outPerItem
			itemCost.Verified = int64(len(ms))
			// Every slot candidate passed the filter and owns a full
			// window, so the ones Myers rejects are the filter's false
			// accepts.
			itemCost.FalseAccepts = int64(len(cands)) - vc.Matched
			wi.Charge(itemCost)
			out[wi.Global] = mapper.Finalize(ms, opt.Best, opt.MaxLocations)
		},
	}
	return pre, ver
}
