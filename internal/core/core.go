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
	"math"
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

// shares normalises the configured split into per-device read counts. A
// nil or all-zero split puts every read on device 0.
func (p *Pipeline) shares(total int) []int {
	if counts := largestRemainder(total, p.split); counts != nil {
		return counts
	}
	counts := make([]int, len(p.devices))
	counts[0] = total
	return counts
}

// largestRemainder splits total across the slots in proportion to their
// positive weights (non-positive weights get nothing). The rounding
// remainder goes to the largest weight — never to a zero-weight slot.
// Returns nil when no weight is positive.
func largestRemainder(total int, weights []float64) []int {
	sum := 0.0
	for _, w := range weights {
		if w > 0 {
			sum += w
		}
	}
	if sum == 0 {
		return nil
	}
	counts := make([]int, len(weights))
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
	for i, ok := range eligible {
		if ok && p.split != nil {
			weights[i] = p.split[i]
		}
	}
	if counts := largestRemainder(total, weights); counts != nil {
		return counts
	}
	for i, ok := range eligible {
		if ok {
			weights[i] = 1
		}
	}
	return largestRemainder(total, weights)
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
// coordinate transform its kernel applies: shard units search the slice
// index, shift positions by the slice origin, and keep only owned
// positions; read-split units (-1) search the whole index, which owns
// every position it can report, so the transform is the identity.
type shardRef struct {
	ix               *fmindex.Index
	sliceStart       int64
	ownStart, ownEnd int64
}

func (p *Pipeline) shardRef(shard int) shardRef {
	if shard < 0 {
		return shardRef{ix: p.ix, ownEnd: int64(p.ix.Len())}
	}
	s := p.shards[shard]
	return shardRef{ix: s.Index, sliceStart: s.SliceStart,
		ownStart: s.OwnStart, ownEnd: s.OwnEnd}
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
		lay := newBufLayout(len(reads[sp.start]), opt)
		batch := int(min(int64(sp.end-sp.start), lay.maxBatch(dev.MaxAlloc)))
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
			err := p.runBatch(ctx, queue, ref, lay, reads[start:end], out[start:end], opt)
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

// candidateBytes is the device-side size of one candidate slot in the
// intermediate buffer between the prefilter and verification kernels
// (pos int32 + strand, padded).
const candidateBytes = 8

// maxCandidates caps the candidates located per strand: the
// verification slots are static, so a read cannot fan out indefinitely
// (first-n policy).
func maxCandidates(opt mapper.Options) int { return 2 * opt.MaxLocations }

// bufLayout is the per-read static-buffer layout of a map batch: the
// packed read, its first-n mapping slots and, when the prefilter splits
// the kernel, its candidate slots. mapOnDevice sizes batches from it and
// runBatch allocates from it, so every buffer a batch needs counts
// against the allocation limit before the batch is cut.
type bufLayout struct {
	read, slots int64 // bytes per read
	candSlots   int   // candidate slots per read; 0 without the prefilter
}

func newBufLayout(readLen int, opt mapper.Options) bufLayout {
	l := bufLayout{
		read:  int64((readLen + 3) / 4),
		slots: int64(opt.MaxLocations) * locationBytes,
	}
	if opt.Prefilter == mapper.PrefilterGateKeeper {
		// Dedup can only shrink the candidate set, so both strands'
		// located candidates bound the survivors per read.
		l.candSlots = 2 * maxCandidates(opt)
	}
	return l
}

// bufSpec is one static buffer of a batch: its name and bytes per read.
type bufSpec struct {
	name    string
	perRead int64
}

// buffers lists the batch's static buffers in allocation order.
func (l bufLayout) buffers() []bufSpec {
	bs := []bufSpec{{"read", l.read}, {"output", l.slots}}
	if l.candSlots > 0 {
		bs = append(bs, bufSpec{"candidate", int64(l.candSlots) * candidateBytes})
	}
	return bs
}

// maxBatch returns the most reads whose every buffer fits in limit
// bytes, the OpenCL 1.2 per-allocation cap.
func (l bufLayout) maxBatch(limit int64) int64 {
	n := int64(math.MaxInt64)
	for _, b := range l.buffers() {
		n = min(n, limit/b.perRead)
	}
	return n
}

// runBatch allocates the batch's static buffers from its layout, then
// launches its map kernels in order. The candidate buffer counts against
// the device allocation limit like every other static buffer but
// charges no host-transfer bytes: it never crosses the bus. A faulted
// verification launch retries the whole batch; the prefilter kernel is
// deterministic and idempotent over its slots, so the retry recomputes
// identical survivors.
func (p *Pipeline) runBatch(ctx *cl.Context, queue *cl.Queue, ref shardRef, lay bufLayout, reads [][]byte, out [][]mapper.Mapping, opt mapper.Options) error {
	for _, b := range lay.buffers() {
		buf, err := ctx.AllocBuffer(queue.Device(), int64(len(reads))*b.perRead)
		if err != nil {
			return fmt.Errorf("%s buffer: %w", b.name, err)
		}
		defer buf.Free()
	}
	for _, kern := range p.mapKernels(ref, lay, reads, out, opt) {
		if p.itemHist != nil {
			kern = instrumentKernel(kern, p.itemHist)
		}
		if _, err := queue.EnqueueNDRange(kern, len(reads)); err != nil {
			return err
		}
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

// mapBatch is the per-batch setup every map-kernel stage reads: the
// index, its text and coordinate transform, the seed parameters and
// the candidate caps. Kernel bodies capture it read-only.
type mapBatch struct {
	ref      shardRef
	text     dna.PackedSeq
	selector seed.Selector
	params   seed.Params
	maxErr   int
	maxCand  int
	locSteps float64
	opt      mapper.Options
}

// mapKernels builds a batch's map kernels from one stage list:
//
//	gather → dedup → [filter] → verify → owner-filter → finalize
//
// Without the prefilter every stage runs in one fused <name>-map kernel.
// With it the launch boundary falls after filter: <name>-prefilter runs
// the front half and the GateKeeper-style filter, parking survivors in
// the read's candidate slot, and <name>-verify runs the back half over
// them. The filter accepts a superset of the verifiable windows, so both
// shapes produce byte-identical mappings. Host-transfer bytes follow the
// buffers: reads travel with the first launch, mapping slots back with
// the last.
func (p *Pipeline) mapKernels(ref shardRef, lay bufLayout, reads [][]byte, out [][]mapper.Mapping, opt mapper.Options) []*cl.Kernel {
	readLen := len(reads[0])
	b := &mapBatch{
		ref:      ref,
		text:     ref.ix.Text(),
		selector: p.selector,
		params: seed.Params{
			Errors:      opt.MaxErrors,
			MinSeedLen:  opt.MinSeedLen,
			MaxSeedFreq: opt.MaxSeedFreq,
		},
		maxErr:   opt.MaxErrors,
		maxCand:  maxCandidates(opt),
		locSteps: ref.ix.LocateSteps(),
		opt:      opt,
	}
	if b.params.MinSeedLen <= 0 {
		b.params.MinSeedLen = DefaultMinSeedLen(readLen, opt.MaxErrors)
	}
	seedBytes := int64(seed.DPPeakMem(readLen, opt.MaxErrors, b.params.MinSeedLen, p.selector))
	newState := func() any {
		return &kernelState{rev: make([]byte, readLen)}
	}

	if lay.candSlots == 0 {
		return []*cl.Kernel{{
			Name:                p.name + "-map",
			PrivateBytesPerItem: seedBytes,
			NewState:            newState,
			Body: func(wi *cl.WorkItem, state any) {
				st := state.(*kernelState)
				read := reads[wi.Global]
				c := cl.Cost{Items: 1, Bytes: lay.read + lay.slots}
				cands := st.front(b, read, &c)
				out[wi.Global] = st.back(b, read, cands, false, &c)
				wi.Charge(c)
			},
		}}
	}

	backing := make([]mapper.Candidate, len(reads)*lay.candSlots)
	slots := make([][]mapper.Candidate, len(reads))
	for i := range slots {
		slots[i] = backing[i*lay.candSlots : i*lay.candSlots : (i+1)*lay.candSlots]
	}
	return []*cl.Kernel{{
		Name:                p.name + "-prefilter",
		PrivateBytesPerItem: seedBytes,
		NewState:            newState,
		Body: func(wi *cl.WorkItem, state any) {
			st := state.(*kernelState)
			read := reads[wi.Global]
			c := cl.Cost{Items: 1, Bytes: lay.read}
			cands := st.front(b, read, &c)
			slots[wi.Global] = st.filter(b, read, cands, slots[wi.Global][:lay.candSlots], &c)
			wi.Charge(c)
		},
	}, {
		Name:                p.name + "-verify",
		PrivateBytesPerItem: int64(8 * readLen),
		NewState:            newState,
		Body: func(wi *cl.WorkItem, state any) {
			st := state.(*kernelState)
			c := cl.Cost{Items: 1, Bytes: lay.slots}
			out[wi.Global] = st.back(b, reads[wi.Global], slots[wi.Global], true, &c)
			wi.Charge(c)
		},
	}}
}

// kernelState is one host worker's private memory for the map kernels:
// the reverse-complement buffer, the candidate and locate scratch
// slices, the verifier state and the prefilter scratch. Keeping them
// here — not captured by the kernel closure — is what lets the
// work-group scheduler run work items on several workers at once. Its
// stage methods allocate only into this scratch, per the clvet contract
// the kernel bodies that call them are held to.
type kernelState struct {
	vs    mapper.VerifyState
	rev   []byte
	cands []mapper.Candidate
	locs  []int32
	win   []byte       // prefilter window scratch
	fs    filter.State // prefilter shifted-Hamming scratch
}

// front is the stages' front half, gather and dedup: seed selection and
// candidate location on both strands of read, then candidate dedup. It
// charges the selection, locate and candidate tallies to c. On return
// st.rev holds the read's reverse complement.
func (st *kernelState) front(b *mapBatch, read []byte, c *cl.Cost) []mapper.Candidate {
	st.cands = st.cands[:0]
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
		sel, err := b.selector.Select(b.ref.ix, pattern, b.params)
		if err != nil {
			// Static kernels cannot recover; surface as a launch
			// failure like a real kernel fault would.
			panic(err)
		}
		c.FMSteps += int64(sel.FMSteps)
		c.DPCells += int64(sel.DPCells)
		remaining := b.maxCand
		for _, s := range sel.Seeds {
			if remaining <= 0 {
				break
			}
			n := s.Count()
			if n == 0 {
				continue
			}
			if n > remaining {
				n = remaining
			}
			st.locs = b.ref.ix.Locate(s.Lo, s.Lo+n, 0, st.locs[:0])
			c.LocateSteps += int64(float64(n) * (1 + b.locSteps))
			for _, pos := range st.locs {
				st.cands = append(st.cands, mapper.Candidate{
					Pos:    pos - int32(s.Start),
					Strand: strand,
				})
			}
			remaining -= n
		}
	}
	dd := mapper.DedupCandidates(st.cands, int32(b.maxErr))
	c.Candidates = int64(len(dd))
	return dd
}

// filter is the optional stage between the halves: it runs the
// shifted-Hamming test (internal/filter) over each candidate's
// verification window and returns the survivors, written into slot. It
// charges the filter work and rejections to c.
func (st *kernelState) filter(b *mapBatch, read []byte, cands, slot []mapper.Candidate, c *cl.Cost) []mapper.Candidate {
	text := b.text
	n := len(read)
	kept := 0
	prepared := byte(0xFF) // no pattern prepared yet
	for _, cand := range cands {
		// The window is exactly the one verification would scan; windows
		// too short to hold any match are dropped here the way Verify
		// itself would skip them.
		lo := int(cand.Pos) - b.maxErr
		hi := int(cand.Pos) + n + b.maxErr
		if lo < 0 {
			lo = 0
		}
		if hi > text.Len() {
			hi = text.Len()
		}
		if hi-lo < n-b.maxErr {
			c.Filtered++
			continue
		}
		if cand.Strand != prepared {
			// Candidates arrive sorted by strand, so each strand's
			// pattern bitvectors build at most once per read.
			pattern := read
			if cand.Strand == mapper.Reverse {
				pattern = st.rev
			}
			c.FilterWords += st.fs.Prepare(pattern, b.maxErr)
			prepared = cand.Strand
		}
		if cap(st.win) < hi-lo {
			st.win = make([]byte, hi-lo)
		}
		ok, fw := st.fs.Accept(text.SliceInto(st.win, lo, hi))
		c.FilterWords += fw
		if !ok {
			c.Filtered++
			continue
		}
		slot[kept] = cand
		kept++
	}
	return slot[:kept]
}

// back is the stages' back half: Myers verification of cands, then
// globalize and owner-filter, then Finalize. Positions shift by a
// constant, so the sorted order Verify established survives, and the
// owner-filter compacts in place, writing only into slots already held.
// It charges the verification tallies to c; when cands are filter
// survivors (each owning a full window), the ones Myers rejects are the
// filter's false accepts.
func (st *kernelState) back(b *mapBatch, read []byte, cands []mapper.Candidate, filtered bool, c *cl.Cost) []mapper.Mapping {
	ms, vc := st.vs.Verify(b.text, read, cands, b.maxErr, b.opt.MaxLocations)
	w := 0
	for _, m := range ms {
		g := int64(m.Pos) + b.ref.sliceStart
		if g < b.ref.ownStart || g >= b.ref.ownEnd {
			continue
		}
		m.Pos = int32(g)
		ms[w] = m
		w++
	}
	ms = ms[:w]
	c.VerifyWords += vc.VerifyWords
	c.Verified = int64(len(ms))
	if filtered {
		c.FalseAccepts = int64(len(cands)) - vc.Matched
	}
	return mapper.Finalize(ms, b.opt.Best, b.opt.MaxLocations)
}
