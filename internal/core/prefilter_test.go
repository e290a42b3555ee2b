package core

import (
	"strings"
	"testing"

	"repro/internal/cl"
	"repro/internal/eval"
	"repro/internal/mapper"
	"repro/internal/simulate"
	"repro/internal/trace"
)

// prefilterOpt returns the option pair (off, gatekeeper) for one test
// scenario. MinSeedLen is forced low so the random reference produces
// spurious candidate locations for the filter to reject — at the default
// Smin a 60 kb random genome yields almost no false seeds and the filter
// has nothing to do.
func prefilterOpt(maxErr, maxLoc int) (off, on mapper.Options) {
	off = mapper.Options{
		MaxErrors: maxErr, MaxLocations: maxLoc, MinSeedLen: 8,
		Prefilter: mapper.PrefilterOff,
	}
	on = off
	on.Prefilter = mapper.PrefilterGateKeeper
	return off, on
}

// TestPrefilterEquivalenceSingleDevice is the accuracy-regression gate at
// pipeline level: with the GateKeeper-style pre-alignment filter enabled
// the mapper must produce mappings byte-identical to the unfiltered run,
// in both host execution modes.
func TestPrefilterEquivalenceSingleDevice(t *testing.T) {
	t.Setenv("REPUTE_CL_FAULTS", "")
	ref, set := testWorld(t, 60_000, 120, simulate.ERR012100)
	offOpt, onOpt := prefilterOpt(3, 100)

	for _, mode := range []cl.ExecMode{cl.Serial, cl.Parallel} {
		pOff, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, Config{Exec: mode})
		if err != nil {
			t.Fatal(err)
		}
		off, err := pOff.Map(set.Reads, offOpt)
		if err != nil {
			t.Fatal(err)
		}
		pOn, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, Config{Exec: mode})
		if err != nil {
			t.Fatal(err)
		}
		on, err := pOn.Map(set.Reads, onOpt)
		if err != nil {
			t.Fatal(err)
		}
		sameMappings(t, off.Mappings, on.Mappings)
		if err := eval.PrefilterGate(off.Mappings, on.Mappings); err != nil {
			t.Errorf("mode %v: %v", mode, err)
		}
		if on.SimSeconds <= 0 || on.EnergyJ <= 0 {
			t.Errorf("mode %v: accounting empty: %v s, %v J", mode, on.SimSeconds, on.EnergyJ)
		}
	}
}

// TestPrefilterMetricsAndSpans checks the observability contract: a
// filtered run surfaces the prefilter counters and the per-kernel time
// split through the trace-derived metrics registry, and the rejected
// fraction is a real number in (0, 1].
func TestPrefilterMetricsAndSpans(t *testing.T) {
	t.Setenv("REPUTE_CL_FAULTS", "")
	ref, set := testWorld(t, 60_000, 120, simulate.ERR012100)
	_, onOpt := prefilterOpt(3, 100)

	rec := trace.NewRecorder()
	p, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, Config{Exec: cl.Serial, Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Map(set.Reads, onOpt); err != nil {
		t.Fatal(err)
	}
	if err := rec.Validate(); err != nil {
		t.Fatal(err)
	}
	m := rec.Metrics()
	rejected, ok := m.Counters["prefilter_rejected_total"]
	if !ok {
		t.Fatal("prefilter_rejected_total missing from filtered run")
	}
	if rejected <= 0 {
		t.Errorf("prefilter_rejected_total = %d, want > 0 (MinSeedLen=8 must produce junk candidates)", rejected)
	}
	if _, ok := m.Counters["prefilter_false_accepts_total"]; !ok {
		t.Error("prefilter_false_accepts_total missing from filtered run")
	}
	frac, ok := m.Gauges["prefilter_filtered_fraction"]
	if !ok || frac <= 0 || frac > 1 {
		t.Errorf("prefilter_filtered_fraction = %g (present=%t), want in (0,1]", frac, ok)
	}
	var preSec, verSec float64
	for k, v := range m.Gauges {
		switch {
		case strings.HasPrefix(k, "kernel_seconds/") && strings.HasSuffix(k, "-prefilter"):
			preSec += v
		case strings.HasPrefix(k, "kernel_seconds/") && strings.HasSuffix(k, "-verify"):
			verSec += v
		}
	}
	if preSec <= 0 || verSec <= 0 {
		t.Errorf("per-kernel time split missing: prefilter=%g verify=%g", preSec, verSec)
	}

	// The unfiltered pipeline must not leak any prefilter metric.
	rec2 := trace.NewRecorder()
	p2, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, Config{Exec: cl.Serial, Tracer: rec2})
	if err != nil {
		t.Fatal(err)
	}
	offOpt, _ := prefilterOpt(3, 100)
	if _, err := p2.Map(set.Reads, offOpt); err != nil {
		t.Fatal(err)
	}
	m2 := rec2.Metrics()
	if _, ok := m2.Counters["prefilter_rejected_total"]; ok {
		t.Error("prefilter_rejected_total present in unfiltered run")
	}
	if _, ok := m2.Gauges["prefilter_filtered_fraction"]; ok {
		t.Error("prefilter_filtered_fraction present in unfiltered run")
	}
}

// TestPrefilterEquivalenceSharded runs the gate across the second
// dispatch geometry: a sharded reference over multiple devices, where the
// filter must compose with shard-overlap ownership filtering.
func TestPrefilterEquivalenceSharded(t *testing.T) {
	t.Setenv("REPUTE_CL_FAULTS", "")
	ref, set := testWorld(t, 60_000, 100, simulate.ERR012100)
	offOpt, onOpt := prefilterOpt(3, 100)

	run := func(opt mapper.Options) [][]mapper.Mapping {
		t.Helper()
		p, err := NewSharded(makeShards(ref, 3, 256, 0), 256, cl.SystemOne().Devices, Config{Exec: cl.Serial})
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Map(set.Reads, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res.Mappings
	}
	off, on := run(offOpt), run(onOpt)
	sameMappings(t, off, on)
	if err := eval.PrefilterGate(off, on); err != nil {
		t.Error(err)
	}
}

// TestPrefilterCostLedger pins what each map-kernel stage charges. The
// prefilter only moves the launch boundary, so with it on the shared
// stages charge exactly what the fused kernel charges, in both dispatch
// geometries: the same seed, locate, candidate, verified and transfer
// tallies, one Items unit per launch (two launches per read instead of
// one), and no more verification work than the unfiltered run.
func TestPrefilterCostLedger(t *testing.T) {
	t.Setenv("REPUTE_CL_FAULTS", "")
	ref, set := testWorld(t, 60_000, 100, simulate.ERR012100)
	offOpt, onOpt := prefilterOpt(3, 100)

	geometries := []struct {
		name  string
		build func() (*Pipeline, error)
	}{
		{"read-split", func() (*Pipeline, error) {
			return New(ref, []*cl.Device{cl.SystemOneCPU()}, Config{Exec: cl.Serial})
		}},
		{"sharded", func() (*Pipeline, error) {
			return NewSharded(makeShards(ref, 3, 256, 0), 256, cl.SystemOne().Devices, Config{Exec: cl.Serial})
		}},
	}
	for _, g := range geometries {
		t.Run(g.name, func(t *testing.T) {
			cost := func(opt mapper.Options) cl.Cost {
				t.Helper()
				p, err := g.build()
				if err != nil {
					t.Fatal(err)
				}
				res, err := p.Map(set.Reads, opt)
				if err != nil {
					t.Fatal(err)
				}
				return res.Cost
			}
			off, on := cost(offOpt), cost(onOpt)
			same := []struct {
				field   string
				off, on int64
			}{
				{"FMSteps", off.FMSteps, on.FMSteps},
				{"DPCells", off.DPCells, on.DPCells},
				{"LocateSteps", off.LocateSteps, on.LocateSteps},
				{"Candidates", off.Candidates, on.Candidates},
				{"Verified", off.Verified, on.Verified},
				{"Bytes", off.Bytes, on.Bytes},
			}
			for _, f := range same {
				if f.off != f.on {
					t.Errorf("%s: off %d, on %d; want equal", f.field, f.off, f.on)
				}
			}
			if on.Items != 2*off.Items {
				t.Errorf("Items: on %d, want 2 x off %d", on.Items, off.Items)
			}
			if on.VerifyWords > off.VerifyWords {
				t.Errorf("VerifyWords: on %d exceeds off %d", on.VerifyWords, off.VerifyWords)
			}
			if off.FilterWords != 0 || off.Filtered != 0 || off.FalseAccepts != 0 {
				t.Errorf("unfiltered run charged filter tallies: %+v", off)
			}
			if on.FilterWords <= 0 || on.Filtered <= 0 {
				t.Errorf("filtered run charged no filter work: %+v", on)
			}
		})
	}
}

// TestPrefilterEquivalenceUnderFaults arms a fault plan (transient launch
// failure, allocation failure forcing a batch halving, permanent device
// loss) against the filtered pipeline: recovery replays and resliced
// candidate slots must not change what anything maps to.
func TestPrefilterEquivalenceUnderFaults(t *testing.T) {
	t.Setenv("REPUTE_CL_FAULTS", "")
	ref, set, mkDevs, maxLoc := faultWorld(t, 120)
	offOpt, onOpt := prefilterOpt(3, maxLoc)

	baselineP, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, Config{Exec: cl.Serial})
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := baselineP.Map(set.Reads, offOpt)
	if err != nil {
		t.Fatal(err)
	}

	devs := mkDevs()
	devs[0].InstallFaults(&cl.FaultPlan{
		FailEnqueues: map[int]cl.Code{2: cl.OutOfResources},
		FailAllocs:   map[int]cl.Code{4: cl.MemObjectAllocationFailure},
	})
	devs[1].InstallFaults(&cl.FaultPlan{
		FailEnqueues: map[int]cl.Code{3: cl.DeviceNotAvailable},
	})
	p, err := New(ref, devs, Config{Split: []float64{0.5, 0.5}, Exec: cl.Serial})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Map(set.Reads, onOpt)
	if err != nil {
		t.Fatal(err)
	}
	sameMappings(t, baseline.Mappings, res.Mappings)
	if err := eval.PrefilterGate(baseline.Mappings, res.Mappings); err != nil {
		t.Error(err)
	}
	if !res.Faults.Any() {
		t.Error("fault plan armed but no recovery accounted")
	}
}

// TestPrefilterUnknownValueRejected pins option validation: an
// unrecognised filter name is an error before any mapping work starts.
func TestPrefilterUnknownValueRejected(t *testing.T) {
	ref, set := testWorld(t, 20_000, 4, simulate.ERR012100)
	p, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Map(set.Reads, mapper.Options{MaxErrors: 2, MaxLocations: 10, Prefilter: "grim"})
	if err == nil || !strings.Contains(err.Error(), "prefilter") {
		t.Fatalf("unknown prefilter accepted: err=%v", err)
	}
}
