package core

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/cl"
	"repro/internal/dna"
	"repro/internal/mapper"
	"repro/internal/seed"
	"repro/internal/simulate"
	"repro/internal/trace"
)

// testWorld builds a small repetitive reference plus simulated reads.
func testWorld(t *testing.T, refLen, nReads int, prof simulate.ReadProfile) ([]byte, simulate.ReadSet) {
	t.Helper()
	ref := simulate.Reference(simulate.Chr21Like(refLen, 11))
	set, err := simulate.Reads(ref, nReads, prof, 12)
	if err != nil {
		t.Fatal(err)
	}
	return ref, set
}

func TestPipelineFindsPlantedReads(t *testing.T) {
	ref, set := testWorld(t, 60_000, 120, simulate.ERR012100)
	p, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, Config{Name: "REPUTE-test"})
	if err != nil {
		t.Fatal(err)
	}
	opt := mapper.Options{MaxErrors: 5, MaxLocations: 100}
	res, err := p.Map(set.Reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for i, ms := range res.Mappings {
		o := set.Origins[i]
		if int(o.Edits) > opt.MaxErrors {
			continue // too many errors to be findable; not counted
		}
		ok := false
		for _, m := range ms {
			if m.Strand == o.Strand && abs32(m.Pos-o.Pos) <= int32(opt.MaxErrors) {
				ok = true
				break
			}
		}
		if ok {
			found++
		} else {
			t.Logf("read %d origin %d%c edits %d not found (%d mappings)",
				i, o.Pos, o.Strand, o.Edits, len(ms))
		}
	}
	eligible := 0
	for _, o := range set.Origins {
		if int(o.Edits) <= opt.MaxErrors {
			eligible++
		}
	}
	if found < eligible*99/100 {
		t.Fatalf("sensitivity %d/%d below 99%%", found, eligible)
	}
	if res.SimSeconds <= 0 || res.EnergyJ <= 0 {
		t.Errorf("accounting empty: %v s, %v J", res.SimSeconds, res.EnergyJ)
	}
}

func abs32(x int32) int32 {
	if x < 0 {
		return -x
	}
	return x
}

func TestPipelineDistancesAreSound(t *testing.T) {
	// Every reported mapping must actually align at the claimed distance.
	ref, set := testWorld(t, 40_000, 60, simulate.SRR826460)
	p, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	opt := mapper.Options{MaxErrors: 6, MaxLocations: 50}
	res, err := p.Map(set.Reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	text := p.Index().Text()
	checked := 0
	for i, ms := range res.Mappings {
		for _, m := range ms {
			if m.Dist > uint8(opt.MaxErrors) {
				t.Fatalf("read %d mapping dist %d > %d", i, m.Dist, opt.MaxErrors)
			}
			pattern := set.Reads[i]
			if m.Strand == mapper.Reverse {
				pattern = dna.ReverseComplement(pattern)
			}
			lo := int(m.Pos) - 1
			if lo < 0 {
				lo = 0
			}
			hi := int(m.Pos) + len(pattern) + opt.MaxErrors
			if hi > text.Len() {
				hi = text.Len()
			}
			win := text.Slice(lo, hi)
			if _, ok := verifyOracle(pattern, win, int(m.Dist)); !ok {
				t.Fatalf("read %d claims pos %d dist %d strand %c but window does not align",
					i, m.Pos, m.Dist, m.Strand)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no mappings produced at all")
	}
}

// verifyOracle is a tiny DP check used only in tests.
func verifyOracle(p, w []byte, k int) (int, bool) {
	prev := make([]int, len(w)+1)
	cur := make([]int, len(w)+1)
	for i := 1; i <= len(p); i++ {
		cur[0] = i
		for j := 1; j <= len(w); j++ {
			cost := 1
			if p[i-1] == w[j-1] {
				cost = 0
			}
			best := prev[j-1] + cost
			if prev[j]+1 < best {
				best = prev[j] + 1
			}
			if cur[j-1]+1 < best {
				best = cur[j-1] + 1
			}
			cur[j] = best
		}
		prev, cur = cur, prev
	}
	bestD := len(p) + len(w)
	for j := 1; j <= len(w); j++ {
		if prev[j] < bestD {
			bestD = prev[j]
		}
	}
	return bestD, bestD <= k
}

func TestPipelineMultiDeviceSplitAgreesWithSingle(t *testing.T) {
	ref, set := testWorld(t, 30_000, 80, simulate.ERR012100)
	opt := mapper.Options{MaxErrors: 4, MaxLocations: 50}

	single, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	resS, err := single.Map(set.Reads, opt)
	if err != nil {
		t.Fatal(err)
	}

	sys := cl.SystemOne()
	multi, err := New(ref, sys.Devices, Config{Split: []float64{0.5, 0.25, 0.25}})
	if err != nil {
		t.Fatal(err)
	}
	resM, err := multi.Map(set.Reads, opt)
	if err != nil {
		t.Fatal(err)
	}

	for i := range resS.Mappings {
		a, b := resS.Mappings[i], resM.Mappings[i]
		if len(a) != len(b) {
			t.Fatalf("read %d: %d vs %d mappings across splits", i, len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("read %d mapping %d differs: %+v vs %+v", i, j, a[j], b[j])
			}
		}
	}
	if len(resM.DeviceSeconds) != 3 {
		t.Errorf("multi-device run used %d devices want 3", len(resM.DeviceSeconds))
	}
	// Makespan must be the max device time, not the sum.
	var sum, max float64
	for _, s := range resM.DeviceSeconds {
		sum += s
		if s > max {
			max = s
		}
	}
	if resM.SimSeconds != max || (len(resM.DeviceSeconds) > 1 && resM.SimSeconds >= sum) {
		t.Errorf("SimSeconds %v, max %v, sum %v", resM.SimSeconds, max, sum)
	}
}

func TestPipelineBatchingUnderTinyAllocLimit(t *testing.T) {
	ref, set := testWorld(t, 20_000, 40, simulate.ERR012100)
	big, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, pf := range []string{mapper.PrefilterOff, mapper.PrefilterGateKeeper} {
		t.Run(pf, func(t *testing.T) {
			opt := mapper.Options{MaxErrors: 3, MaxLocations: 1000, Prefilter: pf}
			resWant, err := big.Map(set.Reads, opt)
			if err != nil {
				t.Fatal(err)
			}
			// A device whose MaxAlloc holds the index but only a dozen
			// reads' output slots forces many batches; results must not
			// change.
			tinyDev := cl.SystemOneCPU()
			tinyDev.MaxAlloc = big.Index().SizeBytes() + 4096
			rec := trace.NewRecorder()
			tiny, err := NewFromIndex(big.Index(), []*cl.Device{tinyDev}, Config{Tracer: rec})
			if err != nil {
				t.Fatal(err)
			}
			resGot, err := tiny.Map(set.Reads, opt)
			if err != nil {
				t.Fatal(err)
			}
			for i := range resWant.Mappings {
				if len(resWant.Mappings[i]) != len(resGot.Mappings[i]) {
					t.Fatalf("read %d: batched run differs", i)
				}
			}
			// Batch sizing counts every static buffer the batch allocates
			// (the prefilter's candidate slots included), so a fault-free
			// run never fails an allocation and never halves a batch.
			if cl.EnvFaultPlan() != nil {
				return // an armed chaos plan injects faults on purpose
			}
			if resGot.Faults.Any() {
				t.Errorf("fault-free batched run reports faults: %+v", resGot.Faults)
			}
			if n := countInstants(rec, "batch-halved"); n != 0 {
				t.Errorf("fault-free batched run halved %d batches", n)
			}
		})
	}
}

func TestPipelineIndexTooBigForDevice(t *testing.T) {
	ref, set := testWorld(t, 20_000, 5, simulate.ERR012100)
	dev := cl.GTX590(0)
	dev.GlobalMem = 1 << 10 // absurd: index cannot fit
	dev.MaxAlloc = 1 << 8
	p, err := New(ref, []*cl.Device{dev}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Map(set.Reads, mapper.Options{MaxErrors: 3}); err == nil {
		t.Error("oversized index accepted on tiny device")
	} else if !strings.Contains(err.Error(), "index does not fit") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestPipelineInfeasibleSminSurfacesError(t *testing.T) {
	ref, set := testWorld(t, 20_000, 5, simulate.ERR012100)
	p, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Smin 30 with 4 seeds needs 120 bases; reads are 100.
	_, err = p.Map(set.Reads, mapper.Options{MaxErrors: 3, MinSeedLen: 30})
	if err == nil {
		t.Error("infeasible Smin accepted")
	}
}

func TestPipelineValidatesInputs(t *testing.T) {
	ref, _ := testWorld(t, 20_000, 1, simulate.ERR012100)
	if _, err := New(nil, []*cl.Device{cl.SystemOneCPU()}, Config{}); err == nil {
		t.Error("empty reference accepted")
	}
	if _, err := New(ref, nil, Config{}); err == nil {
		t.Error("no devices accepted")
	}
	if _, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, Config{Split: []float64{1, 2}}); err == nil {
		t.Error("mismatched split accepted")
	}
	p, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Map([][]byte{{}}, mapper.Options{MaxErrors: 1}); err == nil {
		t.Error("empty read accepted")
	}
	if _, err := p.Map([][]byte{{9, 9}}, mapper.Options{MaxErrors: 1}); err == nil {
		t.Error("invalid codes accepted")
	}
}

func TestCORALSelectorPipeline(t *testing.T) {
	ref, set := testWorld(t, 40_000, 60, simulate.ERR012100)
	rep, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, Config{Name: "REPUTE"})
	if err != nil {
		t.Fatal(err)
	}
	cor, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, Config{Name: "CORAL", Selector: seed.CORAL{}})
	if err != nil {
		t.Fatal(err)
	}
	opt := mapper.Options{MaxErrors: 4, MaxLocations: 100}
	r1, err := rep.Map(set.Reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := cor.Map(set.Reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	// The heuristic cannot beat the DP optimum on filtration work:
	// CORAL verifies at least as many windows in aggregate.
	if r2.Cost.VerifyWords < r1.Cost.VerifyWords {
		t.Errorf("CORAL verify words %d < REPUTE %d — heuristic beating the optimum",
			r2.Cost.VerifyWords, r1.Cost.VerifyWords)
	}
	if r1.MappedReads() == 0 || r2.MappedReads() == 0 {
		t.Error("a pipeline mapped nothing")
	}
}

func TestSampledIndexMapsIdentically(t *testing.T) {
	// The §IV memory trade-off must not change results: pipelines over a
	// full-SA index and a sampled one report identical mappings.
	ref, set := testWorld(t, 30_000, 50, simulate.ERR012100)
	opt := mapper.Options{MaxErrors: 4, MaxLocations: 100}
	full, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, Config{SASampleRate: 32})
	if err != nil {
		t.Fatal(err)
	}
	rf, err := full.Map(set.Reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := sampled.Map(set.Reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rf.Mappings {
		if len(rf.Mappings[i]) != len(rs.Mappings[i]) {
			t.Fatalf("read %d: %d vs %d mappings", i, len(rf.Mappings[i]), len(rs.Mappings[i]))
		}
		for j := range rf.Mappings[i] {
			if rf.Mappings[i][j] != rs.Mappings[i][j] {
				t.Fatalf("read %d mapping %d differs: %+v vs %+v",
					i, j, rf.Mappings[i][j], rs.Mappings[i][j])
			}
		}
	}
	if rs.Cost.LocateSteps <= rf.Cost.LocateSteps {
		t.Errorf("sampled locate steps %d not above full %d",
			rs.Cost.LocateSteps, rf.Cost.LocateSteps)
	}
}

func TestCigarForReportedMappings(t *testing.T) {
	ref, set := testWorld(t, 30_000, 40, simulate.SRR826460)
	p, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	opt := mapper.Options{MaxErrors: 5, MaxLocations: 20}
	res, err := p.Map(set.Reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for i, ms := range res.Mappings {
		for _, m := range ms {
			c, err := p.CigarFor(set.Reads[i], m, opt.MaxErrors)
			if err != nil {
				t.Fatalf("read %d mapping %+v: %v", i, m, err)
			}
			if c.ReadLen() != len(set.Reads[i]) {
				t.Fatalf("read %d: cigar %s consumes %d bases want %d",
					i, c, c.ReadLen(), len(set.Reads[i]))
			}
			pattern := set.Reads[i]
			if m.Strand == mapper.Reverse {
				pattern = dna.ReverseComplement(pattern)
			}
			seg := p.Index().Text().Slice(int(m.Pos), int(m.Pos)+c.RefLen())
			if edits := c.Edits(pattern, seg); edits > int(m.Dist) {
				t.Fatalf("read %d: cigar implies %d edits, mapping says %d", i, edits, m.Dist)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("nothing mapped")
	}
	// Out-of-range positions must error, not panic.
	if _, err := p.CigarFor(set.Reads[0], mapper.Mapping{Pos: 1 << 30}, 3); err == nil {
		t.Error("absurd position accepted")
	}
}

func TestDefaultMinSeedLen(t *testing.T) {
	for _, tc := range []struct{ n, e, want int }{
		{100, 3, 14}, {100, 5, 9}, {100, 7, 8}, {150, 5, 16}, {150, 7, 13}, {10, 9, 1},
	} {
		if got := DefaultMinSeedLen(tc.n, tc.e); got != tc.want {
			t.Errorf("DefaultMinSeedLen(%d,%d) = %d want %d", tc.n, tc.e, got, tc.want)
		}
	}
}

func TestSharesSumToTotal(t *testing.T) {
	ref, _ := testWorld(t, 20_000, 1, simulate.ERR012100)
	sys := cl.SystemOne()
	p, err := New(ref, sys.Devices, Config{Split: []float64{0.82, 0.09, 0.09}})
	if err != nil {
		t.Fatal(err)
	}
	for _, total := range []int{0, 1, 7, 1000, 999_999} {
		counts := p.shares(total)
		sum := 0
		for _, c := range counts {
			if c < 0 {
				t.Fatalf("negative share %v", counts)
			}
			sum += c
		}
		if sum != total {
			t.Fatalf("shares of %d sum to %d: %v", total, sum, counts)
		}
	}
}

func TestSharesRemainderGoesToLargestShare(t *testing.T) {
	ref, _ := testWorld(t, 20_000, 1, simulate.ERR012100)
	sys := cl.SystemOne()
	for _, tc := range []struct {
		split []float64
		total int
		want  []int
		// eligible, when set, runs the failover split among the
		// surviving devices instead of the initial one.
		eligible []bool
	}{
		// A nil or all-zero split puts everything on device 0.
		{nil, 5, []int{5, 0, 0}, nil},
		{[]float64{0, 0, 0}, 5, []int{5, 0, 0}, nil},
		// A zero-share device must receive no reads — the remainder
		// belongs to the largest share, not unconditionally to device 0.
		{[]float64{0, 1, 0}, 7, []int{0, 7, 0}, nil},
		{[]float64{0, 0.5, 0.5}, 5, []int{0, 3, 2}, nil},
		// Negative shares are clamped and never absorb the remainder.
		{[]float64{-1, 1, 0}, 3, []int{0, 3, 0}, nil},
		// Largest-share device takes the rounding leftovers.
		{[]float64{0.2, 0.6, 0.2}, 7, []int{1, 5, 1}, nil},
		{[]float64{1, 0, 0}, 4, []int{4, 0, 0}, nil},
		// Failover keeps the survivors' configured proportions.
		{[]float64{0.2, 0.6, 0.2}, 7, []int{4, 0, 3}, []bool{true, false, true}},
		// Survivors that all have zero share spread evenly; the remainder
		// goes to the first of them.
		{[]float64{0, 1, 0}, 7, []int{4, 0, 3}, []bool{true, false, true}},
		{nil, 5, []int{0, 3, 2}, []bool{false, true, true}},
		// Only one device eligible takes everything, whatever its share.
		{[]float64{0.2, 0.6, 0.2}, 7, []int{0, 0, 7}, []bool{false, false, true}},
		{[]float64{0, 1, 0}, 7, []int{7, 0, 0}, []bool{true, false, false}},
	} {
		p, err := New(ref, sys.Devices, Config{Split: tc.split})
		if err != nil {
			t.Fatal(err)
		}
		counts := p.shares(tc.total)
		if tc.eligible != nil {
			counts = p.sharesAmong(tc.total, tc.eligible)
		}
		if !slices.Equal(counts, tc.want) {
			t.Errorf("shares(%v, %d, eligible %v) = %v want %v", tc.split, tc.total, tc.eligible, counts, tc.want)
		}
	}
	// No eligible device: no split at all.
	p, err := New(ref, sys.Devices, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if counts := p.sharesAmong(5, []bool{false, false, false}); counts != nil {
		t.Errorf("sharesAmong with no eligible device = %v, want nil", counts)
	}
}
