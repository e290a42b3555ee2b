// Package gem reimplements the filtration core of the GEM mapper
// (Marco-Sola et al., Nature Methods 2012): adaptive region filtration —
// scanning the read and cutting a seed as soon as its FM-index interval
// shrinks below a threshold, so seed lengths adapt to local repetitiveness
// — followed by Myers verification and best-stratum reporting.
package gem

import (
	"fmt"

	"repro/internal/cl"
	"repro/internal/dna"
	"repro/internal/fmindex"
	"repro/internal/mapper"
)

// regionThreshold is the interval size at which an adaptive region is cut
// (GEM's region granularity).
const regionThreshold = 20

// bestStratumCap bounds the co-optimal locations reported per read,
// modelling GEM's default best+subdominant output limits.
const bestStratumCap = 5

// regionMaxHits discards regions that stayed too frequent even at full
// length (reads inside unresolvable repeats): GEM treats such regions as
// non-filtering rather than flooding verification with their hits.
const regionMaxHits = 256

// Mapper is a GEM-style best-mapper bound to a reference.
type Mapper struct {
	ix  *fmindex.Index
	dev *cl.Device
}

// New creates the mapper on a host device.
func New(ref []byte, dev *cl.Device) (*Mapper, error) {
	if len(ref) == 0 {
		return nil, fmt.Errorf("gem: empty reference")
	}
	return &Mapper{ix: fmindex.Build(ref, fmindex.Options{}), dev: dev}, nil
}

// Name implements mapper.Mapper.
func (m *Mapper) Name() string { return "GEM" }

type region struct {
	start, end int
	lo, hi     int
}

// regionsOf cuts the pattern into adaptive regions right-to-left (the
// FM index extends leftwards): each region grows until its interval is
// at most regionThreshold or empties.
func (m *Mapper) regionsOf(pattern []byte, itemCost *cl.Cost) []region {
	var regs []region
	end := len(pattern)
	for end > 0 {
		lo, hi := m.ix.Start()
		start := end
		lastLo, lastHi := lo, hi
		for start > 0 {
			nlo, nhi := m.ix.ExtendLeft(pattern[start-1], lo, hi)
			itemCost.FMSteps++
			start--
			if nlo >= nhi {
				lastLo, lastHi = nlo, nhi
				break
			}
			lo, hi = nlo, nhi
			lastLo, lastHi = lo, hi
			if hi-lo <= regionThreshold {
				break
			}
		}
		regs = append(regs, region{start: start, end: end, lo: lastLo, hi: lastHi})
		end = start
	}
	return regs
}

// Map implements mapper.Mapper.
func (m *Mapper) Map(reads [][]byte, opt mapper.Options) (*mapper.Result, error) {
	opt = opt.WithDefaults()
	if err := mapper.ValidateReads(reads, opt); err != nil {
		return nil, err
	}
	res := &mapper.Result{
		Mappings:      make([][]mapper.Mapping, len(reads)),
		DeviceSeconds: map[string]float64{},
	}
	if len(reads) == 0 {
		return res, nil
	}
	locSteps := m.ix.LocateSteps()
	maxCand := 2 * opt.MaxLocations

	// Per-worker private scratch (cl.Kernel.NewState contract): nothing
	// mutable is captured by the kernel closure.
	type kernelState struct {
		vs    mapper.VerifyState
		rev   []byte
		cands []mapper.Candidate
		locs  []int32
	}
	newState := func() any { return &kernelState{rev: make([]byte, len(reads[0]))} }
	body := func(wi *cl.WorkItem, state any) {
		st := state.(*kernelState)
		read := reads[wi.Global]
		var itemCost cl.Cost
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
			regs := m.regionsOf(pattern, &itemCost)
			remaining := maxCand
			for _, r := range regs {
				c := r.hi - r.lo
				if c <= 0 || c > regionMaxHits || remaining <= 0 {
					continue
				}
				if c > remaining {
					c = remaining
				}
				st.locs = m.ix.Locate(r.lo, r.lo+c, 0, st.locs[:0])
				itemCost.LocateSteps += int64(float64(c) * (1 + locSteps))
				for _, p := range st.locs {
					st.cands = append(st.cands, mapper.Candidate{Pos: p - int32(r.start), Strand: strand})
				}
				remaining -= c
			}
		}
		dd := mapper.DedupCandidates(st.cands, int32(opt.MaxErrors))
		ms, vc := st.vs.Verify(m.ix.Text(), read, dd, opt.MaxErrors, 0)
		itemCost.VerifyWords += vc.VerifyWords
		itemCost.Items = 1
		wi.Charge(itemCost)
		// GEM reports the best stratum, capped like the real tool's
		// best+subdominant output.
		maxLoc := opt.MaxLocations
		if maxLoc > bestStratumCap {
			maxLoc = bestStratumCap
		}
		res.Mappings[wi.Global] = mapper.Finalize(ms, true, maxLoc)
	}

	if err := mapper.RunOnDevice(res, m.dev, "gem-map", len(reads), 512, newState, body); err != nil {
		return nil, err
	}
	return res, nil
}
