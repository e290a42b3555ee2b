// Package bwamem reimplements the seeding/extension skeleton of BWA-MEM
// (Li & Durbin, Bioinformatics 2010; MEM variant 2013): greedy maximal
// exact matches found by FM-index backward extension from spaced anchors,
// candidate chaining by diagonal, banded-DP extension, and primary-only
// reporting. As a best-mapper that emits a single alignment per read it
// scores low on the paper's all-locations metric and high on any-best —
// the contrast Tables I and II show.
package bwamem

import (
	"fmt"
	"sort"

	"repro/internal/align"
	"repro/internal/cl"
	"repro/internal/dna"
	"repro/internal/fmindex"
	"repro/internal/mapper"
)

// minSeedLen mirrors BWA-MEM's default -k 19.
const minSeedLen = 19

// maxHitsPerSeed skips seeds more frequent than this (BWA's -c filter).
const maxHitsPerSeed = 200

// bandWidth mirrors BWA-MEM's default -w 100: every chain extension runs
// a banded Smith-Waterman of this half-width regardless of δ, which is
// why BWA's time is flat in δ but high in absolute terms (Table I).
const bandWidth = 100

// Mapper is a BWA-MEM-style best-mapper bound to a reference.
type Mapper struct {
	ix  *fmindex.Index
	dev *cl.Device
}

// New creates the mapper on a host device.
func New(ref []byte, dev *cl.Device) (*Mapper, error) {
	if len(ref) == 0 {
		return nil, fmt.Errorf("bwamem: empty reference")
	}
	return &Mapper{ix: fmindex.Build(ref, fmindex.Options{}), dev: dev}, nil
}

// Name implements mapper.Mapper.
func (m *Mapper) Name() string { return "BWA-MEM" }

// seedsOf finds maximal exact matches by backward extension from anchor
// end positions spread over the read.
func (m *Mapper) seedsOf(pattern []byte, anchors int, itemCost *cl.Cost) []memSeed {
	n := len(pattern)
	var seeds []memSeed
	step := n / anchors
	if step < 1 {
		step = 1
	}
	for end := n; end >= minSeedLen; end -= step {
		lo, hi := m.ix.Start()
		start := end
		bestLo, bestHi, bestStart := 0, 0, end
		for start > 0 {
			nlo, nhi := m.ix.ExtendLeft(pattern[start-1], lo, hi)
			itemCost.FMSteps++
			if nlo >= nhi {
				break
			}
			lo, hi = nlo, nhi
			start--
			bestLo, bestHi, bestStart = lo, hi, start
		}
		if end-bestStart >= minSeedLen && bestHi > bestLo {
			seeds = append(seeds, memSeed{start: bestStart, end: end, lo: bestLo, hi: bestHi})
		}
	}
	return seeds
}

type memSeed struct {
	start, end int
	lo, hi     int
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
	text := m.ix.Text()

	// Per-worker private scratch (cl.Kernel.NewState contract): nothing
	// mutable is captured by the kernel closure.
	type kernelState struct {
		rev    []byte
		locs   []int32
		window []byte
		// seen holds the sorted diagonal-bucket keys already extended for
		// the current strand — the chain dedup that used to be a per-item
		// map, which the kernel contract forbids (kernelalloc).
		seen []int32
	}
	newState := func() any { return &kernelState{rev: make([]byte, len(reads[0]))} }
	body := func(wi *cl.WorkItem, state any) {
		st := state.(*kernelState)
		read := reads[wi.Global]
		n := len(read)
		var itemCost cl.Cost
		best := mapper.Mapping{Dist: uint8(opt.MaxErrors) + 1}
		haveBest := false
		for _, strand := range []byte{mapper.Forward, mapper.Reverse} {
			pattern := read
			if strand == mapper.Reverse {
				if cap(st.rev) < n {
					st.rev = make([]byte, n)
				}
				st.rev = st.rev[:n]
				dna.ReverseComplementInto(st.rev, read)
				pattern = st.rev
			}
			// BWA-MEM re-seeds roughly every ~20 bp along the read.
			seeds := m.seedsOf(pattern, n/20+1, &itemCost)
			st.seen = st.seen[:0]
			for _, sd := range seeds {
				c := sd.hi - sd.lo
				if c > maxHitsPerSeed {
					continue
				}
				st.locs = m.ix.Locate(sd.lo, sd.hi, 0, st.locs[:0])
				itemCost.LocateSteps += int64(float64(c) * (1 + locSteps))
				for _, p := range st.locs {
					cand := p - int32(sd.start)
					key := cand / int32(opt.MaxErrors+1)
					at := sort.Search(len(st.seen), func(i int) bool { return st.seen[i] >= key })
					if at < len(st.seen) && st.seen[at] == key {
						continue
					}
					st.seen = append(st.seen, 0)
					copy(st.seen[at+1:], st.seen[at:])
					st.seen[at] = key
					lo := int(cand) - opt.MaxErrors
					hi := int(cand) + n + opt.MaxErrors
					if lo < 0 {
						lo = 0
					}
					if hi > text.Len() {
						hi = text.Len()
					}
					if hi-lo < n-opt.MaxErrors {
						continue
					}
					if cap(st.window) < hi-lo {
						st.window = make([]byte, hi-lo)
					}
					win := text.SliceInto(st.window, lo, hi)
					// Full-bandwidth banded SW extension per chain.
					itemCost.DPCells += int64((2*bandWidth + 1) * n)
					end, dist := align.BandedDistance(pattern, win, opt.MaxErrors)
					if end < 0 {
						continue
					}
					if uint8(dist) < best.Dist {
						// Recover the start with a Myers reverse pass.
						itemCost.VerifyWords += int64(align.WordCost(n) * end)
						match, ok := align.Verify(pattern, win[:end], dist)
						if !ok {
							continue
						}
						best = mapper.Mapping{
							Pos:    int32(lo + match.Start),
							Strand: strand,
							Dist:   uint8(match.Dist),
						}
						haveBest = true
					}
				}
			}
		}
		itemCost.Items = 1
		wi.Charge(itemCost)
		if haveBest {
			res.Mappings[wi.Global] = []mapper.Mapping{best}
		}
	}

	if err := mapper.RunOnDevice(res, m.dev, "bwamem-map", len(reads), 2048, newState, body); err != nil {
		return nil, err
	}
	return res, nil
}
