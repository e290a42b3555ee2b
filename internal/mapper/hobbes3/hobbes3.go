// Package hobbes3 reimplements the core of Hobbes3 (Kim, Li & Xie, 2016):
// pigeonhole filtration with δ+1 *variable-position* fixed-length q-gram
// signatures, chosen by a dynamic program that minimises the summed index
// frequency of the signatures — the hash-index cousin of the paper's DP
// filtration. Candidates are the union of the chosen signatures' hits,
// verified with the Myers bit-vector. It is a fully sensitive all-mapper.
package hobbes3

import (
	"fmt"

	"repro/internal/cl"
	"repro/internal/dna"
	"repro/internal/mapper"
	"repro/internal/qgram"
)

// Mapper is a Hobbes3-style all-mapper bound to a reference.
type Mapper struct {
	ref     []byte
	text    dna.PackedSeq
	dev     *cl.Device
	maxQ    int
	indexes map[int]*qgram.Index
}

// New creates the mapper on a host device. maxQ caps gram length (0 = 11).
func New(ref []byte, dev *cl.Device, maxQ int) (*Mapper, error) {
	if len(ref) == 0 {
		return nil, fmt.Errorf("hobbes3: empty reference")
	}
	if maxQ <= 0 {
		maxQ = 11
	}
	if maxQ > qgram.MaxQ {
		maxQ = qgram.MaxQ
	}
	return &Mapper{
		ref:     ref,
		text:    dna.Pack(ref),
		dev:     dev,
		maxQ:    maxQ,
		indexes: map[int]*qgram.Index{},
	}, nil
}

// Name implements mapper.Mapper.
func (m *Mapper) Name() string { return "Hobbes3" }

// chooseQ picks the signature length: δ+1 disjoint signatures must fit,
// and the gram stays two steps below the RazerS3-style maximum — Hobbes3
// trades gram selectivity for its cheap signature DP, so its candidate
// lists run longer than a DP-placed long seed's (the REPUTE gap at low δ).
func (m *Mapper) chooseQ(readLen, errors int) int {
	q := readLen / (errors + 1)
	if q > m.maxQ-2 {
		q = m.maxQ - 2
	}
	if q < 1 {
		q = 1
	}
	return q
}

func (m *Mapper) index(q int) (*qgram.Index, error) {
	if ix, ok := m.indexes[q]; ok {
		return ix, nil
	}
	ix, err := qgram.Build(m.ref, q)
	if err != nil {
		return nil, err
	}
	m.indexes[q] = ix
	return ix, nil
}

// selectSignatures runs the Hobbes DP: choose k = errors+1 positions
// p_1 < p_2 < ... with p_{j+1} >= p_j + q minimising total frequency.
// freqs[i] is the index frequency of the gram starting at i.
// It returns the chosen positions and the DP cell count.
func selectSignatures(freqs []int32, k, q int) ([]int, int) {
	n := len(freqs) // number of gram start positions
	const inf = int64(1) << 62
	// best[j][i]: min cost choosing j+1 signatures from grams [i:].
	best := make([][]int64, k)
	choice := make([][]int32, k)
	for j := range best {
		best[j] = make([]int64, n+1)
		choice[j] = make([]int32, n+1)
	}
	cells := 0
	for j := 0; j < k; j++ {
		for i := n; i >= 0; i-- {
			cells++
			b, c := inf, int32(-1)
			if i < n {
				// Option: skip position i.
				b, c = best[j][i+1], choice[j][i+1]
				// Option: place signature j at i.
				var rest int64
				if j == 0 {
					rest = 0
				} else if i+q <= n {
					rest = best[j-1][i+q]
				} else {
					rest = inf
				}
				if rest < inf {
					if v := int64(freqs[i]) + rest; v < b {
						b, c = v, int32(i)
					}
				}
			}
			best[j][i], choice[j][i] = b, c
		}
	}
	if best[k-1][0] >= inf {
		return nil, cells
	}
	// Recover positions: choice[j][i] is where the first of the j+1
	// remaining signatures lands in the optimum for state (j, i).
	pos := make([]int, 0, k)
	i := 0
	for j := k - 1; j >= 0; j-- {
		p := int(choice[j][i])
		if p < i {
			return nil, cells // infeasible state; cannot happen when best is finite
		}
		pos = append(pos, p)
		i = p + q
	}
	return pos, cells
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
	q := m.chooseQ(len(reads[0]), opt.MaxErrors)
	ix, err := m.index(q)
	if err != nil {
		return nil, err
	}
	k := opt.MaxErrors + 1

	// Per-worker private scratch (cl.Kernel.NewState contract): nothing
	// mutable is captured by the kernel closure.
	type kernelState struct {
		vs    mapper.VerifyState
		rev   []byte
		freqs []int32
		cands []mapper.Candidate
	}
	newState := func() any { return &kernelState{rev: make([]byte, len(reads[0]))} }
	body := func(wi *cl.WorkItem, state any) {
		st := state.(*kernelState)
		read := reads[wi.Global]
		n := len(read)
		var itemCost cl.Cost
		st.cands = st.cands[:0]
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
			nGrams := n - q + 1
			if cap(st.freqs) < nGrams {
				st.freqs = make([]int32, nGrams)
			}
			st.freqs = st.freqs[:nGrams]
			for i := 0; i < nGrams; i++ {
				st.freqs[i] = int32(ix.Count(qgram.Hash(pattern[i : i+q])))
			}
			itemCost.HashProbes += int64(nGrams)
			sigs, cells := selectSignatures(st.freqs, k, q)
			itemCost.DPCells += int64(cells)
			for _, p := range sigs {
				hits := ix.Positions(qgram.Hash(pattern[p : p+q]))
				itemCost.HashProbes += 1 + int64(len(hits))
				for _, hp := range hits {
					st.cands = append(st.cands, mapper.Candidate{Pos: hp - int32(p), Strand: strand})
				}
			}
		}
		dd := mapper.DedupCandidates(st.cands, int32(opt.MaxErrors))
		ms, vc := st.vs.Verify(m.text, read, dd, opt.MaxErrors, opt.MaxLocations)
		itemCost.VerifyWords += vc.VerifyWords
		itemCost.Items = 1
		wi.Charge(itemCost)
		res.Mappings[wi.Global] = mapper.Finalize(ms, opt.Best, opt.MaxLocations)
	}

	if err := mapper.RunOnDevice(res, m.dev, "hobbes3-map", len(reads), 1024, newState, body); err != nil {
		return nil, err
	}
	return res, nil
}
