// Package razers3 reimplements the algorithmic core of RazerS 3 (Weese,
// Holtgrewe & Reinert, Bioinformatics 2012): a q-gram-lemma counting
// filter over a hash index with SWIFT-style diagonal binning, followed by
// Myers bit-vector verification. It is a fully sensitive all-mapper — for
// the configured (n, δ, q) every location within edit distance δ is
// reported (up to the location cap) — which is why both the paper and
// this reproduction use it as the accuracy gold standard.
package razers3

import (
	"fmt"
	"sort"

	"repro/internal/cl"
	"repro/internal/dna"
	"repro/internal/mapper"
	"repro/internal/qgram"
)

// Mapper is a RazerS3-style all-mapper bound to a reference.
type Mapper struct {
	ref     []byte
	text    dna.PackedSeq
	dev     *cl.Device
	maxQ    int
	indexes map[int]*qgram.Index // per gram length, built on demand
}

// New creates the mapper on a host device. maxQ caps the gram length
// (0 = 11, a chromosome-scale default; tests use smaller references and
// smaller q emerges automatically from the lemma bound).
func New(ref []byte, dev *cl.Device, maxQ int) (*Mapper, error) {
	if len(ref) == 0 {
		return nil, fmt.Errorf("razers3: empty reference")
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
func (m *Mapper) Name() string { return "RazerS3" }

// chooseQ picks the largest usable gram length for (n, δ): the q-gram
// lemma threshold t = n+1-(δ+1)q must stay comfortably positive.
func (m *Mapper) chooseQ(readLen, errors int) (q, t int) {
	q = m.maxQ
	for q > 1 {
		t = readLen + 1 - (errors+1)*q
		if t >= 2 {
			return q, t
		}
		q--
	}
	return 1, readLen - errors // degenerate but still sound
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
	q, t := m.chooseQ(len(reads[0]), opt.MaxErrors)
	ix, err := m.index(q)
	if err != nil {
		return nil, err
	}

	// Per-worker private scratch: the kernel may run on several host
	// workers at once, so no mutable buffer is captured by the closure.
	type kernelState struct {
		vs    mapper.VerifyState
		rev   []byte
		diags []int32
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
			st.diags = st.diags[:0]
			// Probe every read q-gram; collect hit diagonals.
			for i := 0; i+q <= n; i++ {
				h := qgram.Hash(pattern[i : i+q])
				ps := ix.Positions(h)
				itemCost.HashProbes += 1 + int64(len(ps))
				for _, p := range ps {
					st.diags = append(st.diags, p-int32(i))
				}
			}
			diags := st.diags
			sort.Slice(diags, func(a, b int) bool { return diags[a] < diags[b] })
			itemCost.DPCells += int64(len(diags)) // sort/merge work proxy
			// Sliding window over sorted diagonals: an alignment with
			// <= δ edits keeps >= t grams whose diagonals span <= δ.
			lo := 0
			for hi := 0; hi < len(diags); hi++ {
				for diags[hi]-diags[lo] > int32(opt.MaxErrors) {
					lo++
				}
				if hi-lo+1 >= t {
					st.cands = append(st.cands, mapper.Candidate{Pos: diags[lo], Strand: strand})
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

	if err := mapper.RunOnDevice(res, m.dev, "razers3-map", len(reads), 512, newState, body); err != nil {
		return nil, err
	}
	return res, nil
}
