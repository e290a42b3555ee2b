package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/dna"
	"repro/internal/eval"
	"repro/internal/fastx"
	"repro/internal/mapper"
	"repro/internal/sam"
	"repro/internal/simulate"
)

// setupReference generates the shared reference, writes it as FASTA and
// builds its index artifact with `repute index build`.
func (e *env) setupReference() error {
	e.ref = simulate.Reference(simulate.Chr21Like(refLen, refSeed))
	refFa := filepath.Join(e.work, "ref.fa")
	f, err := os.Create(refFa)
	if err != nil {
		return err
	}
	rec := fastx.Record{Name: "chr21sim", Seq: []byte(dna.Decode(e.ref))}
	if err := fastx.WriteFasta(f, []fastx.Record{rec}, 70); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	e.index = filepath.Join(e.work, "ref.ridx")
	if _, err := runProc(e.repute, "index", "build", "-ref", refFa, "-out", e.index); err != nil {
		return fmt.Errorf("index build: %w", err)
	}
	return nil
}

// readSet is a generated read set with its ground truth.
type readSet struct {
	names   []string
	reads   [][]byte
	origins []eval.Origin
}

// genReads samples n reads from the reference with the workload seed.
func (e *env) genReads(prof simulate.ReadProfile, n int) (readSet, error) {
	set, err := simulate.Reads(e.ref, n, prof, e.seed)
	if err != nil {
		return readSet{}, err
	}
	rs := readSet{reads: set.Reads}
	for i, o := range set.Origins {
		rs.names = append(rs.names, fmt.Sprintf("%s.%d", prof.Name, i))
		rs.origins = append(rs.origins, eval.Origin{Pos: o.Pos, Strand: o.Strand, Edits: o.Edits})
	}
	return rs, nil
}

// slice returns reads [lo, hi).
func (rs readSet) slice(lo, hi int) readSet {
	return readSet{names: rs.names[lo:hi], reads: rs.reads[lo:hi], origins: rs.origins[lo:hi]}
}

// fastq renders the reads as FASTQ.
func (rs readSet) fastq() []byte {
	recs := make([]fastx.Record, len(rs.reads))
	for i, r := range rs.reads {
		recs[i] = fastx.Record{Name: rs.names[i], Seq: []byte(dna.Decode(r))}
	}
	var b bytes.Buffer
	fastx.WriteFastq(&b, recs) //nolint:errcheck // bytes.Buffer writes do not fail
	return b.Bytes()
}

// sensitivity is eval.Sensitivity of the SAM's mappings against the
// generator's origins, with a position tolerance of δ. A read absent
// from the SAM counts as unmapped.
func (rs readSet) sensitivity(samText []byte, delta int) (float64, error) {
	recs, err := sam.Parse(bytes.NewReader(samText))
	if err != nil {
		return 0, err
	}
	byName := sam.GroupByRead(recs)
	test := make([][]mapper.Mapping, len(rs.names))
	for i, n := range rs.names {
		test[i] = byName[n]
	}
	return eval.Sensitivity(test, rs.origins, delta, int32(delta)), nil
}

// procResult is one finished subprocess: wall time from start to exit
// and its peak resident set.
type procResult struct {
	wall   time.Duration
	rssMiB float64
}

// runProc runs the binary to completion. A nonzero exit is an error
// carrying the tail of its standard error.
func runProc(bin string, args ...string) (procResult, error) {
	cmd := exec.Command(bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	start := time.Now()
	err := cmd.Run()
	res := procResult{wall: time.Since(start)}
	if cmd.ProcessState != nil {
		res.rssMiB = maxRSSMiB(cmd.ProcessState)
	}
	if err != nil {
		msg := strings.TrimSpace(stderr.String())
		if len(msg) > 400 {
			msg = msg[len(msg)-400:]
		}
		return res, fmt.Errorf("%s %s: %v: %s", filepath.Base(bin), args[0], err, msg)
	}
	return res, nil
}

// maxRSSMiB is the process's peak resident set (Linux reports KiB).
func maxRSSMiB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}
