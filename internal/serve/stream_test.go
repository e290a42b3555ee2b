package serve

// Resume-engine suite: RunStream is killed (its per-batch callback
// returns an error) at every batch boundary in turn, resumed by a fresh
// pipeline over fresh devices — a new process in all but name — and the
// final SAM and checkpoint must be byte-identical to an uninterrupted
// run. Strict and lenient input, with and without a fault plan armed on
// one device of three.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/cl"
	"repro/internal/core"
	"repro/internal/genome"
	"repro/internal/mapper"
	"repro/internal/seed"
)

// errKilled stands in for a crash at a batch boundary.
var errKilled = errors.New("killed at batch boundary")

// corruptFastq breaks every tenth record of fx's FASTQ (a quality line
// one base short) and appends a broken trailing record after the last
// full batch, so a lenient run skips records throughout.
func corruptFastq(fx *fixture) ([]byte, int) {
	lines := bytes.SplitAfter(fx.fastq, []byte("\n"))
	var out bytes.Buffer
	skipped := 0
	for i := 0; i+3 < len(lines); i += 4 {
		out.Write(lines[i])
		out.Write(lines[i+1])
		out.Write(lines[i+2])
		if (i/4)%10 == 3 {
			out.Write(lines[i+3][1:])
			skipped++
			continue
		}
		out.Write(lines[i+3])
	}
	out.WriteString("@broken\nACGT\n+\nII\n")
	return out.Bytes(), skipped + 1
}

// streamWorld builds a fresh three-device pipeline over fx's index.
func streamWorld(t *testing.T, fx *fixture) (*core.Pipeline, *genome.Genome) {
	t.Helper()
	p, g, err := NewPipeline(fx.file, threeDevicePool(),
		core.Config{Name: "REPUTE", Selector: seed.REPUTE{}, Split: []float64{1, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	return p, g
}

func TestRunStreamKillAtEveryBoundary(t *testing.T) {
	// The cases arm their own plans; an inherited chaos plan would arm
	// the other devices lazily, outside the checkpointed schedule.
	t.Setenv("REPUTE_CL_FAULTS", "")
	fx := newFixture(t, 40_000, 50)
	lenientFq, wantSkips := corruptFastq(fx)
	for _, tc := range []struct {
		name    string
		fastq   []byte
		lenient bool
		faults  string
	}{
		{"strict", fx.fastq, false, ""},
		{"strict-faults", fx.fastq, false, "device=2,enq2=oor,alloc3=alloc,throttle4-6=0.5"},
		{"lenient", lenientFq, true, ""},
		{"lenient-faults", lenientFq, true, "device=2,enq3=oor,alloc2=alloc,throttle1-2=0.5"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			reads := filepath.Join(dir, "reads.fq")
			if err := os.WriteFile(reads, tc.fastq, 0o644); err != nil {
				t.Fatal(err)
			}
			// run maps reads into out/ckpt under dir/name, resuming when
			// asked, with onBatch as the per-batch callback.
			run := func(name string, resume bool, onBatch func(*checkpoint.State) error) (*checkpoint.State, error) {
				var plan *cl.FaultPlan
				if tc.faults != "" {
					var err error
					if plan, err = cl.ParseFaultPlan(tc.faults); err != nil {
						t.Fatal(err)
					}
				}
				p, g := streamWorld(t, fx)
				return RunStream(context.Background(), p, g, StreamRun{
					ReadsPath:      reads,
					SAMPath:        filepath.Join(dir, name+".sam"),
					CheckpointPath: filepath.Join(dir, name+".ckpt"),
					Resume:         resume,
					Lenient:        tc.lenient,
					Batch:          8,
					Options:        mapper.Options{MaxErrors: 5, MaxLocations: 100},
					Fingerprint:    "fp",
					Faults:         plan,
					OnBatch:        onBatch,
				})
			}

			full, err := run("full", false, nil)
			if err != nil {
				t.Fatal(err)
			}
			wantSAM := readAll(t, filepath.Join(dir, "full.sam"))
			wantCkpt := readAll(t, filepath.Join(dir, "full.ckpt"))
			if tc.lenient && full.Faults.SkippedRecords != wantSkips {
				t.Errorf("uninterrupted run skipped %d records, want %d", full.Faults.SkippedRecords, wantSkips)
			}
			if tc.faults != "" {
				// device=2 narrows the plan to the second device only.
				if _, ok := full.FaultOrdinals["pool-1"]; !ok || len(full.FaultOrdinals) != 1 {
					t.Errorf("fault ordinals %v, want only pool-1 armed", full.FaultOrdinals)
				}
				if full.Faults.Retries == 0 {
					t.Error("fault plan injected nothing")
				}
			}

			for kill := 1; kill <= full.Batches; kill++ {
				name := fmt.Sprintf("kill%d", kill)
				n := 0
				_, err := run(name, false, func(*checkpoint.State) error {
					if n++; n == kill {
						return errKilled
					}
					return nil
				})
				if !errors.Is(err, errKilled) {
					t.Fatalf("kill after batch %d: err = %v, want the kill", kill, err)
				}
				// A crash can leave flushed bytes past the checkpointed
				// prefix; resume must cut them off.
				f, err := os.OpenFile(filepath.Join(dir, name+".sam"), os.O_APPEND|os.O_WRONLY, 0)
				if err != nil {
					t.Fatal(err)
				}
				f.WriteString("r-torn\t0\tchr21s\t1") //nolint:errcheck
				f.Close()

				if _, err := run(name, true, nil); err != nil {
					t.Fatalf("resume after batch %d: %v", kill, err)
				}
				if got := readAll(t, filepath.Join(dir, name+".sam")); !bytes.Equal(got, wantSAM) {
					t.Errorf("kill after batch %d: resumed SAM differs (%d vs %d bytes)", kill, len(got), len(wantSAM))
				}
				if got := readAll(t, filepath.Join(dir, name+".ckpt")); !bytes.Equal(got, wantCkpt) {
					t.Errorf("kill after batch %d: resumed checkpoint differs:\n%s\nwant:\n%s", kill, got, wantCkpt)
				}
			}
		})
	}
}

// TestRunStreamStopAtBoundary stops cleanly through core.Stop and
// resumes to the uninterrupted output.
func TestRunStreamStopAtBoundary(t *testing.T) {
	fx := newFixture(t, 30_000, 24)
	dir := t.TempDir()
	reads := filepath.Join(dir, "reads.fq")
	if err := os.WriteFile(reads, fx.fastq, 0o644); err != nil {
		t.Fatal(err)
	}
	run := StreamRun{
		ReadsPath:      reads,
		SAMPath:        filepath.Join(dir, "out.sam"),
		CheckpointPath: filepath.Join(dir, "run.ckpt"),
		Batch:          5,
		Options:        mapper.Options{MaxErrors: 5, MaxLocations: 100},
		Fingerprint:    "fp",
		OnBatch:        func(*checkpoint.State) error { return core.Stop },
	}
	p, g := streamWorld(t, fx)
	st, err := RunStream(context.Background(), p, g, run)
	if !errors.Is(err, core.Stop) || st == nil || st.Batches != 1 {
		t.Fatalf("stop: state %+v, err %v; want one batch and core.Stop", st, err)
	}
	run.Resume, run.OnBatch = true, nil
	p, g = streamWorld(t, fx)
	if st, err = RunStream(context.Background(), p, g, run); err != nil {
		t.Fatal(err)
	}
	if st.Reads != len(fx.reads) {
		t.Errorf("resumed run mapped %d reads, want %d", st.Reads, len(fx.reads))
	}
	if got := readAll(t, run.SAMPath); !bytes.Equal(got, fx.baselineSAM(t, false, 5, 100)) {
		t.Error("stopped-and-resumed SAM differs from the in-memory baseline")
	}
}

// TestRunStreamWholeInput: Batch 0 maps the whole input as one batch,
// byte-identical to the in-memory baseline, and a checkpointed run
// refuses standard output, which resume could not cut back.
func TestRunStreamWholeInput(t *testing.T) {
	fx := newFixture(t, 30_000, 24)
	dir := t.TempDir()
	reads := filepath.Join(dir, "reads.fq")
	if err := os.WriteFile(reads, fx.fastq, 0o644); err != nil {
		t.Fatal(err)
	}
	run := StreamRun{
		ReadsPath: reads,
		SAMPath:   filepath.Join(dir, "out.sam"),
		Options:   mapper.Options{MaxErrors: 5, MaxLocations: 100},
	}
	p, g, err := NewPipeline(fx.file, []*cl.Device{cl.SystemOneCPU()}, core.Config{Name: "REPUTE", Selector: seed.REPUTE{}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := RunStream(context.Background(), p, g, run)
	if err != nil {
		t.Fatal(err)
	}
	if st.Batches != 1 || st.Reads != len(fx.reads) {
		t.Errorf("unbatched run: %d batch(es), %d reads; want 1 batch of %d", st.Batches, st.Reads, len(fx.reads))
	}
	if got := readAll(t, run.SAMPath); !bytes.Equal(got, fx.baselineSAM(t, false, 5, 100)) {
		t.Error("unbatched SAM differs from the in-memory baseline")
	}

	run.SAMPath, run.CheckpointPath, run.Batch = "", filepath.Join(dir, "run.ckpt"), 5
	if _, err := RunStream(context.Background(), p, g, run); err == nil {
		t.Error("checkpointed run to standard output accepted")
	}
}

// TestResumeRefusesShortSAM shortens the SAM below the checkpoint's
// sam_bytes: resume must fail with *ShortSAMError and leave the file
// exactly as it found it, not pad it with NULs and append.
func TestResumeRefusesShortSAM(t *testing.T) {
	fx := newFixture(t, 30_000, 24)
	dir := t.TempDir()
	reads := filepath.Join(dir, "reads.fq")
	if err := os.WriteFile(reads, fx.fastq, 0o644); err != nil {
		t.Fatal(err)
	}
	run := StreamRun{
		ReadsPath:      reads,
		SAMPath:        filepath.Join(dir, "out.sam"),
		CheckpointPath: filepath.Join(dir, "run.ckpt"),
		Batch:          5,
		Options:        mapper.Options{MaxErrors: 5, MaxLocations: 100},
		Fingerprint:    "fp",
		OnBatch:        func(*checkpoint.State) error { return errKilled },
	}
	p, g := streamWorld(t, fx)
	if _, err := RunStream(context.Background(), p, g, run); !errors.Is(err, errKilled) {
		t.Fatalf("first run: %v", err)
	}
	st, err := checkpoint.Load(run.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(run.SAMPath, st.SAMBytes-10); err != nil {
		t.Fatal(err)
	}
	before := readAll(t, run.SAMPath)

	run.Resume, run.OnBatch = true, nil
	p, g = streamWorld(t, fx)
	_, err = RunStream(context.Background(), p, g, run)
	var short *ShortSAMError
	if !errors.As(err, &short) {
		t.Fatalf("resume over a short SAM: err = %v, want *ShortSAMError", err)
	}
	if short.Size != st.SAMBytes-10 || short.Want != st.SAMBytes {
		t.Errorf("ShortSAMError = %+v, want size %d, want %d", short, st.SAMBytes-10, st.SAMBytes)
	}
	if after := readAll(t, run.SAMPath); !bytes.Equal(after, before) {
		t.Errorf("refused resume modified the SAM (%d -> %d bytes)", len(before), len(after))
	}
}

func readAll(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
