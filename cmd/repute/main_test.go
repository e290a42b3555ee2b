package main

// End-to-end tests of the streaming/checkpointed CLI: they build the
// real binary, generate a synthetic workload, and then kill, resume,
// corrupt and signal actual processes — the failure modes ISSUE 5's
// robustness contract is about. The core property asserted throughout:
// however a run is interrupted, the resumed SAM output is byte-identical
// to an uninterrupted run.

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/dna"
	"repro/internal/fastx"
	"repro/internal/simulate"
)

var (
	binPath   string
	refPath   string
	indexPath string
	readsPath string
	dirtyPath string
)

func TestMain(m *testing.M) {
	os.Exit(testMain(m))
}

func testMain(m *testing.M) int {
	dir, err := os.MkdirTemp("", "repute-cli")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(dir)

	binPath = filepath.Join(dir, "repute")
	if out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build: %v\n%s", err, out)
		return 1
	}

	// Synthetic workload: a repetitive reference and 60 reads, some with
	// ambiguous bases so the checkpointed RNG-draw counter does real work.
	ref := simulate.Reference(simulate.Chr21Like(60_000, 11))
	set, err := simulate.Reads(ref, 60, simulate.ERR012100, 12)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	refPath = filepath.Join(dir, "ref.fa")
	rf, err := os.Create(refPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	err = fastx.WriteFasta(rf, []fastx.Record{{Name: "chr21s", Seq: []byte(dna.Decode(ref))}}, 80)
	rf.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	recs := make([]fastx.Record, len(set.Reads))
	for i, r := range set.Reads {
		seq := []byte(dna.Decode(r))
		if i%9 == 0 { // sprinkle ambiguity
			seq[3], seq[10] = 'N', 'N'
		}
		recs[i] = fastx.Record{
			Name: fmt.Sprintf("read%03d", i),
			Seq:  seq,
			Qual: bytes.Repeat([]byte{'I'}, len(seq)),
		}
	}
	readsPath = filepath.Join(dir, "reads.fq")
	qf, err := os.Create(readsPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	err = fastx.WriteFastq(qf, recs)
	qf.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	// dirty.fq: the same reads with a truncated quality line, a junk
	// line, and an unmappably short record spliced in.
	clean, err := os.ReadFile(readsPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	lines := strings.SplitAfter(string(clean), "\n")
	var dirty strings.Builder
	for i, l := range lines {
		switch i {
		case 11: // quality line of record 3, truncated
			dirty.WriteString(strings.TrimRight(l, "\n")[:5] + "\n")
			continue
		case 20:
			dirty.WriteString("this is not a fastq line\n")
		case 32:
			dirty.WriteString("@tiny\nACG\n+\nIII\n")
		}
		dirty.WriteString(l)
	}
	dirtyPath = filepath.Join(dir, "dirty.fq")
	if err := os.WriteFile(dirtyPath, []byte(dirty.String()), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	indexPath = filepath.Join(dir, "ref.rix")
	if out, err := exec.Command(binPath, "index", "-ref", refPath, "-out", indexPath).CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "index: %v\n%s", err, out)
		return 1
	}

	return m.Run()
}

// cleanEnv is the inherited environment minus every REPUTE_* hook, so a
// chaos CI environment doesn't leak into runs that set their own.
func cleanEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "REPUTE_") {
			continue
		}
		env = append(env, kv)
	}
	return env
}

// runRepute runs the binary with extra environment entries, returning
// combined stderr and the exit error (nil on success).
func runRepute(t *testing.T, extraEnv []string, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(binPath, args...)
	cmd.Env = append(cleanEnv(), extraEnv...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	cmd.Stdout = &stderr
	err := cmd.Run()
	return stderr.String(), err
}

// runReputeStdout is runRepute with standard output captured apart
// from standard error.
func runReputeStdout(t *testing.T, args ...string) ([]byte, string, error) {
	t.Helper()
	cmd := exec.Command(binPath, args...)
	cmd.Env = cleanEnv()
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	return stdout.Bytes(), stderr.String(), err
}

func mapArgs(out string, extra ...string) []string {
	return append([]string{"map", "-index", indexPath, "-reads", readsPath,
		"-batch", "7", "-out", out}, extra...)
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestStreamedMatchesInMemory: SAM to standard output, the default
// whole-input batch written with -out and a -batch 7 run are equal.
func TestStreamedMatchesInMemory(t *testing.T) {
	dir := t.TempDir()
	whole := filepath.Join(dir, "whole.sam")
	stream := filepath.Join(dir, "stream.sam")
	stdout, out, err := runReputeStdout(t, "map", "-index", indexPath, "-reads", readsPath)
	if err != nil {
		t.Fatalf("map to stdout: %v\n%s", err, out)
	}
	if out, err := runRepute(t, nil, "map", "-index", indexPath, "-reads", readsPath,
		"-batch", "0", "-out", whole); err != nil {
		t.Fatalf("whole-input map: %v\n%s", err, out)
	}
	if out, err := runRepute(t, nil, mapArgs(stream)...); err != nil {
		t.Fatalf("streamed map: %v\n%s", err, out)
	}
	if !bytes.Equal(stdout, readFile(t, whole)) {
		t.Error("stdout SAM differs from the -out SAM")
	}
	if !bytes.Equal(readFile(t, whole), readFile(t, stream)) {
		t.Error("streamed SAM differs from the whole-input SAM")
	}
}

// TestDeviceLinesSorted: the per-device busy lines of the run summary
// come out in sorted order, not map order.
func TestDeviceLinesSorted(t *testing.T) {
	for run := 0; run < 3; run++ {
		out, err := runRepute(t, nil, "map", "-index", indexPath, "-reads", readsPath,
			"-platform", "system1", "-split", "0.52,0.24,0.24", "-out", filepath.Join(t.TempDir(), "out.sam"))
		if err != nil {
			t.Fatalf("map: %v\n%s", err, out)
		}
		var devs []string
		for _, l := range strings.Split(out, "\n") {
			if strings.HasSuffix(l, " s busy") {
				devs = append(devs, strings.TrimSpace(l))
			}
		}
		if len(devs) != 3 || !slices.IsSorted(devs) {
			t.Fatalf("device lines %q, want three in sorted order", devs)
		}
	}
}

// TestEmptyReads: an empty FASTQ maps to a header-only SAM and exit 0,
// with or without -batch.
func TestEmptyReads(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.fq")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var sams [][]byte
	for _, batch := range []string{"0", "7"} {
		sam := filepath.Join(dir, "b"+batch+".sam")
		if out, err := runRepute(t, nil, "map", "-index", indexPath, "-reads", empty,
			"-batch", batch, "-out", sam); err != nil {
			t.Fatalf("-batch %s: %v\n%s", batch, err, out)
		}
		sams = append(sams, readFile(t, sam))
	}
	if !bytes.Equal(sams[0], sams[1]) {
		t.Error("empty-input SAM depends on -batch")
	}
	for _, l := range strings.SplitAfter(string(sams[0]), "\n") {
		if l != "" && !strings.HasPrefix(l, "@") {
			t.Fatalf("empty input produced a record line %q", l)
		}
	}
}

// TestCheckpointNeedsOut: resume cuts the SAM file back to its
// checkpointed prefix, which standard output cannot do.
func TestCheckpointNeedsOut(t *testing.T) {
	out, err := runRepute(t, nil, "map", "-index", indexPath, "-reads", readsPath,
		"-batch", "7", "-checkpoint", filepath.Join(t.TempDir(), "run.ckpt"))
	if err == nil {
		t.Fatal("-checkpoint without -out accepted")
	}
	if !strings.Contains(out, "-checkpoint requires -out") {
		t.Errorf("want the -out requirement, got:\n%s", out)
	}
}

// TestKillAndResume kills a checkpointed run after every possible batch
// boundary and checks the resumed output is bit-identical to an
// uninterrupted run. 60 reads at batch 7 is 9 batches.
func TestKillAndResume(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "baseline.sam")
	if out, err := runRepute(t, nil, mapArgs(baseline)...); err != nil {
		t.Fatalf("baseline: %v\n%s", err, out)
	}
	for kill := 1; kill <= 9; kill++ {
		sam := filepath.Join(dir, fmt.Sprintf("k%d.sam", kill))
		ckpt := filepath.Join(dir, fmt.Sprintf("k%d.ckpt", kill))
		out, err := runRepute(t, []string{fmt.Sprintf("REPUTE_KILL_AFTER_BATCH=%d", kill)},
			mapArgs(sam, "-checkpoint", ckpt)...)
		if kill <= 8 && err == nil {
			t.Fatalf("kill=%d: process survived its kill hook\n%s", kill, out)
		}
		if kill == 9 {
			// The hook fires after the final batch's checkpoint; the run
			// is complete either way once resumed.
			if err == nil {
				continue
			}
		}
		if out, err := runRepute(t, nil, mapArgs(sam, "-checkpoint", ckpt, "-resume")...); err != nil {
			t.Fatalf("kill=%d resume: %v\n%s", kill, err, out)
		}
		if !bytes.Equal(readFile(t, sam), readFile(t, baseline)) {
			t.Errorf("kill=%d: resumed SAM differs from uninterrupted run", kill)
		}
	}
}

// TestKillAndResumeUnderFaults repeats the kill/resume bit-identity
// check under an injected fault plan, including a double kill — the
// checkpointed fault ordinals must keep the injection schedule aligned.
func TestKillAndResumeUnderFaults(t *testing.T) {
	faults := "REPUTE_CL_FAULTS=enq2=oor,alloc40=alloc,throttle4-6=0.5"
	dir := t.TempDir()
	baseline := filepath.Join(dir, "baseline.sam")
	if out, err := runRepute(t, []string{faults}, mapArgs(baseline)...); err != nil {
		t.Fatalf("chaos baseline: %v\n%s", err, out)
	}
	for _, kills := range [][]int{{2}, {5}, {2, 2}} {
		name := fmt.Sprint(kills)
		sam := filepath.Join(dir, "f"+name+".sam")
		ckpt := filepath.Join(dir, "f"+name+".ckpt")
		args := mapArgs(sam, "-checkpoint", ckpt)
		for i, kill := range kills {
			resumeArgs := args
			if i > 0 {
				resumeArgs = append(args, "-resume")
			}
			out, err := runRepute(t, []string{faults, fmt.Sprintf("REPUTE_KILL_AFTER_BATCH=%d", kill)},
				resumeArgs...)
			if err == nil {
				t.Fatalf("kills=%s step %d: process survived its kill hook\n%s", name, i, out)
			}
		}
		if out, err := runRepute(t, []string{faults}, append(args, "-resume")...); err != nil {
			t.Fatalf("kills=%s final resume: %v\n%s", name, err, out)
		}
		if !bytes.Equal(readFile(t, sam), readFile(t, baseline)) {
			t.Errorf("kills=%s: resumed SAM differs from uninterrupted chaos run", name)
		}
	}
}

// TestStaleCheckpointRejected: resuming with different mapping options
// must fail with the fingerprint mismatch, not silently mix outputs.
func TestStaleCheckpointRejected(t *testing.T) {
	dir := t.TempDir()
	sam := filepath.Join(dir, "run.sam")
	ckpt := filepath.Join(dir, "run.ckpt")
	out, err := runRepute(t, []string{"REPUTE_KILL_AFTER_BATCH=2"},
		mapArgs(sam, "-checkpoint", ckpt)...)
	if err == nil {
		t.Fatalf("kill hook did not fire\n%s", out)
	}
	out, err = runRepute(t, nil, mapArgs(sam, "-checkpoint", ckpt, "-resume", "-e", "3")...)
	if err == nil {
		t.Fatal("resume with different -e must fail")
	}
	if !strings.Contains(out, "fingerprint mismatch") {
		t.Errorf("want fingerprint mismatch error, got:\n%s", out)
	}
	// The original options still resume fine.
	if out, err := runRepute(t, nil, mapArgs(sam, "-checkpoint", ckpt, "-resume")...); err != nil {
		t.Fatalf("legitimate resume: %v\n%s", err, out)
	}
}

// TestResumeRefusesShortSAM: a SAM file shorter than the checkpoint's
// sam_bytes lost bytes the checkpoint vouches for. Resume must refuse it
// and leave the file untouched instead of padding it out and appending.
func TestResumeRefusesShortSAM(t *testing.T) {
	dir := t.TempDir()
	sam := filepath.Join(dir, "run.sam")
	ckpt := filepath.Join(dir, "run.ckpt")
	if out, err := runRepute(t, []string{"REPUTE_KILL_AFTER_BATCH=3"},
		mapArgs(sam, "-checkpoint", ckpt)...); err == nil {
		t.Fatalf("kill hook did not fire\n%s", out)
	}
	fi, err := os.Stat(sam)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(sam, fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	before := readFile(t, sam)
	out, err := runRepute(t, nil, mapArgs(sam, "-checkpoint", ckpt, "-resume")...)
	if err == nil {
		t.Fatalf("resume over a short SAM succeeded\n%s", out)
	}
	if !strings.Contains(out, "checkpoint recorded") {
		t.Errorf("want the short-SAM refusal, got:\n%s", out)
	}
	if !bytes.Equal(readFile(t, sam), before) {
		t.Error("refused resume modified the SAM file")
	}
}

// TestLenientDegradation: strict mode fails on a corrupted FASTQ with a
// typed position; lenient mode completes and reports the skip tallies,
// with and without -batch.
func TestLenientDegradation(t *testing.T) {
	dir := t.TempDir()
	var sams [][]byte
	for _, batch := range []string{"7", "0"} {
		sam := filepath.Join(dir, "dirty"+batch+".sam")
		out, err := runRepute(t, nil, "map", "-index", indexPath, "-reads", dirtyPath,
			"-batch", batch, "-out", sam)
		if err == nil {
			t.Fatalf("-batch %s: strict map of corrupted FASTQ must fail", batch)
		}
		if !strings.Contains(out, "length-mismatch") || !strings.Contains(out, "dirty.fq") {
			t.Errorf("-batch %s: strict error lacks typed position:\n%s", batch, out)
		}
		out, err = runRepute(t, nil, "map", "-index", indexPath, "-reads", dirtyPath,
			"-batch", batch, "-lenient", "-out", sam)
		if err != nil {
			t.Fatalf("-batch %s: lenient map: %v\n%s", batch, err, out)
		}
		if !strings.Contains(out, "skipped 3 malformed/unmappable record(s)") {
			t.Errorf("-batch %s: lenient summary lacks skip tally:\n%s", batch, out)
		}
		for _, reason := range []string{"length-mismatch=1", "missing-header=1", "short-read=1"} {
			if !strings.Contains(out, reason) {
				t.Errorf("-batch %s: lenient summary lacks %q:\n%s", batch, reason, out)
			}
		}
		sams = append(sams, readFile(t, sam))
	}
	if !bytes.Equal(sams[0], sams[1]) {
		t.Error("unbatched lenient SAM differs from the -batch 7 lenient SAM")
	}
}

// TestSigtermFlushesCheckpoint sends a real SIGTERM mid-run and checks
// the process exits nonzero with a final checkpoint and a partial SAM
// that resume completes bit-identically.
func TestSigtermFlushesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "baseline.sam")
	if out, err := runRepute(t, nil, mapArgs(baseline)...); err != nil {
		t.Fatalf("baseline: %v\n%s", err, out)
	}

	sam := filepath.Join(dir, "sig.sam")
	ckpt := filepath.Join(dir, "sig.ckpt")
	cmd := exec.Command(binPath, mapArgs(sam, "-checkpoint", ckpt)...)
	cmd.Env = append(cleanEnv(), "REPUTE_STREAM_BATCH_DELAY_MS=150")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Wait for the first checkpoint so the signal lands mid-stream.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := os.Stat(ckpt); err == nil {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatal("no checkpoint appeared within 10s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	if err == nil {
		t.Fatalf("SIGTERM run exited zero\n%s", stderr.String())
	}
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("want graceful exit code 1, got %v\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "interrupted") {
		t.Errorf("stderr lacks interruption notice:\n%s", stderr.String())
	}
	st, err := checkpoint.Load(ckpt)
	if err != nil {
		t.Fatalf("final checkpoint unreadable: %v", err)
	}
	if st.Batches < 1 || st.Reads < 7 {
		t.Errorf("checkpoint recorded no progress: %+v", st)
	}
	// The flushed partial SAM must be exactly the checkpointed prefix of
	// the baseline — valid and resumable.
	if got, want := readFile(t, sam), readFile(t, baseline); !bytes.Equal(got, want[:st.SAMBytes]) {
		t.Errorf("partial SAM is not a clean prefix of the baseline (%d bytes vs prefix %d)",
			len(got), st.SAMBytes)
	}
	if out, err := runRepute(t, nil, mapArgs(sam, "-checkpoint", ckpt, "-resume")...); err != nil {
		t.Fatalf("resume after SIGTERM: %v\n%s", err, out)
	}
	if !bytes.Equal(readFile(t, sam), readFile(t, baseline)) {
		t.Error("SAM after SIGTERM + resume differs from uninterrupted run")
	}
}
