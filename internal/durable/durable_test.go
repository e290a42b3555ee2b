package durable

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func writeString(s string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	}
}

// entries lists dir's entry names.
func entries(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

func TestWriteFileReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	for _, s := range []string{"first", "second"} {
		if err := WriteFile(path, writeString(s)); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != s {
			t.Errorf("content = %q, want %q", b, s)
		}
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o644 {
		t.Errorf("mode = %v, want 0644", fi.Mode().Perm())
	}
	if names := entries(t, dir); len(names) != 1 {
		t.Errorf("directory holds %v, want only the target", names)
	}
}

// TestWriteFileConcurrent: concurrent writers of one path each get their
// own temp file, so every write succeeds and the result is one whole
// write, never a mix or a missing file.
func TestWriteFileConcurrent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "job.json")
	const writers, rounds = 6, 40
	var wg sync.WaitGroup
	errs := make(chan error, writers*rounds)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				errs <- WriteFile(path, writeString(fmt.Sprintf("writer %d round %02d", w, r)))
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var w, r int
	if n, err := fmt.Sscanf(string(b), "writer %d round %02d", &w, &r); n != 2 || err != nil {
		t.Errorf("final content %q is not one whole write", b)
	}
	if names := entries(t, dir); len(names) != 1 {
		t.Errorf("directory holds %v, want only the target", names)
	}
}

// TestWriteFileFailureKeepsTarget: a failed write leaves the previous
// file in place and no temp file behind.
func TestWriteFileFailureKeepsTarget(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	if err := WriteFile(path, writeString("good")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := WriteFile(path, func(w io.Writer) error {
		io.WriteString(w, "half") //nolint:errcheck
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the writer's error", err)
	}
	if b, _ := os.ReadFile(path); string(b) != "good" {
		t.Errorf("failed write changed the target to %q", b)
	}
	if names := entries(t, dir); len(names) != 1 {
		t.Errorf("directory holds %v, want only the target", names)
	}
}

func TestWriteFileMissingDir(t *testing.T) {
	if err := WriteFile(filepath.Join(t.TempDir(), "gone", "f"), writeString("x")); err == nil {
		t.Error("write into a missing directory succeeded")
	}
	if err := SyncDir(filepath.Join(t.TempDir(), "gone")); err == nil {
		t.Error("SyncDir of a missing directory succeeded")
	}
}
