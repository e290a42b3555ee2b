package checkpoint

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cl"
	"repro/internal/fmindex"
	"repro/internal/mapper"
)

func testIndex(t *testing.T, text []byte) *fmindex.Index {
	t.Helper()
	return fmindex.Build(text, fmindex.Options{})
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	st := &State{
		Version:       Version,
		Fingerprint:   "abc123",
		BatchSize:     64,
		Batches:       3,
		Reads:         192,
		Offset:        40961,
		Line:          768,
		RNGDraws:      17,
		SAMBytes:      99182,
		Mapped:        180,
		Locations:     411,
		Dropped:       2,
		SimSeconds:    1.25,
		EnergyJ:       3.5,
		DeviceSeconds: map[string]float64{"cpu": 1.25},
		Faults: mapper.FaultStats{
			Retries:        2,
			SkippedRecords: 1,
			SkipReasons:    map[string]int{"length-mismatch": 1},
		},
		FaultOrdinals: map[string]cl.FaultOrdinals{"cpu": {Enqueues: 7, Allocs: 21}},
	}
	if err := Save(path, st); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := os.ReadFile(path)
	if err := Save(path, got); err != nil {
		t.Fatal(err)
	}
	b2, _ := os.ReadFile(path)
	if !bytes.Equal(b1, b2) {
		t.Error("save is not deterministic: re-saving a loaded state changed the bytes")
	}
	if got.Offset != st.Offset || got.RNGDraws != st.RNGDraws || got.SAMBytes != st.SAMBytes {
		t.Errorf("round-trip lost position state: %+v", got)
	}
	if got.FaultOrdinals["cpu"] != st.FaultOrdinals["cpu"] {
		t.Errorf("round-trip lost fault ordinals: %+v", got.FaultOrdinals)
	}
	if got.Faults.SkipReasons["length-mismatch"] != 1 {
		t.Errorf("round-trip lost skip reasons: %+v", got.Faults)
	}
}

func TestLoadRejectsUnknownVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := Save(path, &State{Version: Version + 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Error("newer format version must be rejected")
	}
}

func TestVerifyMismatchIsTyped(t *testing.T) {
	st := &State{Fingerprint: "old"}
	err := st.Verify("new")
	var me *MismatchError
	if !errors.As(err, &me) {
		t.Fatalf("want *MismatchError, got %v", err)
	}
	if me.Got != "old" || me.Want != "new" {
		t.Errorf("mismatch fields: %+v", me)
	}
	if err := st.Verify("old"); err != nil {
		t.Errorf("matching fingerprint must verify: %v", err)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	text := bytes.Repeat([]byte{0, 1, 2, 3, 2, 1}, 400)
	ix := testIndex(t, text)
	opt := mapper.Options{MaxErrors: 4, MaxLocations: 100}

	base, err := Fingerprint(ix, opt, "selector=dp")
	if err != nil {
		t.Fatal(err)
	}
	same, err := Fingerprint(ix, opt, "selector=dp")
	if err != nil {
		t.Fatal(err)
	}
	if base != same {
		t.Error("fingerprint is not deterministic")
	}
	// Defaulted and explicit-default options must hash identically: a
	// resume that spells out the defaults is not a different run.
	expl, err := Fingerprint(ix, opt.WithDefaults(), "selector=dp")
	if err != nil {
		t.Fatal(err)
	}
	if expl != base {
		t.Error("explicit default options changed the fingerprint")
	}

	for name, fp := range map[string]func() (string, error){
		"options": func() (string, error) {
			o := opt
			o.MaxErrors = 5
			return Fingerprint(ix, o, "selector=dp")
		},
		"extras": func() (string, error) {
			return Fingerprint(ix, opt, "selector=coral")
		},
		"index": func() (string, error) {
			text2 := append(append([]byte(nil), text...), 0, 1, 2)
			return Fingerprint(testIndex(t, text2), opt, "selector=dp")
		},
	} {
		got, err := fp()
		if err != nil {
			t.Fatal(err)
		}
		if got == base {
			t.Errorf("changing %s did not change the fingerprint", name)
		}
	}
}

func TestSaveIsAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := Save(path, &State{Version: Version, Fingerprint: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := Save(path, &State{Version: Version, Fingerprint: "b", Batches: 1}); err != nil {
		t.Fatal(err)
	}
	st, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Fingerprint != "b" {
		t.Errorf("overwrite lost the newer state: %+v", st)
	}
	ents, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Errorf("temp file left behind after rename: %d directory entries", len(ents))
	}
}

func TestCheckDir(t *testing.T) {
	t.Run("good", func(t *testing.T) {
		if err := CheckDir(t.TempDir()); err != nil {
			t.Fatalf("CheckDir on a writable temp dir: %v", err)
		}
	})

	t.Run("missing", func(t *testing.T) {
		err := CheckDir(filepath.Join(t.TempDir(), "nope"))
		var de *DirError
		if !errors.As(err, &de) {
			t.Fatalf("err = %v, want *DirError", err)
		}
		if !os.IsNotExist(de.Err) {
			t.Errorf("cause = %v, want not-exist", de.Err)
		}
	})

	t.Run("not a directory", func(t *testing.T) {
		file := filepath.Join(t.TempDir(), "plain")
		if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		err := CheckDir(file)
		var de *DirError
		if !errors.As(err, &de) {
			t.Fatalf("err = %v, want *DirError", err)
		}
		if de.Dir != file {
			t.Errorf("DirError.Dir = %q, want %q", de.Dir, file)
		}
	})

	t.Run("probe leaves no residue", func(t *testing.T) {
		dir := t.TempDir()
		if err := CheckDir(dir); err != nil {
			t.Fatal(err)
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 0 {
			t.Errorf("probe left %d entries behind", len(ents))
		}
	})
}

// TestSaveSyncsDirectory can't force a power cut, but it can at least
// pin that Save still works when the parent directory requires an
// explicit open to sync — and that a Save into a directory removed
// out from under it fails rather than silently dropping durability.
func TestSaveSyncsDirectory(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	if err := Save(path, &State{Version: Version, Fingerprint: "a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err != nil {
		t.Fatal(err)
	}

	gone := filepath.Join(dir, "sub")
	if err := os.Mkdir(gone, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(gone); err != nil {
		t.Fatal(err)
	}
	if err := Save(filepath.Join(gone, "run.ckpt"), &State{Version: Version}); err == nil {
		t.Error("Save into a removed directory succeeded")
	}
}

// TestFingerprintGolden pins both fingerprints for a fixed index and
// options. The values were produced by the encoding checkpoints already
// on disk carry; if this test fails, those checkpoints would no longer
// resume.
func TestFingerprintGolden(t *testing.T) {
	ix := testIndex(t, bytes.Repeat([]byte{0, 1, 2, 3, 2, 1}, 400))
	opt := mapper.Options{MaxErrors: 4, MaxLocations: 100, Prefilter: mapper.PrefilterGateKeeper}
	fp, err := Fingerprint(ix, opt, "batch=64", "lenient=true")
	if err != nil {
		t.Fatal(err)
	}
	if want := "fd0a4032ebdfd2d48d2e622785a2c7a0"; fp != want {
		t.Errorf("Fingerprint = %s, want %s", fp, want)
	}
	var digest [32]byte
	for i := range digest {
		digest[i] = byte(i)
	}
	if got, want := FingerprintDigest(digest, opt, "batch=64", "lenient=true"), "717c340f64889e908c177d5949fbe412"; got != want {
		t.Errorf("FingerprintDigest = %s, want %s", got, want)
	}
}
