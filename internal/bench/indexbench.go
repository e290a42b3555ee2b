package bench

// Index persistence benchmark: the point of the on-disk artifact is that
// loading it (checksum verify + deserialize) is much cheaper than the
// rebuild-every-run path (SA-IS suffix sort + BWT + Occ table). This
// experiment measures both on the dataset's reference, plus the sharded
// variants, and reports the load-vs-rebuild speedup. BENCH_index.json at
// the repository root is a committed run of it.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/fmindex"
	"repro/internal/genome"
	"repro/internal/index"
)

// IndexRow is one artifact configuration's measurements.
type IndexRow struct {
	// Shards and SARate identify the configuration.
	Shards int `json:"shards"`
	SARate int `json:"sa_rate"`
	// BuildSec is the in-memory FM-index construction time — the cost
	// `map -ref` pays on every run.
	BuildSec float64 `json:"build_sec"`
	// WriteSec is the container serialization time (hash + write).
	WriteSec float64 `json:"write_sec"`
	// LoadSec is the verified container load time — the cost `map -index`
	// pays, including every section checksum and index validation.
	LoadSec float64 `json:"load_sec"`
	// InfoSec is the `index info` summary time (payloads skipped).
	InfoSec float64 `json:"info_sec"`
	// FileBytes is the artifact size on disk.
	FileBytes int64 `json:"file_bytes"`
	// Speedup is BuildSec / LoadSec: how much cheaper a verified load is
	// than rebuilding the index.
	Speedup float64 `json:"speedup"`
}

// IndexBench is the full measurement set.
type IndexBench struct {
	Scale    string     `json:"scale"`
	RefBases int        `json:"ref_bases"`
	Rows     []IndexRow `json:"rows"`
}

// timeIt returns the best-of-three wall time of f in seconds (minimum
// filters scheduler noise; the quantity of interest is intrinsic cost).
func timeIt(f func() error) (float64, error) {
	best := 0.0
	for i := 0; i < 3; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		if sec := time.Since(start).Seconds(); i == 0 || sec < best {
			best = sec
		}
	}
	return best, nil
}

// RunIndexBench measures build, save, verified-load and info times for a
// whole-reference artifact and a sharded one over the dataset reference.
func RunIndexBench(ds *Dataset) (*IndexBench, error) {
	g, err := genome.New([]string{"chr21s"}, [][]byte{ds.Ref})
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "repute-indexbench")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	b := &IndexBench{Scale: ds.Scale.Name, RefBases: g.Len()}
	for _, cfg := range []struct{ shards, rate int }{
		{1, 0},
		{1, 32},
		{4, 0},
	} {
		row := IndexRow{Shards: cfg.shards, SARate: cfg.rate}
		opts := fmindex.Options{SASampleRate: cfg.rate}

		// Rebuild cost: what every `map -ref` run pays before mapping.
		row.BuildSec, err = timeIt(func() error {
			if cfg.shards == 1 {
				fmindex.Build(g.Text(), opts)
				return nil
			}
			_, err := index.Build(g, cfg.shards, index.DefaultOverlap, opts)
			return err
		})
		if err != nil {
			return nil, err
		}

		f, err := index.Build(g, cfg.shards, index.DefaultOverlap, opts)
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, fmt.Sprintf("s%d-r%d.ridx", cfg.shards, cfg.rate))
		row.WriteSec, err = timeIt(func() error { return index.Save(path, f) })
		if err != nil {
			return nil, err
		}
		st, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		row.FileBytes = st.Size()

		row.LoadSec, err = timeIt(func() error {
			_, err := index.LoadFile(path)
			return err
		})
		if err != nil {
			return nil, err
		}
		row.InfoSec, err = timeIt(func() error {
			_, err := index.ReadInfoFile(path)
			return err
		})
		if err != nil {
			return nil, err
		}
		if row.LoadSec > 0 {
			row.Speedup = row.BuildSec / row.LoadSec
		}
		b.Rows = append(b.Rows, row)
	}
	return b, nil
}

// Render prints the measurement table.
func (b *IndexBench) Render(w io.Writer) {
	fmt.Fprintf(w, "Index persistence: load vs rebuild (%s scale, %d bp reference)\n",
		b.Scale, b.RefBases)
	fmt.Fprintf(w, "%-18s %10s %10s %10s %10s %12s %9s\n",
		"config", "build", "write", "load", "info", "file", "speedup")
	for _, r := range b.Rows {
		cfg := fmt.Sprintf("shards=%d", r.Shards)
		if r.SARate > 0 {
			cfg += fmt.Sprintf(" sa=1/%d", r.SARate)
		}
		fmt.Fprintf(w, "%-18s %9.1fms %9.1fms %9.1fms %9.1fms %11dB %8.1fx\n",
			cfg, r.BuildSec*1e3, r.WriteSec*1e3, r.LoadSec*1e3, r.InfoSec*1e3,
			r.FileBytes, r.Speedup)
	}
}
