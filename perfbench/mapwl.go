package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/checkpoint"
)

// setupProbes is how many times a run measures set-up; setup_s is
// their median.
const setupProbes = 7

// runMap measures a `repute map` workload: set-up probes on a one-read
// FASTQ, then back-to-back runs over the workload's reads for the run
// length. Every run's SAM must equal the first run's byte for byte and
// every run must report the same simulated time.
func runMap(e *env, spec mapSpec) (*result, error) {
	res := newResult()
	rs, err := e.genReads(spec.profile, spec.reads)
	if err != nil {
		return nil, err
	}
	readsFq := filepath.Join(e.work, "reads.fq")
	oneFq := filepath.Join(e.work, "one.fq")
	if err := os.WriteFile(readsFq, rs.fastq(), 0o644); err != nil {
		return nil, err
	}
	if err := os.WriteFile(oneFq, rs.slice(0, 1).fastq(), 0o644); err != nil {
		return nil, err
	}
	ckpt := filepath.Join(e.work, "run.ckpt")
	out := filepath.Join(e.work, "out.sam")

	// Set-up: the time to a first result on a one-record input, which is
	// process start, index load and pipeline construction.
	var setups []float64
	for i := 0; i < setupProbes; i++ {
		os.Remove(ckpt)
		res.attempted++
		p, err := runProc(e.repute, spec.args(e.index, oneFq, ckpt, out)...)
		if err != nil {
			res.miss("set-up probe: %v", err)
			continue
		}
		setups = append(setups, p.wall.Seconds())
	}

	var (
		walls, rss []float64
		firstSAM   []byte
		firstSim   float64
	)
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < e.seconds; i++ {
		os.Remove(ckpt)
		os.Remove(out)
		res.attempted++
		p, err := runProc(e.repute, spec.args(e.index, readsFq, ckpt, out)...)
		if err != nil {
			res.miss("map run %d: %v", i, err)
			continue
		}
		samText, err := os.ReadFile(out)
		if err != nil {
			res.fail("map run %d: %v", i, err)
			continue
		}
		st, err := checkpoint.Load(ckpt)
		if err != nil {
			res.fail("map run %d: %v", i, err)
			continue
		}
		if firstSAM == nil {
			firstSAM, firstSim = samText, st.SimSeconds
			if st.Reads != len(rs.reads) {
				res.fail("map run %d: mapped %d of %d reads", i, st.Reads, len(rs.reads))
			}
		} else if string(samText) != string(firstSAM) {
			res.fail("map run %d: SAM %s differs from the first run's %s", i, samDigest(samText), samDigest(firstSAM))
			continue
		} else if st.SimSeconds != firstSim {
			res.fail("map run %d: sim seconds %v differ from the first run's %v", i, st.SimSeconds, firstSim)
			continue
		}
		walls = append(walls, p.wall.Seconds())
		rss = append(rss, p.rssMiB)
	}
	if len(walls) == 0 || len(setups) == 0 {
		return nil, fmt.Errorf("no successful %s run", spec.selector)
	}
	sens, err := rs.sensitivity(firstSAM, spec.errors)
	if err != nil {
		res.fail("sensitivity: %v", err)
	}

	rates := make([]float64, len(walls))
	for i, w := range walls {
		rates[i] = float64(len(rs.reads)) / w
	}
	m := res.metrics
	m["reads_per_s"] = median(rates)
	m["setup_s"] = median(setups)
	m["peak_rss_mb"] = median(rss)
	m["sim_seconds"] = firstSim
	m["sensitivity_pct"] = sens
	m["success_pct"] = 100 * float64(res.attempted-res.failed) / float64(res.attempted)
	m["job_latency_p50_s"] = median(walls)
	m["job_latency_p90_s"] = quantile(walls, 0.9)
	res.note("# %d map runs of %d reads (job = one run), wall min %.3f s, median %.3f s, max %.3f s; %d set-up probes; SAM sha256 %s",
		len(walls), len(rs.reads), quantile(walls, 0), median(walls), quantile(walls, 1), len(setups), samDigest(firstSAM))
	if p := tailPercentile(len(walls)); p < 90 {
		res.note("# job_latency_p90_s rests on %d runs: fewer than %d beyond p90", len(walls), minBeyond)
	}
	return res, nil
}
