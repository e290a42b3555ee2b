package main

// Single-end map mode: `repute map` reads FASTQ incrementally and maps
// it batch by batch through serve.RunStream — the resume engine
// `repute serve` runs its jobs through too. With -batch N it holds
// O(N) reads in memory; the default -batch 0 maps the whole input as
// one batch. With -checkpoint the run becomes crash-safe — every batch
// boundary persists a checkpoint binding the SAM prefix, the input
// offset, the RNG draw count and the device fault ordinals, so a killed
// run resumed with -resume produces output bit-identical to an
// uninterrupted one (DESIGN.md §11).

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/genome"
	"repro/internal/serve"
)

// runMapStream runs every single-end map: serve.RunStream does the
// mapping and the resume protocol; this front end adds signal handling,
// the test hooks and the summary.
func runMapStream(p *core.Pipeline, g *genome.Genome, run serve.StreamRun) error {
	// Graceful shutdown: the first SIGINT/SIGTERM requests a stop at the
	// next batch boundary (OnBatch returns core.Stop after that boundary's
	// checkpoint is durable); a second signal falls back to default
	// delivery and kills the process — which is exactly the crash the
	// checkpoint protocol survives. An unbatched run has only one
	// boundary, at the end, so it keeps the default delivery and a
	// signal ends it at once.
	var stopped atomic.Bool
	if run.Batch > 0 {
		sigCh := make(chan os.Signal, 1)
		signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sigCh)
		go func() {
			<-sigCh
			stopped.Store(true)
			signal.Stop(sigCh)
		}()
	}

	killAfter := envInt("REPUTE_KILL_AFTER_BATCH")
	delay := time.Duration(envInt("REPUTE_STREAM_BATCH_DELAY_MS")) * time.Millisecond
	batchesThisRun := 0
	run.OnBatch = func(*checkpoint.State) error {
		batchesThisRun++
		if killAfter > 0 && batchesThisRun >= killAfter {
			// Test hook: die as abruptly as SIGKILL would, after this
			// batch's checkpoint is durable.
			os.Exit(137)
		}
		time.Sleep(delay)
		if stopped.Load() {
			return core.Stop
		}
		return nil
	}

	wallStart := time.Now()
	st, err := serve.RunStream(context.Background(), p, g, run)
	interrupted := errors.Is(err, core.Stop)
	if err != nil && !interrupted {
		return err
	}
	wall := time.Since(wallStart)

	if st.Dropped > 0 {
		fmt.Fprintf(os.Stderr, "dropped %d boundary-spanning alignment(s)\n", st.Dropped)
	}
	fmt.Fprintf(os.Stderr,
		"mapped %d reads in %d batch(es): %d with locations, %d total locations\n"+
			"simulated mapping time %.3f s, marginal energy %.2f J (host wall %s)\n",
		st.Reads, st.Batches, st.Mapped, st.Locations,
		st.SimSeconds, st.EnergyJ, wall.Round(time.Millisecond))
	devs := make([]string, 0, len(st.DeviceSeconds))
	for dev := range st.DeviceSeconds {
		devs = append(devs, dev)
	}
	sort.Strings(devs)
	for _, dev := range devs {
		fmt.Fprintf(os.Stderr, "  %-32s %.3f s busy\n", dev, st.DeviceSeconds[dev])
	}
	if st.Faults.SkippedRecords > 0 {
		fmt.Fprintf(os.Stderr, "skipped %d malformed/unmappable record(s): %s\n",
			st.Faults.SkippedRecords, formatReasons(st.Faults.SkipReasons))
	}
	if interrupted {
		if run.CheckpointPath != "" {
			return fmt.Errorf("map: interrupted after %d read(s); resume with -resume -checkpoint %s",
				st.Reads, run.CheckpointPath)
		}
		return fmt.Errorf("map: interrupted after %d read(s)", st.Reads)
	}
	return nil
}

// formatReasons renders a reason→count map deterministically.
func formatReasons(m map[string]int) string {
	reasons := make([]string, 0, len(m))
	for r := range m {
		reasons = append(reasons, r)
	}
	sort.Strings(reasons)
	s := ""
	for i, r := range reasons {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s=%d", r, m[r])
	}
	return s
}

// envInt reads a non-negative integer environment hook (0 when unset or
// malformed).
func envInt(name string) int {
	v := os.Getenv(name)
	if v == "" {
		return 0
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0
	}
	return n
}
