package serve

// The resumable streaming run behind every single-end `repute map` and
// the service's job attempts, and the one constructor that turns an
// index artifact into their pipeline. RunStream owns the whole resume
// protocol (DESIGN.md §11) so the two front ends cannot drift: load and
// verify the checkpoint, arm the fault plan and re-seat its ordinals,
// cut the SAM back to the checkpointed prefix, seek the scanner and
// fast-forward the ambiguity codec, then map batch by batch, making each
// batch's SAM bytes and checkpoint durable before the caller's per-batch
// hook runs.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/checkpoint"
	"repro/internal/cl"
	"repro/internal/core"
	"repro/internal/fastx"
	"repro/internal/genome"
	"repro/internal/index"
	"repro/internal/mapper"
	"repro/internal/sam"
)

// StreamRun describes one resumable streaming map run.
type StreamRun struct {
	// ReadsPath is the FASTQ input; SAMPath receives the output, or
	// standard output when empty.
	ReadsPath string
	SAMPath   string
	// CheckpointPath is where every batch boundary is persisted; empty
	// runs without checkpoints. A checkpoint needs a SAMPath, since resume
	// cuts that file back to the checkpointed prefix. Resume continues
	// the run recorded there.
	CheckpointPath string
	Resume         bool
	// Lenient skips malformed records instead of stopping at the first.
	Lenient bool
	// Batch is the reads per batch, <= 0 for one batch holding the whole
	// input; a resumed checkpoint must have been written with the same
	// size, or batch boundaries would shift.
	Batch   int
	Cigar   bool
	Options mapper.Options
	// Fingerprint binds the checkpoint to the index and run options (see
	// checkpoint.Fingerprint and FingerprintDigest).
	Fingerprint string
	// Faults, when non-nil, is armed on the pipeline's devices — only the
	// Kth one when Faults.Device is K — before the first batch, with the
	// checkpointed ordinals re-seated on resume.
	Faults *cl.FaultPlan
	// OnBatch, when non-nil, runs after each batch's SAM records and
	// checkpoint are durable and sees the cumulative state, which it must
	// not modify. Returning core.Stop ends the run cleanly at that
	// boundary; any other error aborts it.
	OnBatch func(st *checkpoint.State) error
}

// ShortSAMError reports a resume whose SAM file is shorter than the
// prefix its checkpoint recorded. The checkpoint vouches for bytes that
// are gone, so the run refuses to continue and leaves the file as it is.
type ShortSAMError struct {
	Path string
	Size int64 // the file's size
	Want int64 // the checkpoint's sam_bytes
}

func (e *ShortSAMError) Error() string {
	return fmt.Sprintf("resume: %s holds %d bytes but its checkpoint recorded %d (SAM output lost data the checkpoint claims was written)",
		e.Path, e.Size, e.Want)
}

// RunStream maps run.ReadsPath through p's MapStream, resuming from the
// checkpoint when run.Resume is set. It returns the final cumulative
// state, and on a clean stop requested by OnBatch that state together
// with core.Stop; a resumed run ends byte-identical, SAM and checkpoint,
// to one that was never interrupted.
func RunStream(ctx context.Context, p *core.Pipeline, g *genome.Genome, run StreamRun) (*checkpoint.State, error) {
	if run.SAMPath == "" && run.CheckpointPath != "" {
		return nil, errors.New("serve: a checkpointed run needs a SAM file, not standard output")
	}
	st := &checkpoint.State{
		Version:       checkpoint.Version,
		Fingerprint:   run.Fingerprint,
		BatchSize:     run.Batch,
		DeviceSeconds: map[string]float64{},
	}
	if run.Resume {
		loaded, err := checkpoint.Load(run.CheckpointPath)
		if err != nil {
			return nil, err
		}
		if err := loaded.Verify(run.Fingerprint); err != nil {
			return nil, err
		}
		if loaded.BatchSize != run.Batch {
			return nil, fmt.Errorf("checkpoint: batch size %d differs from -batch %d (batch boundaries would shift)",
				loaded.BatchSize, run.Batch)
		}
		st = loaded
		if st.DeviceSeconds == nil {
			st.DeviceSeconds = map[string]float64{}
		}
	}

	// Arm the fault plan before the first Map so the resumed ordinal
	// counters can be seated; Pipeline.Map would otherwise arm an
	// environment plan lazily with fresh counters and the injection
	// schedule would replay from the start instead of continuing.
	devs := p.Devices()
	if plan := run.Faults; plan != nil {
		armed := devs
		if plan.Device > 0 {
			if plan.Device > len(devs) {
				return nil, fmt.Errorf("fault directive device=%d exceeds the run's %d device(s)", plan.Device, len(devs))
			}
			armed = devs[plan.Device-1 : plan.Device]
		}
		for _, d := range armed {
			d.InstallFaults(plan)
			if o, ok := st.FaultOrdinals[d.Name]; ok {
				d.RestoreFaultOrdinals(o)
			}
		}
	}

	// out is nil when the SAM goes to standard output, which is neither
	// probed, synced nor closed here.
	out, sw, err := openSAM(run.SAMPath, g, run.Resume, st.SAMBytes)
	if err != nil {
		return nil, err
	}
	if out != nil {
		defer out.Close()
	}

	rf, err := os.Open(run.ReadsPath)
	if err != nil {
		return nil, err
	}
	defer rf.Close()
	if _, err := rf.Seek(st.Offset, io.SeekStart); err != nil {
		return nil, err
	}
	sc := fastx.NewScanner(rf, fastx.ScanOptions{
		Format:     fastx.FormatFASTQ,
		Lenient:    run.Lenient,
		Name:       run.ReadsPath,
		Tracer:     p.Tracer(),
		BaseOffset: st.Offset,
		BaseLine:   st.Line,
	})
	codec := fastx.NewCodec(0)
	codec.FastForward(st.RNGDraws)
	src := core.NewScanSource(sc, codec, run.Batch, run.Lenient, run.Options.MaxErrors, st.Reads)

	// commit makes the SAM written so far durable and then records it in
	// the checkpoint — in that order, so a checkpoint never claims bytes
	// a power cut could still take back.
	commit := func() error {
		if err := sw.Flush(); err != nil || out == nil {
			return err
		}
		pos, err := out.Seek(0, io.SeekCurrent)
		if err != nil {
			return err
		}
		st.SAMBytes = pos
		if run.CheckpointPath == "" {
			return nil
		}
		if err := out.Sync(); err != nil {
			return err
		}
		return checkpoint.Save(run.CheckpointPath, st)
	}

	// baseFaults preserves the resumed run's cumulative tallies: per-batch
	// device-fault stats accumulate on top, while the skip tallies are
	// recomputed as base + this process's scanner totals.
	baseFaults := st.Faults
	emit := func(b core.StreamBatch, res *mapper.Result) error {
		for i, name := range b.Names {
			dropped, err := WriteReadAlignments(sw, g, p, name, b.Reads[i],
				res.Mappings[i], run.Cigar, run.Options.MaxErrors)
			if err != nil {
				return err
			}
			st.Dropped += dropped
		}
		st.Batches++
		st.Reads = b.Start + len(b.Reads)
		for _, ms := range res.Mappings {
			if len(ms) > 0 {
				st.Mapped++
			}
			st.Locations += len(ms)
		}
		st.SimSeconds += res.SimSeconds
		st.EnergyJ += res.EnergyJ
		for dev, sec := range res.DeviceSeconds {
			st.DeviceSeconds[dev] += sec
		}
		st.Cost.Add(res.Cost)
		st.Faults.Add(res.Faults)
		applySkips(st, baseFaults, b.Token.Skipped)
		st.Offset = b.Token.Offset
		st.Line = b.Token.Line
		st.RNGDraws = b.Token.RNGDraws
		st.FaultOrdinals = snapshotOrdinals(devs)
		if err := commit(); err != nil {
			return err
		}
		if run.OnBatch != nil {
			return run.OnBatch(st)
		}
		return nil
	}

	sr, err := p.MapStream(ctx, src, run.Options, emit)
	stopped := errors.Is(err, core.Stop)
	if err != nil && !stopped {
		return nil, err
	}
	// Trailing lenient skips (between the last full batch and EOF) arrive
	// with the final empty batch; MapStream reports this process's total
	// scanner tallies in sr.Faults, so fold them onto the resumed baseline.
	if !stopped {
		applySkips(st, baseFaults, fastx.SkipStats{
			Records: sr.Faults.SkippedRecords,
			Reasons: sr.Faults.SkipReasons,
		})
	}
	if err := commit(); err != nil {
		return nil, err
	}
	if out != nil {
		if err := out.Close(); err != nil {
			return nil, err
		}
	}
	if stopped {
		return st, core.Stop
	}
	return st, nil
}

// NewPipeline builds the pipeline for an index artifact over devs: shard
// dispatch for a sharded artifact, otherwise read-split over its one
// index. It also returns the artifact's coordinate-only genome, which is
// all SAM emission needs; the reference text lives in the indexes. A
// sharded artifact rejects cfg.Split, since each device already holds
// one reference slice.
func NewPipeline(f *index.File, devs []*cl.Device, cfg core.Config) (*core.Pipeline, *genome.Genome, error) {
	g, err := genome.FromContigs(f.Meta.Contigs)
	if err != nil {
		return nil, nil, err
	}
	var p *core.Pipeline
	if f.Meta.Sharded() {
		shards := make([]core.Shard, len(f.Indexes))
		for i, s := range f.Meta.Shards {
			shards[i] = core.Shard{
				Index:      f.Indexes[i],
				OwnStart:   s.OwnStart,
				OwnEnd:     s.OwnEnd,
				SliceStart: s.SliceStart,
				SliceEnd:   s.SliceEnd,
			}
		}
		p, err = core.NewSharded(shards, f.Meta.Overlap, devs, cfg)
	} else {
		p, err = core.NewFromIndex(f.Indexes[0], devs, cfg)
	}
	if err != nil {
		return nil, nil, err
	}
	return p, g, nil
}

// openSAM opens the run's SAM output. An empty path writes a headered
// SAM to standard output and returns a nil file. A fresh run creates a
// headered file. A resume cuts the file back to the checkpointed prefix and
// appends header-less records: a crash can leave flushed bytes past that
// prefix but never fewer, because the prefix was fsynced before the
// checkpoint recorded it — so a shorter file is refused with a
// *ShortSAMError, untouched, rather than padded out.
func openSAM(path string, g *genome.Genome, resume bool, samBytes int64) (*os.File, *sam.Writer, error) {
	refs := make([]sam.RefSeq, len(g.Contigs()))
	for i, c := range g.Contigs() {
		refs[i] = sam.RefSeq{Name: c.Name, Length: c.Length}
	}
	if path == "" {
		sw, err := sam.NewMultiWriter(os.Stdout, refs)
		return nil, sw, err
	}
	if !resume {
		out, err := os.Create(path)
		if err != nil {
			return nil, nil, err
		}
		sw, err := sam.NewMultiWriter(out, refs)
		if err != nil {
			out.Close()
			return nil, nil, err
		}
		return out, sw, nil
	}
	out, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, err
	}
	fi, err := out.Stat()
	if err == nil && fi.Size() < samBytes {
		err = &ShortSAMError{Path: path, Size: fi.Size(), Want: samBytes}
	}
	if err == nil {
		err = out.Truncate(samBytes)
	}
	if err == nil {
		_, err = out.Seek(samBytes, io.SeekStart)
	}
	if err != nil {
		out.Close()
		return nil, nil, err
	}
	return out, sam.NewAppendWriter(out, refs[0].Name), nil
}

// applySkips sets st's skip tallies to the resumed baseline plus this
// process's scanner totals, always with a fresh map.
func applySkips(st *checkpoint.State, base mapper.FaultStats, sk fastx.SkipStats) {
	st.Faults.SkippedRecords = base.SkippedRecords + sk.Records
	if base.SkipReasons == nil && sk.Reasons == nil {
		st.Faults.SkipReasons = nil
		return
	}
	m := make(map[string]int, len(base.SkipReasons)+len(sk.Reasons))
	for r, n := range base.SkipReasons {
		m[r] += n
	}
	for r, n := range sk.Reasons {
		m[r] += n
	}
	st.Faults.SkipReasons = m
}

// snapshotOrdinals captures every armed device's fault ordinals.
func snapshotOrdinals(devices []*cl.Device) map[string]cl.FaultOrdinals {
	var m map[string]cl.FaultOrdinals
	for _, d := range devices {
		if o, ok := d.FaultOrdinals(); ok {
			if m == nil {
				m = map[string]cl.FaultOrdinals{}
			}
			m[d.Name] = o
		}
	}
	return m
}
