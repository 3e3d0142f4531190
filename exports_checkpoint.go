package repro

import (
	"context"
	"fmt"

	"repro/internal/checkpoint"
)

// Checkpoint/restart re-exports: durable snapshots of gridding
// passes. Most callers only set
// ObservationConfig.CheckpointDir / CheckpointEvery and call
// ResumeStreamed after a crash; the types are exported for tests and
// for operators inspecting a checkpoint directory.

type (
	// CheckpointSnapshot is one durable point of a streamed gridding
	// pass: the partially accumulated grid, the chunk cursor, and the
	// fault-tolerance counters (see internal/checkpoint.Snapshot).
	CheckpointSnapshot = checkpoint.Snapshot
	// CheckpointEvent identifies a durability-critical point in the
	// scheduler's checkpoint protocol.
	CheckpointEvent = checkpoint.Event
	// CheckpointHook observes checkpoint events; the crash-injection
	// harness panics inside one to simulate kills (see
	// faultinject.CrashHook).
	CheckpointHook = checkpoint.Hook
)

// Checkpoint protocol events (crash points for the chaos harness).
const (
	// CheckpointChunkCommitted fires after a chunk is added to the
	// grid (serial scheduler only).
	CheckpointChunkCommitted = checkpoint.EventChunkCommitted
	// CheckpointBeforeWrite fires at a checkpoint barrier before the
	// snapshot file is opened.
	CheckpointBeforeWrite = checkpoint.EventBeforeWrite
	// CheckpointBeforeRename fires after the snapshot temp file is
	// synced, before the atomic rename publishes it.
	CheckpointBeforeRename = checkpoint.EventBeforeRename
	// CheckpointAfterWrite fires once the snapshot is durably in
	// place.
	CheckpointAfterWrite = checkpoint.EventAfterWrite
)

// Typed checkpoint failures, matched with errors.Is.
var (
	// ErrCheckpointCorrupt marks a snapshot file failing structural or
	// digest validation (torn write, truncation, bit rot).
	ErrCheckpointCorrupt = checkpoint.ErrCorrupt
	// ErrCheckpointVersion marks a snapshot of an incompatible format
	// version.
	ErrCheckpointVersion = checkpoint.ErrVersion
	// ErrCheckpointMismatch marks a valid snapshot that belongs to a
	// different observation (plan, grid size or chunking differ).
	ErrCheckpointMismatch = checkpoint.ErrMismatch
)

// LatestCheckpoint loads the newest valid snapshot in dir, scanning
// backwards past torn or corrupt files. It returns the snapshot, its
// path, and one note per skipped file; a nil snapshot with a nil
// error means the directory holds no usable checkpoint.
func LatestCheckpoint(dir string) (*CheckpointSnapshot, string, []string, error) {
	return checkpoint.LoadLatest(dir)
}

// checkSnapshot verifies that a snapshot belongs to this observation:
// same grid size, same plan content, same chunk size (the cursor is
// meaningless under different chunking). Visibilities are not
// fingerprinted — the caller must refill the same data, which the
// deterministic simulator and sky model guarantee here and an
// ingest-once visibility store guarantees in production.
func (o *Observation) checkSnapshot(sn *CheckpointSnapshot) error {
	chunkItems := o.Kernels.StreamChunkItems(len(o.Plan.Items))
	switch {
	case sn.GridSize != o.Config.GridSize:
		return fmt.Errorf("%w: snapshot grid is %d pixels, this observation grids %d",
			ErrCheckpointMismatch, sn.GridSize, o.Config.GridSize)
	case sn.ChunkItems != chunkItems:
		return fmt.Errorf("%w: snapshot cursor counts %d-item chunks, this run streams %d-item chunks",
			ErrCheckpointMismatch, sn.ChunkItems, chunkItems)
	case sn.PlanSum != checkpoint.PlanFingerprint(o.Plan):
		return fmt.Errorf("%w: snapshot plan fingerprint differs (different observation, layout or plan config)",
			ErrCheckpointMismatch)
	}
	return nil
}

// latestSnapshot loads the newest valid checkpoint of this observation
// for a resumed pass and restores its fault counters into rep.
// Unusable newest checkpoints fall back to their predecessors; nil
// means the directory holds no usable checkpoint and the pass restarts
// clean. Either fallback is recorded as a note in rep.
func (o *Observation) latestSnapshot(rep *FaultReport) (*CheckpointSnapshot, error) {
	sn, path, notes, err := checkpoint.LoadLatest(o.Config.CheckpointDir)
	if err != nil {
		return nil, err
	}
	for _, n := range notes {
		rep.AddNote(n)
	}
	if sn == nil {
		rep.AddNote("checkpoint: no usable snapshot found; clean restart from chunk 0")
		return nil, nil
	}
	if err := o.checkSnapshot(sn); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	rep.RestoreState(sn.Report)
	return sn, nil
}

// ResumeStreamed continues an interrupted gridding pass from the
// newest valid checkpoint in ObservationConfig.CheckpointDir: the
// snapshot's grid and fault counters are restored and only the chunks
// past its cursor are gridded (writing further checkpoints at the
// same cursors the uninterrupted run would have used). Unusable
// newest checkpoints fall back to their predecessors; a directory
// with no usable checkpoint degrades to a clean full run. Either way
// the fallback is recorded as a note in the returned report, and with
// Workers <= 1 the resumed grid is bit-identical to an uninterrupted
// pass.
//
// The observation must be built with the same configuration and data
// as the interrupted run: a snapshot from a different plan, grid size
// or chunk size fails with ErrCheckpointMismatch (Workers may differ —
// the chunking of a checkpointed pass does not depend on it).
// Cancellation behaves as in GridAllFT.
func (o *Observation) ResumeStreamed(ctx context.Context, prov ATermProvider, ft FaultConfig) (*Grid, StageTimes, *FaultReport, error) {
	return o.gridPass(ctx, prov, ft, true)
}
