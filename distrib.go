package repro

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/distrib"
)

// Distributed multi-process imaging: the facade side of
// internal/distrib. The distrib package owns partition math, the
// reduction wire protocol and the coordinator, but never imports the
// facade; RunDistribWorker and RunDistributed are the adapters that
// turn its WorkerSpecs into observation builds and streamed gridding
// passes — in-process goroutine workers by default, exec'd
// cmd/idgworker processes under cmd/idgdistrib.

type (
	// DistribAxis selects the partition axis (rows or W-planes).
	DistribAxis = distrib.Axis
	// DistribWorkerSpec identifies one worker attempt (index, axis,
	// resume flag, coordinator address).
	DistribWorkerSpec = distrib.WorkerSpec
	// DistribLauncher starts worker attempts for the coordinator.
	DistribLauncher = distrib.Launcher
	// DistribLauncherFunc adapts a function to DistribLauncher.
	DistribLauncherFunc = distrib.LauncherFunc
	// DistribSummary reports restarts, discarded streams, all partial
	// fingerprints, the coordinator's stage times and the in-process
	// workers' stage times of a run.
	DistribSummary = distrib.Summary
	// DistribWorkerTimes is where one worker attempt's wall time went:
	// build, fill, grid, deliver.
	DistribWorkerTimes = distrib.WorkerTimes
	// CheckpointHook observes checkpoint events; the crash-injection
	// harness panics inside one to simulate kills (see
	// faultinject.CrashHook).
	CheckpointHook = checkpoint.Hook
)

// DistribRows partitions by uv row band (subgrid centre), the bands
// balanced by visibility count.
const DistribRows = distrib.AxisRows

// ParseDistribAxis converts the CLI spellings "rows" / "wplanes".
func ParseDistribAxis(s string) (DistribAxis, error) { return distrib.ParseAxis(s) }

// DistribWorkerOptions configures one worker process (or in-process
// worker goroutine) of a distributed run.
type DistribWorkerOptions struct {
	// Config is the full observation every worker must agree on.
	// Its CheckpointDir/CheckpointEvery are overridden per worker:
	// CheckpointDir is replaced by this worker's private directory
	// (checkpoints of different partitions must never mix).
	Config ObservationConfig
	// Model fills the worker's visibilities (every worker predicts
	// the full visibility set; gridding touches only its partition).
	Model SkyModel
	// Workers/Index/Axis assign the partition.
	Workers int
	Index   int
	Axis    DistribAxis
	// Resume continues from CheckpointDir instead of starting fresh; a
	// newest snapshot of another sub-plan is not resumed but replaced.
	Resume bool
	// CoordinatorAddr is where the partial grid is delivered.
	CoordinatorAddr string
	// CheckpointDir is this worker's private checkpoint directory;
	// empty disables checkpointing (and Resume degrades to a fresh
	// run).
	CheckpointDir string
	// Fault is the per-item failure policy of the gridding pass.
	Fault FaultConfig
	// CrashHook, when set, is installed as the checkpoint hook — the
	// crash-injection seam (see faultinject.CrashHook).
	CrashHook CheckpointHook
	// ChunkItems overrides the gridding pass's work items per
	// chunk (<= 0: the scheduler default). Small partitions need small
	// chunks for checkpoints — and kills — to land mid-stream.
	ChunkItems int
	// ReferenceKernels runs the reference (unbatched) kernel path, so
	// the partial's bits do not depend on host FMA/AVX2 dispatch — the
	// setting under which a 1-worker distributed run reproduces the
	// committed golden grid hash exactly.
	ReferenceKernels bool
	// MaxFramePayload caps reduction frames (<= 0:
	// frame.DefaultMaxPayload); a cap below one band row of the grid
	// plus the band header is a *ConfigError.
	MaxFramePayload int
}

// RunDistribWorker executes one worker attempt end to end: build the
// observation, filter the plan to this worker's partition, fill the
// visibilities from the model, grid the partition (resuming from the
// worker's checkpoint when asked), and deliver the partial grid to the
// coordinator. It returns the times of the stages it completed.
//
// Bit-reproducibility of a killed-and-resumed worker follows the
// single-process rule: with Config.Workers <= 1 the resumed partial is
// bit-identical to an uninterrupted one, so the whole distributed run
// (fixed reduction tree) hashes identically with and without kills.
func RunDistribWorker(ctx context.Context, opt DistribWorkerOptions) (DistribWorkerTimes, error) {
	return runDistribWorker(ctx, opt, nil)
}

// runDistribWorker is RunDistribWorker over the coordinator's geometry
// when the worker shares its process, over its own when geo is nil.
func runDistribWorker(ctx context.Context, opt DistribWorkerOptions, geo *geometry) (times DistribWorkerTimes, err error) {
	if opt.Workers < 1 || opt.Index < 0 || opt.Index >= opt.Workers {
		return times, fmt.Errorf("repro: worker %d of %d is not a valid assignment", opt.Index, opt.Workers)
	}
	if err := checkFramePayload(opt.MaxFramePayload, opt.Config.GridSize); err != nil {
		return times, err
	}
	mark := time.Now()
	lap := func(d *time.Duration) { *d, mark = time.Since(mark), time.Now() }
	cfg := opt.Config
	cfg.CheckpointDir = opt.CheckpointDir
	if cfg.CheckpointDir == "" {
		cfg.CheckpointEvery = 0
	}
	if geo == nil {
		if geo, err = cfg.buildGeometry(cfg.Workers); err != nil {
			return times, err
		}
	}
	o, err := newObservation(cfg, geo)
	if err != nil {
		return times, err
	}
	if o.Plan, err = distrib.FilterPlan(o.Plan, opt.Axis, opt.Workers, opt.Index); err != nil {
		return times, err
	}
	if opt.CrashHook != nil || opt.ChunkItems > 0 || opt.ReferenceKernels {
		p := o.Kernels.Params()
		if opt.CrashHook != nil {
			p.CheckpointHook = opt.CrashHook
		}
		if opt.ChunkItems > 0 {
			p.StreamChunkItems = opt.ChunkItems
		}
		if opt.ReferenceKernels {
			p.DisableBatching = true
		}
		if o.Kernels, err = NewKernels(p); err != nil {
			return times, err
		}
	}
	planSum := checkpoint.PlanFingerprint(o.Plan)
	lap(&times.Build)
	// Plan-scoped storage and fill: the worker holds and predicts only
	// its partition's samples (bit-identical to a full fill for
	// everything the partition grids), so both scale down with the
	// partition.
	if err := o.allocatePartitionVisibilities(); err != nil {
		return times, err
	}
	if err := o.FillFromModelPlan(opt.Model); err != nil {
		return times, err
	}
	lap(&times.Fill)

	resume := opt.Resume && opt.CheckpointDir != ""
	g, _, _, err := o.gridPass(ctx, nil, opt.Fault, resume)
	if resume && errors.Is(err, ErrCheckpointMismatch) {
		// The directory's newest snapshot is of another sub-plan (one
		// written under an earlier partition, say): not this worker's
		// to resume, so it grids its partition from the start.
		g, _, _, err = o.gridPass(ctx, nil, opt.Fault, false)
	}
	if err != nil {
		return times, err
	}
	lap(&times.Grid)
	spec := DistribWorkerSpec{
		Index: opt.Index, Workers: opt.Workers, Axis: opt.Axis,
		Resume: opt.Resume, CoordinatorAddr: opt.CoordinatorAddr,
	}
	err = distrib.Deliver(ctx, spec, planSum, g, opt.MaxFramePayload)
	lap(&times.Deliver)
	return times, err
}

// checkFramePayload rejects a reduction frame cap (<= 0: the default)
// too small for one band row of a gridSize-pixel grid: every band frame
// of the run would exceed it and the coordinator discard every stream.
func checkFramePayload(maxPayload, gridSize int) error {
	if need := distrib.MinPayload(gridSize); maxPayload > 0 && maxPayload < need {
		return &ConfigError{Field: "MaxFramePayload",
			Reason: fmt.Sprintf("%d bytes cannot carry one band row of a %d-pixel grid; the minimum is %d", maxPayload, gridSize, need)}
	}
	return nil
}

// allocatePartitionVisibilities gives o visibility rows for the
// baselines its plan grids and none for the others: after the plan is
// filtered to a partition, the fill predicts and the pass reads only
// those rows, so the rest would be zeroed memory nothing touches.
func (o *Observation) allocatePartitionVisibilities() error {
	gridded := make([]bool, len(o.Simulator.Baselines()))
	for _, it := range o.Plan.Items {
		gridded[it.Baseline] = true
	}
	return o.allocateVisibilities(gridded)
}

// DistribOptions configures a whole distributed run.
type DistribOptions struct {
	// Config is the observation; see DistribWorkerOptions.Config.
	Config ObservationConfig
	// Model fills every worker's visibilities.
	Model SkyModel
	// Workers is the partition count; Axis the partition axis.
	Workers int
	Axis    DistribAxis
	// CheckpointRoot, when set, gives worker i the private checkpoint
	// directory CheckpointRoot/workerNN; empty disables checkpointing
	// (and with it meaningful restarts).
	CheckpointRoot string
	// MaxRestarts bounds per-worker relaunches after failures.
	MaxRestarts int
	// ChunkItems overrides each worker's streamed chunk size
	// (<= 0: the scheduler default).
	ChunkItems int
	// ReferenceKernels runs every worker on the reference (unbatched)
	// kernel path; see DistribWorkerOptions.ReferenceKernels.
	ReferenceKernels bool
	// MaxFramePayload caps reduction frames (<= 0:
	// frame.DefaultMaxPayload); a cap below one band row of the grid
	// plus the band header is a *ConfigError.
	MaxFramePayload int
	// Fault is the per-item failure policy inside each worker.
	Fault FaultConfig
	// Launcher overrides how worker attempts run. Nil runs each
	// attempt as an in-process goroutine over the coordinator's
	// geometry — the single-binary harness the conformance tests use.
	// cmd/idgdistrib supplies an exec launcher instead.
	Launcher DistribLauncher
	// WorkerHook, when set (and Launcher is nil), edits each
	// in-process attempt's options before it starts — the seam the
	// chaos suite uses to install crash hooks on chosen attempts.
	WorkerHook func(*DistribWorkerOptions, DistribWorkerSpec)
	// Logf receives coordinator progress notes.
	Logf func(format string, args ...any)
}

// RunDistributed runs one full distributed imaging pass: it takes the
// geometry from the plan cache server sessions share (building it on a
// miss) — to pin every worker's expected sub-plan fingerprint, and for
// the in-process workers to grid over — starts the coordinator,
// launches the workers, restarts failures with Resume set, and returns
// the tree-reduced grid and the run summary. More than one worker on
// the W-planes axis needs a W-stacked configuration (WStepLambda > 0);
// otherwise the run is a *ConfigError.
func RunDistributed(ctx context.Context, opt DistribOptions) (*Grid, *DistribSummary, error) {
	if opt.Workers < 1 {
		return nil, nil, fmt.Errorf("repro: need at least one distrib worker, got %d", opt.Workers)
	}
	if opt.Axis == distrib.AxisWPlanes && opt.Workers > 1 && opt.Config.WStepLambda <= 0 {
		return nil, nil, &ConfigError{Field: "WStepLambda",
			Reason: fmt.Sprintf("the wplanes axis splits W-layers, and without W-stacking worker 0 of %d would own every item", opt.Workers)}
	}
	if err := checkFramePayload(opt.MaxFramePayload, opt.Config.GridSize); err != nil {
		return nil, nil, err
	}
	start := time.Now()
	planner := opt.Config
	planner.CheckpointDir, planner.CheckpointEvery = "", 0
	// Config.Workers is each worker's share of the host; until they
	// start, a planner on a miss has all of it.
	geo, err := planner.cachedGeometry(0)
	if err != nil {
		return nil, nil, err
	}
	sums := make([][32]byte, opt.Workers)
	for i := range sums {
		sub, err := distrib.FilterPlan(geo.plan, opt.Axis, opt.Workers, i)
		if err != nil {
			return nil, nil, err
		}
		sums[i] = checkpoint.PlanFingerprint(sub)
	}
	co, err := distrib.New(distrib.Config{
		Workers:        opt.Workers,
		Axis:           opt.Axis,
		GridSize:       opt.Config.GridSize,
		ExpectPlanSums: sums,
		MaxPayload:     opt.MaxFramePayload,
		MaxRestarts:    opt.MaxRestarts,
		Logf:           opt.Logf,
	})
	if err != nil {
		return nil, nil, err
	}
	// Attempts of one worker run one after another and distinct workers
	// write distinct entries; co.Run returns after every attempt ended.
	times := make([]DistribWorkerTimes, opt.Workers)
	launcher := opt.Launcher
	if launcher == nil {
		launcher = DistribLauncherFunc(func(ctx context.Context, spec DistribWorkerSpec) (err error) {
			// A crash hook kills in-process workers by panicking; the
			// goroutine harness turns that into the launcher error an
			// exec'd worker's non-zero exit would be.
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("worker %d killed: %v", spec.Index, r)
				}
			}()
			w := DistribWorkerOptions{
				Config:           opt.Config,
				Model:            opt.Model,
				Workers:          spec.Workers,
				Index:            spec.Index,
				Axis:             spec.Axis,
				Resume:           spec.Resume,
				CoordinatorAddr:  spec.CoordinatorAddr,
				Fault:            opt.Fault,
				ChunkItems:       opt.ChunkItems,
				ReferenceKernels: opt.ReferenceKernels,
				MaxFramePayload:  opt.MaxFramePayload,
			}
			if opt.CheckpointRoot != "" {
				w.CheckpointDir = filepath.Join(opt.CheckpointRoot, fmt.Sprintf("worker%02d", spec.Index))
			}
			if opt.WorkerHook != nil {
				opt.WorkerHook(&w, spec)
			}
			t, err := runDistribWorker(ctx, w, geo)
			if err == nil {
				times[spec.Index] = t
			}
			return err
		})
	}
	planned := time.Since(start)
	g, sum, err := co.Run(ctx, launcher)
	if err != nil {
		return nil, nil, err
	}
	sum.Stages.Plan = planned
	sum.WorkerTimes = times
	return g, sum, nil
}
