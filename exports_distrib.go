package repro

import (
	"context"
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

// Distrib re-exports, so callers configure distributed runs without
// importing internal packages.
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
	// fingerprints and the coordinator's stage times of a run.
	DistribSummary = distrib.Summary
)

// Partition axes.
const (
	// DistribRows partitions by uv row band (subgrid center row).
	DistribRows = distrib.AxisRows
	// DistribWPlanes partitions by W-layer index modulo workers.
	DistribWPlanes = distrib.AxisWPlanes
)

// ParseDistribAxis converts the CLI spellings "rows" / "wplanes".
func ParseDistribAxis(s string) (DistribAxis, error) { return distrib.ParseAxis(s) }

// PartitionPlan returns the sub-plan worker index owns under the
// axis (order-preserving; see distrib.FilterPlan).
func (o *Observation) PartitionPlan(axis DistribAxis, workers, index int) (*Plan, error) {
	return distrib.FilterPlan(o.Plan, axis, workers, index)
}

// StandardSkyModel is the deterministic point-source model the
// repository's data generators share: up to four sources at fixed
// pixel offsets, scaled to o's field of view. Every process that
// builds the same ObservationConfig and source count predicts the
// same visibility bits — which is what lets distributed workers fill
// their data independently yet grid a partition of one observation.
func StandardSkyModel(o *Observation, sources int) SkyModel {
	return standardSkyModel(o.ImageSize/float64(o.Config.GridSize), sources)
}

// StandardSkyModel is the package-level StandardSkyModel of the
// observation c builds, bit for bit, from c alone: the field of view
// needs the layout and the uvw extent but no plan, so a worker process
// that is about to build its own plan does not build a second one for
// its model.
func (c ObservationConfig) StandardSkyModel(sources int) (SkyModel, error) {
	_, _, imageSize, err := c.fieldOfView()
	if err != nil {
		return nil, err
	}
	return standardSkyModel(imageSize/float64(c.GridSize), sources), nil
}

// standardSkyModel places the standard sources on a grid of pixel
// scale pix (direction cosine per pixel).
func standardSkyModel(pix float64, sources int) SkyModel {
	offsets := [][3]float64{{40, -24, 1.0}, {-72, 52, 0.6}, {16, 88, 0.4}, {-30, -70, 0.3}}
	model := make(SkyModel, 0, len(offsets))
	for i := 0; i < sources && i < len(offsets); i++ {
		model = append(model, PointSource{
			L: offsets[i][0] * pix, M: offsets[i][1] * pix, I: offsets[i][2],
		})
	}
	return model
}

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
	// Resume continues from CheckpointDir instead of starting fresh.
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
	// MaxFramePayload caps reduction frames (<= 0: server default).
	MaxFramePayload int
}

// DistribWorkerTimes is where one worker attempt's wall time went:
// Build is geometry (unless shared), kernels and the partition filter;
// Deliver the fingerprint, band encode and wire.
type DistribWorkerTimes struct {
	Build, Fill, Grid, Deliver time.Duration
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
	// Plan-scoped fill: the worker predicts only its partition's
	// samples (bit-identical to a full fill for everything the
	// partition grids), so fill cost scales down with the partition.
	if err := o.FillFromModelPlan(opt.Model); err != nil {
		return times, err
	}
	lap(&times.Fill)

	g, _, _, err := o.gridPass(ctx, nil, opt.Fault, opt.Resume && opt.CheckpointDir != "")
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
	// MaxFramePayload caps reduction frames (<= 0: server default).
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

// RunDistributed runs one full distributed imaging pass: it builds
// the geometry once — to pin every worker's expected sub-plan
// fingerprint, and for the in-process workers to grid over — starts
// the coordinator, launches the workers, restarts failures with Resume
// set, and returns the tree-reduced grid and the run summary.
func RunDistributed(ctx context.Context, opt DistribOptions) (*Grid, *DistribSummary, error) {
	if opt.Workers < 1 {
		return nil, nil, fmt.Errorf("repro: need at least one distrib worker, got %d", opt.Workers)
	}
	start := time.Now()
	planner := opt.Config
	planner.CheckpointDir, planner.CheckpointEvery = "", 0
	// Config.Workers is each worker's share of the host; until they
	// start, the planner has all of it.
	geo, err := planner.buildGeometry(0)
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
			_, err = runDistribWorker(ctx, w, geo)
			return err
		})
	}
	planned := time.Since(start)
	g, sum, err := co.Run(ctx, launcher)
	if err != nil {
		return nil, nil, err
	}
	sum.Stages.Plan = planned
	return g, sum, nil
}
