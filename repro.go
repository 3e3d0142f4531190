// Package repro is a Go reproduction of "Image-Domain Gridding on
// Graphics Processors" (Veenboer, Petschow, Romein; IPDPS 2017). It
// implements the IDG algorithm — gridder and degridder kernels,
// subgrid FFTs, adder and splitter, execution planning, tapering,
// A-term (direction-dependent effect) correction and W-stacking —
// together with a W-projection baseline, a synthetic SKA1-low
// observation generator, a CLEAN-based imaging cycle, and the
// performance/energy models that regenerate the paper's evaluation
// (Table I and Figures 8-16). See DESIGN.md for the system inventory
// and EXPERIMENTS.md for the paper-vs-measured record.
//
// The package itself is a facade: it re-exports the main API from the
// internal packages and provides the Observation builder that wires a
// full synthetic observation together.
package repro

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/aterm"
	"repro/internal/core"
	"repro/internal/faulttol"
	"repro/internal/grid"
	"repro/internal/layout"
	"repro/internal/plan"
	"repro/internal/sky"
	"repro/internal/uvwsim"
	"repro/internal/xmath"
)

// Re-exported core types; see the internal packages for full
// documentation.
type (
	// Params configures the IDG kernels (grid and subgrid geometry,
	// frequencies, taper, sincos evaluator, worker count).
	Params = core.Params
	// Kernels bundles the precomputed IDG kernel state.
	Kernels = core.Kernels
	// VisibilitySet holds an observation's uvw tracks and 2x2
	// correlation visibilities.
	VisibilitySet = core.VisibilitySet
	// StageTimes records wall-clock time per pipeline stage.
	StageTimes = core.StageTimes
	// Grid is the uv-grid (4 correlation planes).
	Grid = grid.Grid
	// Subgrid is one N~ x N~ tile.
	Subgrid = grid.Subgrid
	// Plan is the execution plan (work items).
	Plan = plan.Plan
	// PlanConfig configures the execution planner.
	PlanConfig = plan.Config
	// WorkItem is one subgrid plus its visibility block.
	WorkItem = plan.WorkItem
	// Baseline is an ordered station pair.
	Baseline = uvwsim.Baseline
	// UVW is a baseline coordinate in meters.
	UVW = uvwsim.UVW
	// Matrix2 is a 2x2 complex matrix (Jones / brightness).
	Matrix2 = xmath.Matrix2
	// PointSource is a point source with Stokes fluxes.
	PointSource = sky.PointSource
	// SkyModel is a collection of point sources.
	SkyModel = sky.Model
	// ATermProvider evaluates direction-dependent station responses.
	ATermProvider = aterm.Provider
	// Station is a station position in local ENU meters.
	Station = layout.Station
	// Precision selects the kernel compute precision (Params.Precision).
	Precision = core.Precision
)

// Kernel compute precisions. Float64 is the default; Float32 halves
// the arithmetic width and memory traffic of the hot loops at the cost
// of the error bound documented in DESIGN.md (phase arguments stay
// float64 in both modes).
const (
	Float64 = core.Float64
	Float32 = core.Float32
)

// NewKernels precomputes the IDG kernel state for the parameters.
func NewKernels(p Params) (*Kernels, error) { return core.NewKernels(p) }

// NewGrid allocates a zeroed n x n grid.
func NewGrid(n int) *Grid { return grid.NewGrid(n) }

// NewPlan builds an execution plan from per-baseline uvw tracks.
func NewPlan(cfg PlanConfig, tracks [][]UVW) (*Plan, error) { return plan.New(cfg, tracks) }

// GridToImage converts a uv grid into a sky image (centered inverse
// FFT per correlation).
func GridToImage(g *Grid, workers int) *Grid { return core.GridToImage(g, workers) }

// ImageToGrid converts a sky image into a uv grid.
func ImageToGrid(img *Grid, workers int) *Grid { return core.ImageToGrid(img, workers) }

// ObservationConfig describes a synthetic SKA1-low-like observation.
// The zero value is not valid; start from DefaultObservation or
// PaperObservation.
type ObservationConfig struct {
	// NrStations, NrTimesteps and NrChannels set the observation
	// dimensions (paper: 150, 8192, 16).
	NrStations  int
	NrTimesteps int
	NrChannels  int
	// StartFrequency and ChannelWidth define the subband in Hz.
	StartFrequency float64
	ChannelWidth   float64
	// GridSize, SubgridSize and KernelSupport set the imaging
	// geometry (paper: 2048, 24, and the taper margin).
	GridSize      int
	SubgridSize   int
	KernelSupport int
	// GridMargin keeps the outermost baselines this many pixels away
	// from the grid edge when deriving the image size.
	GridMargin int
	// ATermInterval is the A-term update interval in time steps
	// (paper: 256).
	ATermInterval int
	// MaxTimestepsPerSubgrid is T~max (0: unlimited).
	MaxTimestepsPerSubgrid int
	// WStepLambda enables W-stacking when positive.
	WStepLambda float64
	// CoreOnly restricts the layout to the dense station core (no
	// spiral arms), which yields short baselines and therefore a wide
	// field of view — the regime where w terms matter.
	CoreOnly bool
	// HourAngleStartDeg overrides the observation start hour angle
	// when non-zero; observing far from transit increases the w
	// coordinates.
	HourAngleStartDeg float64
	// Workers bounds parallelism (0: GOMAXPROCS).
	Workers int
	// Precision selects the kernel compute precision (default Float64;
	// see Params.Precision).
	Precision Precision
	// GridShards splits the uv-grid into independently locked row
	// bands for the gridding pass; 0 selects one shard per worker (see
	// Params.GridShards).
	GridShards int
	// MaxInflightChunks bounds the gridding pass's in-flight chunks —
	// and with it peak subgrid memory; 0 leaves the bound to Workers
	// (see Params.MaxInflightChunks).
	MaxInflightChunks int
	// CheckpointDir, when non-empty, makes gridding passes write
	// durable snapshots into this directory and enables
	// Observation.ResumeStreamed (see Params.CheckpointDir).
	CheckpointDir string
	// CheckpointEvery is the checkpoint period in streamed chunks
	// (0 with a CheckpointDir: a default period; setting it without
	// CheckpointDir fails validation).
	CheckpointEvery int
	// Observer receives pipeline metrics and trace spans (see
	// Params.Observer); nil disables observation.
	Observer *Observer
}

// DefaultObservation returns a laptop-scale observation that keeps the
// paper's geometry ratios (24-pixel subgrids on a grid ~85x the
// subgrid, 16 channels, A-term updates) at ~1/1000 the visibility
// count.
func DefaultObservation() ObservationConfig {
	return ObservationConfig{
		NrStations:     30,
		NrTimesteps:    256,
		NrChannels:     16,
		StartFrequency: 150e6,
		ChannelWidth:   200e3,
		GridSize:       1024,
		SubgridSize:    24,
		KernelSupport:  6,
		GridMargin:     48,
		ATermInterval:  64,
	}
}

// PaperObservation returns the full benchmark of Section VI-A:
// 150 stations, 8192 x 1 s, 16 channels, 24x24 subgrids on a
// 2048x2048 grid, A-terms every 256 steps. Building its plan takes
// seconds; allocating its visibilities takes ~100 GB, so use
// BuildPlan rather than Build for this configuration.
func PaperObservation() ObservationConfig {
	return ObservationConfig{
		NrStations:     150,
		NrTimesteps:    8192,
		NrChannels:     16,
		StartFrequency: 150e6,
		// One 195 kHz subband split into 16 channels: the imaging
		// step processes subbands independently (Fig. 2), so the
		// fractional bandwidth per plan is small.
		ChannelWidth:  12.2e3,
		GridSize:      2048,
		SubgridSize:   24,
		KernelSupport: 7,
		GridMargin:    64,
		ATermInterval: 256,
	}
}

// ErrInvalidConfig marks every ObservationConfig validation failure;
// match it with errors.Is. The concrete error is a *ConfigError
// naming the offending field.
var ErrInvalidConfig = errors.New("repro: invalid observation config")

// ConfigError is a typed configuration rejection: which field is
// wrong and why. It unwraps to ErrInvalidConfig. The facade returns
// it for negative or nonsensical knobs instead of silently clamping
// them deep in the scheduler.
type ConfigError struct {
	// Field is the ObservationConfig field name.
	Field string
	// Reason explains the rejection.
	Reason string
}

// Error formats the rejection.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("repro: invalid %s: %s", e.Field, e.Reason)
}

// Unwrap makes every ConfigError match ErrInvalidConfig.
func (e *ConfigError) Unwrap() error { return ErrInvalidConfig }

// Validate checks the configuration.
func (c *ObservationConfig) Validate() error {
	switch {
	case c.NrStations < 2:
		return &ConfigError{Field: "NrStations", Reason: fmt.Sprintf("need >= 2 stations, got %d", c.NrStations)}
	case c.NrTimesteps < 1 || c.NrChannels < 1:
		return &ConfigError{Field: "NrTimesteps", Reason: fmt.Sprintf("empty observation %dx%d", c.NrTimesteps, c.NrChannels)}
	case c.StartFrequency <= 0 || c.ChannelWidth < 0:
		return &ConfigError{Field: "StartFrequency", Reason: fmt.Sprintf("bad subband %g/%g", c.StartFrequency, c.ChannelWidth)}
	case c.GridMargin < 0 || c.GridMargin >= c.GridSize/2:
		return &ConfigError{Field: "GridMargin", Reason: fmt.Sprintf("bad grid margin %d", c.GridMargin)}
	case c.GridShards < 0:
		return &ConfigError{Field: "GridShards", Reason: fmt.Sprintf("negative shard count %d", c.GridShards)}
	case c.GridShards > c.GridSize:
		return &ConfigError{Field: "GridShards", Reason: fmt.Sprintf("%d shards exceed the %d-row grid", c.GridShards, c.GridSize)}
	case c.MaxInflightChunks < 0:
		return &ConfigError{Field: "MaxInflightChunks", Reason: fmt.Sprintf("negative in-flight bound %d", c.MaxInflightChunks)}
	case c.CheckpointEvery < 0:
		return &ConfigError{Field: "CheckpointEvery", Reason: fmt.Sprintf("negative checkpoint period %d", c.CheckpointEvery)}
	case c.CheckpointEvery > 0 && c.CheckpointDir == "":
		return &ConfigError{Field: "CheckpointEvery", Reason: "set without CheckpointDir"}
	}
	return nil
}

// Frequencies returns the channel center frequencies.
func (c *ObservationConfig) Frequencies() []float64 {
	f := make([]float64, c.NrChannels)
	for i := range f {
		f[i] = c.StartFrequency + float64(i)*c.ChannelWidth
	}
	return f
}

// Observation bundles everything needed to run the IDG pipelines on a
// synthetic observation.
type Observation struct {
	Config    ObservationConfig
	Stations  []Station
	Simulator *uvwsim.Simulator
	Plan      *Plan
	Kernels   *Kernels
	// Vis is nil until FillFromModel or AllocateVisibilities is
	// called (the full paper set would need ~100 GB).
	Vis *VisibilitySet
	// ImageSize is the derived field of view in direction cosines.
	ImageSize float64
}

// geometry holds the expensive, immutable-after-build parts of an
// observation. The rest is per run (kernels carry shards, checkpoints
// and observer; visibilities are mutable data), so one geometry serves
// any number of concurrent observations: the sessions of one server
// configuration, the in-process workers of one distributed run.
type geometry struct {
	stations  []Station
	sim       *uvwsim.Simulator
	plan      *Plan
	imageSize float64
}

// geometryBuilds counts buildGeometry calls, for tests of the sharing.
var geometryBuilds atomic.Int64

// fieldOfView validates c and builds what the field of view follows
// from: the station layout, the uvw simulator and the image size that
// puts the longest baseline GridMargin pixels inside the grid's edge.
func (c ObservationConfig) fieldOfView() (stations []Station, sim *uvwsim.Simulator, imageSize float64, err error) {
	if err := c.Validate(); err != nil {
		return nil, nil, 0, err
	}
	lcfg := layout.SKA1LowConfig()
	lcfg.NrStations = c.NrStations
	if c.CoreOnly {
		lcfg.CoreFraction = 1.0
	}
	stations = layout.Generate(lcfg)
	opts := uvwsim.DefaultOptions()
	if c.HourAngleStartDeg != 0 {
		opts.HourAngleStartDeg = c.HourAngleStartDeg
	}
	sim = uvwsim.New(stations, opts)
	maxFreq := c.StartFrequency + float64(c.NrChannels-1)*c.ChannelWidth
	maxUV := sim.MaxUV(c.NrTimesteps) * maxFreq / uvwsim.SpeedOfLight
	return stations, sim, float64(c.GridSize/2-c.GridMargin) / maxUV, nil
}

// buildGeometry validates c and builds its geometry; the plan does not
// depend on the planner's thread count (0: GOMAXPROCS).
func (c ObservationConfig) buildGeometry(workers int) (*geometry, error) {
	stations, sim, imageSize, err := c.fieldOfView()
	if err != nil {
		return nil, err
	}
	geometryBuilds.Add(1)
	pcfg := PlanConfig{
		GridSize:               c.GridSize,
		SubgridSize:            c.SubgridSize,
		ImageSize:              imageSize,
		Frequencies:            c.Frequencies(),
		KernelSupport:          c.KernelSupport,
		MaxTimestepsPerSubgrid: c.MaxTimestepsPerSubgrid,
		ATermUpdateInterval:    c.ATermInterval,
		WStepLambda:            c.WStepLambda,
	}
	baselines := sim.Baselines()
	p, err := plan.NewStreaming(pcfg, len(baselines), c.NrTimesteps,
		func(b int, buf []UVW) []UVW {
			return sim.BaselineTrack(baselines[b], 0, c.NrTimesteps, buf)
		}, workers)
	if err != nil {
		return nil, err
	}
	return &geometry{stations: stations, sim: sim, plan: p, imageSize: imageSize}, nil
}

// newObservation makes one run's observation over a (possibly shared)
// geometry: fresh kernels carrying c's per-run knobs, no visibilities.
func newObservation(c ObservationConfig, geo *geometry) (*Observation, error) {
	k, err := core.NewKernels(Params{
		GridSize:          c.GridSize,
		SubgridSize:       c.SubgridSize,
		ImageSize:         geo.imageSize,
		Frequencies:       c.Frequencies(),
		Workers:           c.Workers,
		Precision:         c.Precision,
		GridShards:        c.GridShards,
		MaxInflightChunks: c.MaxInflightChunks,
		CheckpointDir:     c.CheckpointDir,
		CheckpointEvery:   c.CheckpointEvery,
		Observer:          c.Observer,
	})
	if err != nil {
		return nil, err
	}
	return &Observation{
		Config:    c,
		Stations:  geo.stations,
		Simulator: geo.sim,
		Plan:      geo.plan,
		Kernels:   k,
		ImageSize: geo.imageSize,
	}, nil
}

// BuildPlan constructs stations, uvw simulator, execution plan and
// kernels, but no visibility storage.
func (c ObservationConfig) BuildPlan() (*Observation, error) {
	geo, err := c.buildGeometry(c.Workers)
	if err != nil {
		return nil, err
	}
	return newObservation(c, geo)
}

// Build is BuildPlan plus visibility storage allocation.
func (c ObservationConfig) Build() (*Observation, error) {
	obs, err := c.BuildPlan()
	if err != nil {
		return nil, err
	}
	if err := obs.AllocateVisibilities(); err != nil {
		return nil, err
	}
	return obs, nil
}

// AllocateVisibilities materializes the uvw tracks and zeroed
// visibility storage.
func (o *Observation) AllocateVisibilities() error {
	if o.Vis != nil {
		return nil
	}
	tracks := o.Simulator.AllTracks(o.Config.NrTimesteps)
	vs, err := core.NewVisibilitySet(o.Simulator.Baselines(), tracks, o.Config.NrChannels)
	if err != nil {
		return err
	}
	o.Vis = vs
	return nil
}

// FillFromModel fills the visibilities with exact direct predictions
// of a point-source model (the ground-truth workload generator).
func (o *Observation) FillFromModel(model SkyModel) error {
	if err := o.AllocateVisibilities(); err != nil {
		return err
	}
	blocks := make([]WorkItem, len(o.Vis.Data))
	for b := range blocks {
		blocks[b] = WorkItem{Baseline: b, NrTimesteps: o.Vis.NrTimesteps, NrChannels: o.Vis.NrChannels}
	}
	return o.fillBlocks(model, blocks)
}

// FillFromModelPlan predicts only the visibility blocks the current
// plan covers. It is the distributed worker's fill path: after the
// plan is filtered to one partition, the worker predicts just its
// partition's samples — per-worker fill cost shrinks with the
// partition instead of staying proportional to the full observation.
// Covered samples get bit-identical values to FillFromModel's (the
// prediction is per-sample); uncovered samples stay zero, and the
// gridding pass never reads them.
func (o *Observation) FillFromModelPlan(model SkyModel) error {
	return o.fillBlocks(model, o.Plan.Items)
}

// fillBlocks predicts the (disjoint) sample blocks of the given items,
// strided over Config.Workers goroutines. Each sample is
// sky.Model.Predict's value bit for bit whichever goroutine computes
// it, so the filled set does not depend on the worker count.
func (o *Observation) fillBlocks(model SkyModel, blocks []WorkItem) error {
	if err := o.AllocateVisibilities(); err != nil {
		return err
	}
	pred := model.Predictor()
	freqs := o.Config.Frequencies()
	vs := o.Vis
	workers := o.Config.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(blocks); i += workers {
				it := &blocks[i]
				for t := it.TimeStart; t < it.TimeStart+it.NrTimesteps; t++ {
					coord := vs.UVW[it.Baseline][t]
					for ch := it.Channel0; ch < it.Channel0+it.NrChannels; ch++ {
						sc := coord.Scale(freqs[ch])
						vs.Data[it.Baseline][t*vs.NrChannels+ch] = pred.Predict(sc.U, sc.V, sc.W)
					}
				}
			}
		}()
	}
	wg.Wait()
	return nil
}

// gridPass is the one way the facade runs a gridding pass (the public
// GridAll* / ResumeStreamed names, the server backend and the
// distributed worker all land here): every visibility of the plan
// through the chunk scheduler of internal/core onto a fresh grid
// sharded per ObservationConfig.GridShards — or, with resume, onto the
// grid of the newest usable checkpoint, gridding only the chunks past
// its cursor. With ObservationConfig.CheckpointDir set the pass writes
// durable snapshots as it goes.
//
// Cancellation: when ctx is canceled mid-pass the returned error
// matches errors.Is(err, ErrCanceled) (and the context's own
// sentinel) even when the cancellation surfaced inside a retry layer.
// The returned grid is still the partially filled grid: it holds
// exactly the chunks whose add stage completed — every value finite
// and correctly accumulated, but covering only part of the plan — so
// it is suitable for inspection or checkpointing, not for imaging.
func (o *Observation) gridPass(ctx context.Context, prov ATermProvider, ft FaultConfig, resume bool) (*Grid, StageTimes, *FaultReport, error) {
	if resume && o.Config.CheckpointDir == "" {
		return nil, StageTimes{}, nil, &ConfigError{Field: "CheckpointDir", Reason: "ResumeStreamed needs a checkpoint directory"}
	}
	if o.Vis == nil {
		return nil, StageTimes{}, nil, fmt.Errorf("repro: visibilities not allocated")
	}
	rep := faulttol.NewReport(ft)
	var g *Grid
	start := 0
	if resume {
		sn, err := o.latestSnapshot(rep)
		if err != nil {
			return nil, StageTimes{}, rep, err
		}
		if sn != nil {
			g, start = sn.Grid, sn.NextChunk
		}
	}
	if g == nil {
		g = grid.NewGrid(o.Config.GridSize)
	}
	times, err := o.Kernels.ResumeVisibilitiesStreamed(ctx, o.Plan, o.Vis, prov, o.Kernels.NewShardedGrid(g), ft, rep, start)
	return g, times, rep, err
}

// GridAll grids every visibility onto a fresh grid and returns it
// with the stage times. The context cancels or deadline-bounds the
// run; item failures fail fast — see GridAllFT for other policies.
func (o *Observation) GridAll(ctx context.Context, prov ATermProvider) (*Grid, StageTimes, error) {
	g, times, _, err := o.gridPass(ctx, prov, FaultConfig{}, false)
	return g, times, err
}

// GridAllFT is GridAll under an explicit fault-tolerance policy; it
// additionally returns the degradation report. See gridPass for what a
// canceled pass leaves in the returned grid.
func (o *Observation) GridAllFT(ctx context.Context, prov ATermProvider, ft FaultConfig) (*Grid, StageTimes, *FaultReport, error) {
	return o.gridPass(ctx, prov, ft, false)
}

// DegridAll predicts visibilities for the given uv grid, overwriting
// the observation's visibility data, and returns the stage times.
func (o *Observation) DegridAll(ctx context.Context, prov ATermProvider, g *Grid) (StageTimes, error) {
	if o.Vis == nil {
		return StageTimes{}, fmt.Errorf("repro: visibilities not allocated")
	}
	return o.Kernels.DegridVisibilities(ctx, o.Plan, o.Vis, prov, g)
}

// DegridAllFT is DegridAll under an explicit fault-tolerance policy.
func (o *Observation) DegridAllFT(ctx context.Context, prov ATermProvider, g *Grid, ft FaultConfig) (StageTimes, *FaultReport, error) {
	if o.Vis == nil {
		return StageTimes{}, nil, fmt.Errorf("repro: visibilities not allocated")
	}
	return o.Kernels.DegridVisibilitiesFT(ctx, o.Plan, o.Vis, prov, g, ft)
}

// DirtyImage grids the visibilities and converts the result into a
// normalized, taper-corrected sky image.
func (o *Observation) DirtyImage(ctx context.Context, prov ATermProvider) (*Grid, error) {
	g, _, err := o.GridAll(ctx, prov)
	if err != nil {
		return nil, err
	}
	img := core.GridToImage(g, o.Config.Workers)
	st := o.Plan.Stats()
	core.ScaleImage(img, float64(o.Config.GridSize*o.Config.GridSize)/float64(st.NrGriddedVisibilities))
	core.ApplyTaperCorrection(img, o.Kernels.TaperCorrection(o.Config.GridSize))
	return img, nil
}

// StokesI extracts the Stokes I plane of an image.
func StokesI(img *Grid) []float64 { return sky.StokesI(img) }
