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
// The package is the facade the binaries, examples and benchmark
// build on: the Observation builder that wires a full synthetic
// observation together, its gridding, degridding and imaging-cycle
// passes, and the adapters that serve them over HTTP (server.go) and
// spread them over worker processes (distrib.go). It exports only what
// those callers spell, the types of those names' parameters, results
// and fields, and the error sentinels its calls return; everything
// else is reached through the internal packages.
package repro

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/aterm"
	"repro/internal/checkpoint"
	"repro/internal/clean"
	"repro/internal/core"
	"repro/internal/faulttol"
	"repro/internal/flagging"
	"repro/internal/grid"
	"repro/internal/layout"
	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sky"
	"repro/internal/uvwsim"
	"repro/internal/weight"
	"repro/internal/xmath"
)

// Re-exported types; see the internal packages for full documentation.
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
	// Plan is the execution plan (work items).
	Plan = plan.Plan
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
	// ATermScheduler maps time steps to A-term slots.
	ATermScheduler = aterm.Scheduler
	// Station is a station position in local ENU meters.
	Station = layout.Station
	// Precision selects the kernel compute precision (Params.Precision).
	Precision = core.Precision
	// Observer bundles a metrics registry and a stage tracer; nil
	// disables observation at zero cost.
	Observer = obs.Observer
	// FaultConfig selects the per-work-item failure policy of a pass
	// (fail fast or skip-and-flag).
	FaultConfig = faulttol.Config
	// FaultPolicy enumerates the failure dispositions.
	FaultPolicy = faulttol.Policy
	// FaultReport is the degradation report of a fault-tolerant run:
	// items processed/skipped and visibilities dropped.
	FaultReport = faulttol.Report
	// FlaggingConfig selects the corrupt-sample detectors.
	FlaggingConfig = flagging.Config
	// FlaggingStats reports one flagging pass.
	FlaggingStats = flagging.Stats
	// WeightScheme selects the imaging density weighting.
	WeightScheme = weight.Scheme
	// ImagingWeights is a computed weighting function.
	ImagingWeights = weight.Weights
	// CleanParams configures the Högbom CLEAN minor cycles.
	CleanParams = clean.Params
	// CycleConfig configures Observation.ImagingCycle.
	CycleConfig = core.CycleConfig
	// CycleResult reports one Observation.ImagingCycle run.
	CycleResult = core.CycleResult
)

// Float32 selects the float32 kernels (the zero Precision is float64):
// half the arithmetic width and memory traffic of the hot loops at the
// cost of the error bound documented in DESIGN.md (phase arguments
// stay float64 in both modes).
const Float32 = core.Float32

// Imaging weighting schemes.
const (
	NaturalWeighting = weight.Natural
	UniformWeighting = weight.Uniform
	RobustWeighting  = weight.Robust
)

// Sentinel errors of the passes; match with errors.Is.
var (
	// ErrBadInput marks deterministic input problems.
	ErrBadInput = faulttol.ErrBadInput
	// ErrKernelPanic marks a recovered kernel crash.
	ErrKernelPanic = faulttol.ErrKernelPanic
	// ErrCanceled marks a run aborted by its context.
	ErrCanceled = faulttol.ErrCanceled
	// ErrCheckpointMismatch marks a valid snapshot that belongs to a
	// different observation (plan, grid size or chunking differ).
	ErrCheckpointMismatch = checkpoint.ErrMismatch
)

// NewKernels precomputes the IDG kernel state for the parameters.
func NewKernels(p Params) (*Kernels, error) { return core.NewKernels(p) }

// NewVisibilitySet allocates zeroed visibilities over the baselines
// and uvw tracks. Mismatched dimensions return an error wrapping
// ErrBadInput.
func NewVisibilitySet(baselines []Baseline, uvw [][]UVW, nrChannels int) (*VisibilitySet, error) {
	return core.NewVisibilitySet(baselines, uvw, nrChannels)
}

// GridToImage converts a uv grid into a sky image (centered inverse
// FFT per correlation).
func GridToImage(g *Grid, workers int) *Grid { return core.GridToImage(g, workers) }

// ImageToGrid converts a sky image into a uv grid.
func ImageToGrid(img *Grid, workers int) *Grid { return core.ImageToGrid(img, workers) }

// StokesI extracts the Stokes I plane of an image.
func StokesI(img *Grid) []float64 { return sky.StokesI(img) }

// PixelToLM converts image pixel indices to direction cosines.
func PixelToLM(x, y, n int, imageSize float64) (l, m float64) {
	return sky.PixelToLM(x, y, n, imageSize)
}

// LMToPixel converts direction cosines to the nearest image pixel.
func LMToPixel(l, m float64, n int, imageSize float64) (x, y int) {
	return sky.LMToPixel(l, m, n, imageSize)
}

// ImageRMS estimates the noise rms of a Stokes I image, excluding a
// box of half-width exclude around pixel (cx, cy).
func ImageRMS(img []float64, n, cx, cy, exclude int) float64 {
	return noise.ImageRMS(img, n, cx, cy, exclude)
}

// GaussianBeamATerms returns a station power-beam provider with the
// given beam sigma (direction cosines) and per-slot pointing wobble.
func GaussianBeamATerms(sigma, wobble float64) ATermProvider {
	return aterm.GaussianBeam{Sigma: sigma, Wobble: wobble}
}

// ParseFaultPolicy converts "fail-fast" or "skip-and-flag".
func ParseFaultPolicy(s string) (FaultPolicy, error) { return faulttol.ParsePolicy(s) }

// NewObserver returns an observer with a fresh registry and a tracer
// bounded to maxSpans spans (<= 0 selects obs.DefaultMaxSpans).
func NewObserver(maxSpans int) *Observer { return obs.New(maxSpans) }

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
	// WStepLambda enables W-stacking when positive: the layer
	// thickness in wavelengths. Every pass — gridding, degridding,
	// resumes, dirty images, the imaging cycle and distributed runs —
	// then runs the plan one W-layer at a time, moving each layer
	// through the image domain to apply its w screen (two full-grid
	// FFT sets per layer).
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
	// MaxInflightChunks bounds the in-flight chunks of the gridding and
	// degridding passes — and with it peak subgrid memory; 0 leaves the
	// bound to Workers (see Params.MaxInflightChunks).
	MaxInflightChunks int
	// CheckpointDir, when non-empty, makes gridding passes write
	// durable snapshots into this directory and enables
	// Observation.ResumeStreamed (see Params.CheckpointDir).
	CheckpointDir string
	// CheckpointEvery is the checkpoint period in streamed chunks
	// (0 with a CheckpointDir: a default period; setting it without
	// CheckpointDir fails validation). It does not apply to W-stacked
	// passes, which checkpoint at every W-layer end.
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

// errNoVisibilities rejects a pass over an observation built with
// BuildPlan whose visibilities were never allocated.
var errNoVisibilities = errors.New("repro: visibilities not allocated")

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

// validate checks the configuration; Build and BuildPlan run it first.
func (c *ObservationConfig) validate() error {
	switch {
	case c.NrStations < 2:
		return &ConfigError{Field: "NrStations", Reason: fmt.Sprintf("need >= 2 stations, got %d", c.NrStations)}
	case c.NrTimesteps < 1:
		return &ConfigError{Field: "NrTimesteps", Reason: fmt.Sprintf("need >= 1 time step, got %d", c.NrTimesteps)}
	case c.NrChannels < 1:
		return &ConfigError{Field: "NrChannels", Reason: fmt.Sprintf("need >= 1 channel, got %d", c.NrChannels)}
	case !(c.StartFrequency > 0) || math.IsInf(c.StartFrequency, 1):
		return &ConfigError{Field: "StartFrequency", Reason: fmt.Sprintf("need a positive finite frequency, got %g", c.StartFrequency)}
	case !(c.ChannelWidth >= 0) || math.IsInf(c.ChannelWidth, 1):
		return &ConfigError{Field: "ChannelWidth", Reason: fmt.Sprintf("need a finite width >= 0, got %g", c.ChannelWidth)}
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
	if err := c.validate(); err != nil {
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
	imageSize = float64(c.GridSize/2-c.GridMargin) / maxUV
	if err := core.CheckFieldOfView(imageSize, c.SubgridSize, c.GridSize); err != nil {
		return nil, nil, 0, &ConfigError{Field: "GridSize", Reason: fmt.Sprintf(
			"the derived field of view %g (direction cosines) is too wide: %v", imageSize, err)}
	}
	return stations, sim, imageSize, nil
}

// StandardSkyModel is the deterministic point-source model the
// repository's data generators share: up to four sources at fixed
// pixel offsets, scaled to the field of view of the observation c
// builds. It follows from c alone — the layout and the uvw extent, no
// plan — so every process that holds the same config and source count
// predicts the same visibility bits: that is what lets distributed
// workers fill their data independently yet grid a partition of one
// observation.
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

// buildGeometry validates c and builds its geometry; the plan does not
// depend on the planner's thread count (0: GOMAXPROCS).
func (c ObservationConfig) buildGeometry(workers int) (*geometry, error) {
	stations, sim, imageSize, err := c.fieldOfView()
	if err != nil {
		return nil, err
	}
	geometryBuilds.Add(1)
	pcfg := plan.Config{
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

// The plan cache serves the geometries of server sessions and
// distributed runs. It follows the FFT plan cache pattern: read-mostly
// lookups under an RWMutex, geometries built outside any lock, first
// stored entry wins so concurrent users of the same configuration share
// one plan.
var (
	planCacheMu sync.RWMutex
	planCache   = make(map[string]*geometry)

	planCacheHits, planCacheMisses atomic.Int64
)

// ServerPlanCacheStats reports cumulative plan-cache hits and misses
// (tests pin that repeated configurations stop paying for plan
// builds).
func ServerPlanCacheStats() (hits, misses int64) {
	return planCacheHits.Load(), planCacheMisses.Load()
}

// resetServerPlanCache clears the cache and its counters (test seam).
func resetServerPlanCache() {
	planCacheMu.Lock()
	planCache = make(map[string]*geometry)
	planCacheMu.Unlock()
	planCacheHits.Store(0)
	planCacheMisses.Store(0)
}

// planKey fingerprints every field that shapes the plan. Workers is
// included defensively: the parallel plan builder is deterministic,
// but sharing across worker counts buys little and costs an invariant.
func planKey(c ObservationConfig) string {
	return fmt.Sprintf("s%d.t%d.c%d.f%g.w%g.g%d.sg%d.k%d.m%d.a%d.mts%d.ws%g.core%t.ha%g.wk%d",
		c.NrStations, c.NrTimesteps, c.NrChannels, c.StartFrequency, c.ChannelWidth,
		c.GridSize, c.SubgridSize, c.KernelSupport, c.GridMargin, c.ATermInterval,
		c.MaxTimestepsPerSubgrid, c.WStepLambda, c.CoreOnly, c.HourAngleStartDeg, c.Workers)
}

// cachedGeometry is c's geometry from the plan cache; a miss builds it
// on the given planner threads (0: GOMAXPROCS) and stores it. A hit
// still validates c.
func (c ObservationConfig) cachedGeometry(workers int) (*geometry, error) {
	key := planKey(c)
	planCacheMu.RLock()
	geo := planCache[key]
	planCacheMu.RUnlock()
	if geo != nil {
		planCacheHits.Add(1)
		return geo, c.validate()
	}
	planCacheMisses.Add(1)
	fresh, err := c.buildGeometry(workers)
	if err != nil {
		return nil, err
	}
	planCacheMu.Lock()
	if geo = planCache[key]; geo == nil { // else a concurrent builder won
		geo, planCache[key] = fresh, fresh
	}
	planCacheMu.Unlock()
	return geo, nil
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
	return o.allocateVisibilities(nil)
}

// allocateVisibilities sets o.Vis to the uvw tracks and zeroed rows of
// the baselines b with backed[b] (nil: all); see
// core.NewPartialVisibilitySet.
func (o *Observation) allocateVisibilities(backed []bool) error {
	tracks := o.Simulator.AllTracks(o.Config.NrTimesteps)
	vs, err := core.NewPartialVisibilitySet(o.Simulator.Baselines(), tracks, o.Config.NrChannels, backed)
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
// strided over Config.Workers goroutines, one item's [t][c] samples per
// sky.Predictor.PredictBatch call. Each sample is sky.Model.Predict's
// value bit for bit whichever goroutine and SIMD tier computes it, so
// the filled set depends on neither.
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
			var u, v, ww []float64
			var out []Matrix2
			for i := w; i < len(blocks); i += workers {
				it := &blocks[i]
				n := it.NrTimesteps * it.NrChannels
				if cap(u) < n {
					u, v, ww = make([]float64, n), make([]float64, n), make([]float64, n)
				}
				u, v, ww = u[:n], v[:n], ww[:n]
				k := 0
				for t := it.TimeStart; t < it.TimeStart+it.NrTimesteps; t++ {
					coord := vs.UVW[it.Baseline][t]
					for ch := it.Channel0; ch < it.Channel0+it.NrChannels; ch++ {
						sc := coord.Scale(freqs[ch])
						u[k], v[k], ww[k] = sc.U, sc.V, sc.W
						k++
					}
				}
				row := vs.Data[it.Baseline]
				if it.NrChannels == vs.NrChannels { // the item's samples are contiguous
					pred.PredictBatch(row[it.TimeStart*vs.NrChannels:][:n], u, v, ww)
					continue
				}
				if cap(out) < n {
					out = make([]Matrix2, n)
				}
				pred.PredictBatch(out[:n], u, v, ww)
				for t := 0; t < it.NrTimesteps; t++ {
					copy(row[(it.TimeStart+t)*vs.NrChannels+it.Channel0:], out[t*it.NrChannels:(t+1)*it.NrChannels])
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
// sentinel) even when the cancellation surfaced inside a failing work
// item. The returned grid is still the partially filled grid: it holds
// exactly the chunks whose add stage completed — every value finite and
// correctly accumulated, but covering only part of the plan — so it is
// suitable for inspection or checkpointing, not for imaging.
func (o *Observation) gridPass(ctx context.Context, prov ATermProvider, ft FaultConfig, resume bool) (*Grid, StageTimes, *FaultReport, error) {
	if resume && o.Config.CheckpointDir == "" {
		return nil, StageTimes{}, nil, &ConfigError{Field: "CheckpointDir", Reason: "ResumeStreamed needs a checkpoint directory"}
	}
	if o.Vis == nil {
		return nil, StageTimes{}, nil, errNoVisibilities
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
	times, _, err := o.Kernels.GridVisibilities(ctx, o.Plan, o.Vis, prov, o.Kernels.NewShardedGrid(g), ft, rep, start)
	return g, times, rep, err
}

// checkSnapshot verifies that a snapshot belongs to this observation:
// same plan content, same chunk size (the cursor is meaningless under
// different chunking); checkpoint.LoadLatest has refused another grid
// size. Visibilities are not
// fingerprinted — the caller must refill the same data, which the
// deterministic simulator and sky model guarantee here and an
// ingest-once visibility store guarantees in production.
func (o *Observation) checkSnapshot(sn *checkpoint.Snapshot) error {
	chunkItems := o.Kernels.StreamChunkItems(len(o.Plan.Items))
	switch {
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
func (o *Observation) latestSnapshot(rep *FaultReport) (*checkpoint.Snapshot, error) {
	sn, path, notes, err := checkpoint.LoadLatest(o.Config.CheckpointDir, o.Config.GridSize)
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
// Cancellation behaves as in GridAllStreamed.
func (o *Observation) ResumeStreamed(ctx context.Context, prov ATermProvider, ft FaultConfig) (*Grid, StageTimes, *FaultReport, error) {
	return o.gridPass(ctx, prov, ft, true)
}

// GridAll grids every visibility onto a fresh grid and returns it
// with the stage times. The context cancels or deadline-bounds the
// run; item failures fail fast — see GridAllStreamed for other
// policies.
func (o *Observation) GridAll(ctx context.Context, prov ATermProvider) (*Grid, StageTimes, error) {
	g, times, _, err := o.gridPass(ctx, prov, FaultConfig{}, false)
	return g, times, err
}

// GridAllStreamed is GridAll under an explicit fault-tolerance policy;
// it additionally returns the degradation report. See gridPass for
// what a canceled pass leaves in the returned grid.
func (o *Observation) GridAllStreamed(ctx context.Context, prov ATermProvider, ft FaultConfig) (*Grid, StageTimes, *FaultReport, error) {
	return o.gridPass(ctx, prov, ft, false)
}

// DegridAll predicts visibilities for the given uv grid, overwriting
// the observation's visibility data, and returns the stage times.
func (o *Observation) DegridAll(ctx context.Context, prov ATermProvider, g *Grid) (StageTimes, error) {
	if o.Vis == nil {
		return StageTimes{}, errNoVisibilities
	}
	times, _, err := o.Kernels.DegridVisibilities(ctx, o.Plan, o.Vis, prov, g, FaultConfig{})
	return times, err
}

// DirtyImage grids the visibilities and converts the result into a
// normalized, taper-corrected sky image.
func (o *Observation) DirtyImage(ctx context.Context, prov ATermProvider) (*Grid, error) {
	g, _, err := o.GridAll(ctx, prov)
	if err != nil {
		return nil, err
	}
	img := core.GridToImageInPlace(g, o.Config.Workers)
	st := o.Plan.Stats()
	core.ScaleImage(img, float64(o.Config.GridSize*o.Config.GridSize)/float64(st.NrGriddedVisibilities))
	core.ApplyTaperCorrection(img, o.Kernels.TaperCorrection(o.Config.GridSize))
	return img, nil
}

// psf grids unit visibilities and returns the normalized Stokes I
// point spread function, restoring the observation's visibilities
// afterwards.
func (o *Observation) psf(ctx context.Context) ([]float64, error) {
	if err := o.AllocateVisibilities(); err != nil {
		return nil, err
	}
	backup := make([][]Matrix2, len(o.Vis.Data))
	for b := range o.Vis.Data {
		backup[b] = append([]Matrix2(nil), o.Vis.Data[b]...)
	}
	defer func() {
		for b := range o.Vis.Data {
			copy(o.Vis.Data[b], backup[b])
		}
	}()
	if err := o.FillFromModel(SkyModel{{L: 0, M: 0, I: 1}}); err != nil {
		return nil, err
	}
	img, err := o.DirtyImage(ctx, nil)
	if err != nil {
		return nil, err
	}
	return sky.StokesI(img), nil
}

// ImagingCycle runs the imaging cycle of Fig. 2 on the observation's
// visibilities (core.RunImagingCycle over the observation's PSF): per
// major cycle it grids and images the residual, CLEANs it down to
// cfg.CycleDepth of its peak, degrids the new components and subtracts
// them. The visibilities are consumed: on return they hold the final
// residual.
func (o *Observation) ImagingCycle(ctx context.Context, cfg CycleConfig) (*CycleResult, error) {
	if o.Vis == nil {
		return nil, errNoVisibilities
	}
	psf, err := o.psf(ctx)
	if err != nil {
		return nil, err
	}
	return o.Kernels.RunImagingCycle(ctx, o.Plan, o.Vis, psf, cfg)
}

// ComputeWeights builds the weighting function for this observation.
func (o *Observation) ComputeWeights(scheme WeightScheme, robust float64) (*ImagingWeights, error) {
	if err := o.AllocateVisibilities(); err != nil {
		return nil, err
	}
	return weight.Compute(weight.Config{
		Scheme: scheme, Robust: robust,
		GridSize: o.Config.GridSize, ImageSize: o.ImageSize,
	}, o.Vis.UVW, o.Config.Frequencies())
}

// ApplyWeights multiplies the observation's visibilities in place and
// returns the total applied weight (the normalization a weighted
// dirty image must divide by).
func (o *Observation) ApplyWeights(w *ImagingWeights) float64 {
	return weight.Apply(o.Vis, w, o.Config.Frequencies())
}

// AddNoise adds zero-mean complex Gaussian noise with the given
// per-component standard deviation to all visibilities.
func (o *Observation) AddNoise(sigma float64, seed int64) error {
	if err := o.AllocateVisibilities(); err != nil {
		return err
	}
	return noise.AddGaussian(o.Vis, sigma, seed)
}

// FlagVisibilities runs the configured detectors (NaN/Inf, amplitude
// clipping) over the observation's visibilities, marking bad samples
// in the per-sample flag mask: flagged samples are zero-weight in both
// gridding and degridding.
func (o *Observation) FlagVisibilities(cfg FlaggingConfig) (FlaggingStats, error) {
	if err := o.AllocateVisibilities(); err != nil {
		return FlaggingStats{}, err
	}
	return flagging.Apply(o.Vis, cfg), nil
}
