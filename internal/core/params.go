// Package core implements Image-Domain Gridding, the primary
// contribution of the paper: the gridder kernel (Algorithm 1), the
// degridder kernel (Algorithm 2), the subgrid FFTs, and the adder and
// splitter, together with the parallel pipelines that combine them
// into full gridding and degridding passes.
//
// # Phase conventions
//
// Visibilities follow the measurement equation (Eq. 1):
//
//	V(u,v,w) = sum_lm B(l,m) exp(-2*pi*i*(u*l + v*m + w*n)),
//
// with uvw in wavelengths and n = 1 - sqrt(1 - l^2 - m^2). A subgrid
// anchored at grid pixel (X0, Y0) covers uv offsets
// uOff = (X0 + N~/2 - N/2)/ImageSize (likewise vOff), and the gridder
// accumulates every pixel with the phasor
//
//	Phi = exp(+2*pi*i*((u-uOff)*l + (v-vOff)*m + (w-wOff)*n))
//
// so that after the A-term/taper correction and the centered forward
// FFT the subgrid tile drops into the grid at (X0, Y0) with no further
// phase fixups. The degridder uses the conjugate phasor.
package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/fft"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/sky"
	"repro/internal/taper"
	"repro/internal/uvwsim"
	"repro/internal/xmath"
)

// Precision selects the storage and arithmetic width of the kernel
// hot loops (the gathered visibility block, the phasor buffers and the
// accumulators). Phase arguments and sine/cosine seeds are always
// evaluated in float64; only the per-term storage and arithmetic
// narrow. See DESIGN.md ("Pixel tiling and precision") for the float32
// error bound and when not to use it.
type Precision int

const (
	// Float64 (the default) computes and accumulates in double
	// precision.
	Float64 Precision = iota
	// Float32 stores the planar visibility/pixel blocks, phasors and
	// accumulators as float32 — the paper's kernels are single
	// precision — halving hot-loop memory traffic at the cost of an
	// error that grows linearly with the work-item size
	// (xmath.Float32AccumBound plus the float32 rotation drift).
	Float32
)

func (p Precision) String() string {
	switch p {
	case Float64:
		return "float64"
	case Float32:
		return "float32"
	default:
		return fmt.Sprintf("Precision(%d)", int(p))
	}
}

// defaultPixelTileRows is the default pixel-tile height in subgrid
// rows. Four rows of a 24-pixel subgrid give 96-pixel tiles: enough
// work to amortize the per-tile setup, small enough that even a
// two-subgrid pass fans out across a dozen cores.
const defaultPixelTileRows = 4

// defaultDegridTileRows is the degridder's tile height: each (t, c)
// folds its lane sums once per tile, so a taller tile folds less per
// pixel. Eight rows of a 24-pixel subgrid (192 pixels) keep a tile's
// planes and phasors in L1 in both precisions
// (BenchmarkAblationDegridTileRows).
const defaultDegridTileRows = 8

// DefaultStreamChunkItems is the largest (and, for one-worker and
// checkpointed passes, the only) derived number of work items per
// chunk of a gridding or degridding pass. At the paper's subgrid size
// (24 pixels, 4 correlations) one chunk of 256 subgrids is ~9 MB of
// complex128 pixels — large enough to amortize per-chunk scheduling,
// small enough that a handful of in-flight chunks stay far below grid
// memory.
const DefaultStreamChunkItems = 256

// A multi-worker pass cuts its plan into about streamChunksPerWorker
// chunks per chunk worker, so that the last chunks to finish leave the
// other workers idle for at most ~1/16 of the pass (256-item chunks
// split a 1740-item plan 4:3 over two workers), but never into chunks
// below minStreamChunkItems, where per-chunk scheduling would show.
const (
	streamChunksPerWorker = 16
	minStreamChunkItems   = 8
)

// DefaultCheckpointEvery is the default checkpoint period, in streamed
// chunks, when CheckpointDir is set without an explicit period. At the
// default chunk size that is ~4096 work items of progress per durable
// snapshot — frequent enough that a crash loses minutes, rare enough
// that grid serialization stays far below gridding time.
const DefaultCheckpointEvery = 16

// Params configures the IDG kernels.
type Params struct {
	// GridSize is the grid dimension in pixels.
	GridSize int
	// SubgridSize is the subgrid dimension N~ in pixels.
	SubgridSize int
	// ImageSize is the field-of-view extent in direction cosines.
	ImageSize float64
	// Frequencies are the channel center frequencies in Hz.
	Frequencies []float64
	// Taper is the image-domain window applied to every subgrid; nil
	// selects the prolate spheroidal used by the paper.
	Taper func(nu float64) float64
	// Workers bounds the worker pool; <= 0 means GOMAXPROCS.
	Workers int
	// Observer receives pipeline metrics and stage/item/tile trace
	// spans (see internal/obs). nil disables observation entirely: the
	// hot path then pays one predictable branch per item and stage,
	// takes no timestamps and allocates nothing.
	Observer *obs.Observer
	// Precision selects float64 (default) or float32 kernel storage
	// and arithmetic.
	Precision Precision
	// GridShards splits the master uv-grid into this many independently
	// locked row bands for the gridding pass and the sharded
	// adder/splitter. 0 (the default) selects one shard per worker.
	// The shard count never changes what a one-worker pass computes;
	// with several workers more shards mean less adder contention.
	// Values above the grid size are clamped.
	GridShards int
	// MaxInflightChunks bounds how many chunks of a gridding or
	// degridding pass may be between their first and last stage at once
	// — at most this many chunk workers run — which bounds peak subgrid
	// memory at MaxInflightChunks x chunk size subgrids. <= 0 leaves the
	// bound to Workers.
	MaxInflightChunks int
	// StreamChunkItems pins the number of work items per chunk of both
	// passes; <= 0 derives it from the plan length and the
	// chunk-worker count (see Kernels.StreamChunkItems).
	StreamChunkItems int
	// CheckpointDir, when non-empty, makes the gridding pass write a
	// durable snapshot (grid + chunk cursor + fault report, see
	// internal/checkpoint) into this directory every CheckpointEvery
	// chunks and once more at the end.
	CheckpointDir string
	// CheckpointEvery is the checkpoint period in streamed chunks;
	// <= 0 with a CheckpointDir selects DefaultCheckpointEvery.
	// Setting it without CheckpointDir is a validation error. A
	// W-stacked plan checkpoints at every W-layer end instead.
	CheckpointEvery int
	// CheckpointHook observes the scheduler's durability-critical
	// points (chunk commit, snapshot write, atomic rename). It is the
	// crash-injection seam of the kill-and-resume chaos tests — a hook
	// may panic to simulate a kill; nil in production.
	CheckpointHook checkpoint.Hook
	// DisableBatching selects the straightforward reference kernels
	// instead of the batch-blocked ones: the scalar oracle whose bits do
	// not depend on host FMA/SIMD dispatch (the committed golden grid
	// hash is computed with it; results are identical to rounding).
	DisableBatching bool
	// DisablePhasorRecurrence forces one sine/cosine evaluation per
	// (pixel, time step, channel) even when the channel spacing is
	// uniform, instead of the phasor rotation recurrence (the oracle of
	// the recurrence's error bound; the results are identical to within
	// xmath.PhasorErrorBound).
	DisablePhasorRecurrence bool

	// forceSIMD pins the dispatch tier of this Kernels value,
	// overriding xmath.ActiveSIMD (still clamped to the detected
	// hardware: forcing an unsupported tier would fault). It is the
	// in-process test seam behind the per-tier property tests — the
	// IDG_SIMD environment override resolves once per process, so
	// per-tier coverage inside one test binary needs a per-Kernels
	// knob. Unexported deliberately: production callers use IDG_SIMD.
	forceSIMD *xmath.SIMDTier
	// pixelTileRows and visBlockTimesteps are the tiling seams the
	// decomposition tests and ablation benchmarks sweep; passes leave
	// both zero. pixelTileRows is the pixel-tile height in subgrid rows
	// of both directions (<= 0 selects defaultPixelTileRows and
	// defaultDegridTileRows; SubgridSize or more runs every subgrid as
	// one unit), visBlockTimesteps the time steps per visibility block
	// of the gridder and per phasor seeding of the degridder (<= 0
	// selects an L1-sized block, pixBlockBytes). Results are identical
	// for every value of either, but for the degridder's tile height,
	// which reassociates its pixel sums.
	pixelTileRows, visBlockTimesteps int
}

// Validate checks the parameters.
func (p *Params) Validate() error {
	switch {
	case p.GridSize < 2:
		return fmt.Errorf("core: grid size %d too small", p.GridSize)
	case p.SubgridSize < 2 || p.SubgridSize%2 != 0:
		return fmt.Errorf("core: subgrid size %d must be even and >= 2", p.SubgridSize)
	case p.SubgridSize > p.GridSize:
		return fmt.Errorf("core: subgrid %d exceeds grid %d", p.SubgridSize, p.GridSize)
	case !(p.ImageSize > 0) || math.IsInf(p.ImageSize, 1):
		return fmt.Errorf("core: image size %g must be positive and finite", p.ImageSize)
	case len(p.Frequencies) == 0:
		return fmt.Errorf("core: no frequencies")
	case p.Precision != Float64 && p.Precision != Float32:
		return fmt.Errorf("core: unknown precision %d", int(p.Precision))
	case p.GridShards < 0:
		return fmt.Errorf("core: negative grid shards %d", p.GridShards)
	case p.MaxInflightChunks < 0:
		return fmt.Errorf("core: negative max in-flight chunks %d", p.MaxInflightChunks)
	case p.StreamChunkItems < 0:
		return fmt.Errorf("core: negative stream chunk items %d", p.StreamChunkItems)
	case p.GridShards > p.GridSize:
		return fmt.Errorf("core: %d grid shards exceed the %d-row grid", p.GridShards, p.GridSize)
	case p.CheckpointEvery < 0:
		return fmt.Errorf("core: negative checkpoint period %d", p.CheckpointEvery)
	case p.CheckpointEvery > 0 && p.CheckpointDir == "":
		return fmt.Errorf("core: checkpoint period %d set without a checkpoint directory", p.CheckpointEvery)
	}
	for i, f := range p.Frequencies {
		if !(f > 0) || math.IsInf(f, 1) {
			return fmt.Errorf("core: frequency %d not positive and finite: %g", i, f)
		}
	}
	return CheckFieldOfView(p.ImageSize, p.SubgridSize, p.GridSize)
}

// CheckFieldOfView rejects an image size whose corner pixel, laid out
// as NewKernels (subgrid) and ApplyWScreen (grid) lay it out on an
// image of any of the given sizes, lies outside the unit sphere.
func CheckFieldOfView(imageSize float64, sizes ...int) error {
	for _, s := range sizes {
		c := float64(-(s / 2)) * (imageSize / float64(s))
		if c*c+c*c > 1 {
			return fmt.Errorf("core: image size %g puts the corner pixel of a %d-pixel image at l = m = %g, outside the unit sphere", imageSize, s, c)
		}
	}
	return nil
}

func (p *Params) workers() int {
	if p.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p.Workers
}

// checkpointEnabled reports whether gridding passes write durable
// snapshots.
func (p *Params) checkpointEnabled() bool { return p.CheckpointDir != "" }

// checkpointEvery resolves the checkpoint period in chunks.
func (p *Params) checkpointEvery() int {
	if p.CheckpointEvery > 0 {
		return p.CheckpointEvery
	}
	return DefaultCheckpointEvery
}

// gridShards resolves the shard count: the configured value, or one
// shard per worker.
func (p *Params) gridShards() int {
	if p.GridShards > 0 {
		return p.GridShards
	}
	return p.workers()
}

// chunkWorkers resolves how many chunks a pass keeps in flight, each
// on its own worker.
func (p *Params) chunkWorkers() int {
	w := p.workers()
	if p.MaxInflightChunks > 0 && p.MaxInflightChunks < w {
		w = p.MaxInflightChunks
	}
	return w
}

// StreamChunkItems returns the chunk size, in work items, of a pass
// over a plan of planItems items: Params.StreamChunkItems when pinned,
// otherwise derived from what the pass can observe. A
// checkpointed pass always gets DefaultStreamChunkItems — its chunk
// cursor is only meaningful relative to the chunking it was counted
// in, so the chunking must not depend on Workers — and so does a pass
// with one chunk worker, which has nothing to balance. Other passes aim
// at streamChunksPerWorker chunks per chunk worker.
func (k *Kernels) StreamChunkItems(planItems int) int {
	p := &k.params
	cw := p.chunkWorkers()
	switch {
	case p.StreamChunkItems > 0:
		return p.StreamChunkItems
	case p.checkpointEnabled() || cw == 1:
		return DefaultStreamChunkItems
	}
	per := streamChunksPerWorker * cw
	return min(max((planItems+per-1)/per, minStreamChunkItems), DefaultStreamChunkItems)
}

// Kernels holds the precomputed state shared by all kernel
// invocations: per-pixel direction cosines, the taper map, wavenumber
// scales, and the subgrid FFT plan. Kernels is safe for concurrent
// use once built.
type Kernels struct {
	params Params

	// Per-pixel tables for the subgrid, indexed y*N~+x.
	l, m, n []float64
	taper   []float64

	// scale[c] = 2*pi * Frequencies[c] / c0 converts a phase index in
	// meters to radians for channel c.
	scale []float64

	// Phasor recurrence state: when the channel frequencies are
	// uniformly spaced (detected once here), the per-channel phase is
	// affine in the channel index and the batched kernels replace
	// per-channel sincos with rotations by dscale (radians per meter
	// per channel). Non-uniform plans fall back to the direct path.
	uniformScale bool
	dscale       float64

	sgFFT *fft.Plan2D

	// disp is the SIMD dispatch table resolved once at construction
	// (see dispatch.go): the active tier plus the vector tile kernels
	// it enables, already accounting for the IDG_SIMD override and the
	// forceSIMD test seam.
	disp simdDispatch

	// Per-worker buffer pools of the pipeline hot path (see
	// scratch.go). Both reach a steady state with zero allocations per
	// work item.
	scratchPool sync.Pool
	subgridPool sync.Pool

	// ob is the pre-resolved observability sink (nil when
	// Params.Observer is nil; see observe.go).
	ob *kernelObs
}

// NewKernels precomputes the kernel state for the given parameters.
func NewKernels(params Params) (*Kernels, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	k := &Kernels{params: params}
	sg := params.SubgridSize
	k.l = make([]float64, sg*sg)
	k.m = make([]float64, sg*sg)
	k.n = make([]float64, sg*sg)
	pixel := params.ImageSize / float64(sg)
	for y := 0; y < sg; y++ {
		mv := float64(y-sg/2) * pixel
		for x := 0; x < sg; x++ {
			lv := float64(x-sg/2) * pixel
			i := y*sg + x
			k.l[i] = lv
			k.m[i] = mv
			k.n[i] = sky.N(lv, mv)
		}
	}
	tf := params.Taper
	if tf == nil {
		tf = taper.Spheroidal
	}
	k.taper = taper.Window2D(sg, tf)
	k.scale = make([]float64, len(params.Frequencies))
	for c, f := range params.Frequencies {
		k.scale[c] = 2 * 3.141592653589793 * f / uvwsim.SpeedOfLight
	}
	// Detect uniform channel spacing once: the recurrence kernels only
	// engage when the per-channel phase step is constant. The relative
	// tolerance is tight (1e-12 of the band spread) so that treating a
	// nearly-uniform plan as uniform could never move a phase by more
	// than ~1e-10 rad over the kernels' argument range.
	if df, ok := xmath.UniformSpacing(params.Frequencies, 1e-12); ok && !params.DisablePhasorRecurrence {
		k.uniformScale = true
		k.dscale = 2 * math.Pi * df / uvwsim.SpeedOfLight
	}
	tier := xmath.ActiveSIMD()
	if params.forceSIMD != nil {
		tier = *params.forceSIMD
		if tier > xmath.DetectedSIMD() {
			tier = xmath.DetectedSIMD()
		}
	}
	k.disp = dispatchFor(tier)
	// Shared via the package cache: every Kernels value (and every
	// chunk worker) reuses one immutable plan per size.
	k.sgFFT = fft.CachedPlan2D(sg, sg)
	k.scratchPool.New = func() any { return new(scratch) }
	k.subgridPool.New = func() any { return grid.NewSubgrid(sg, 0, 0) }
	k.ob = newKernelObs(params.Observer)
	return k, nil
}

// Params returns a copy of the kernel parameters.
func (k *Kernels) Params() Params { return k.params }

// tileRows resolves the configured pixel-tile height, def unless the
// seam sets one, for a subgrid of the given row count.
func (k *Kernels) tileRows(rows, def int) int {
	if tr := k.params.pixelTileRows; tr > 0 {
		def = tr
	}
	return min(def, rows)
}

// uvOffset returns the uv offset of a subgrid anchored at (x0, y0), in
// wavelengths.
func (k *Kernels) uvOffset(x0, y0 int) (uOff, vOff float64) {
	n, sg := k.params.GridSize, k.params.SubgridSize
	uOff = float64(x0+sg/2-n/2) / k.params.ImageSize
	vOff = float64(y0+sg/2-n/2) / k.params.ImageSize
	return uOff, vOff
}
