package core

import (
	"repro/internal/grid"
	"repro/internal/xmath"
)

// floatT constrains the kernel element type to the two supported
// precisions (Params.Precision). The tiled kernels are generic over it;
// Go instantiates a fully specialized body per width, so the float64
// path pays nothing for the float32 one existing.
type floatT interface {
	~float32 | ~float64
}

// kbufs holds the precision-dependent kernel buffers of one scratch
// arena: the planar re/im backing, the phasor state, the pixel-tile
// accumulators and the degridder's visibility sums. One instantiation
// per precision lives in every scratch; only the one matching
// Params.Precision ever grows.
type kbufs[F floatT] struct {
	planar []F // 8-plane re/im backing (gridder: vis block, degridder: pixels)

	// Phasor buffers: the generic gridder's direct (non-recurrence) path
	// uses phRe/phIm per channel; the generic degridder uses all four per
	// pixel (current and delta phasors), the fused one phRe/phIm per
	// staged row of pixels.
	phRe, phIm []F
	dRe, dIm   []F

	// acc is the generic gridder's per-tile accumulator block, 8 floats
	// per pixel of the tile, carried across visibility blocks. vacc is the
	// pixel-lane gridder's (amd64 only): 8 sums per pixel in the planar
	// groups its kernel leaves them in.
	acc  []F
	vacc []F

	// vsum is the degridder's visibility accumulator (8 floats per
	// visibility); partial holds the per-tile partial sums when tiles
	// run in parallel, reduced in tile order for determinism.
	vsum, partial []F

	// reP/imP are heap homes for the gridder tile's planar headers
	// (re-derived views into the item owner's planar block): their
	// addresses cross the any()-based FMA dispatch, which would
	// otherwise move stack copies to the heap once per tile.
	reP, imP [4][]F
}

// scratch holds the per-worker reusable buffers of the kernel hot
// path. A scratch is owned by exactly one worker at a time (handed out
// by Kernels.getScratch / returned by putScratch), so its buffers need
// no synchronization. Buffers grow monotonically to the largest work
// item seen and are reused as-is afterwards — every kernel fully
// overwrites the prefix it slices off, so no zeroing happens between
// items (except the accumulators, which start each tile at zero by
// definition).
type scratch struct {
	vis []xmath.Matrix2 // gather/scatter buffer, one entry per visibility

	// Phase tables stay float64 in both precisions: a float32 phase of
	// magnitude ~1e4 rad would lose ~1e-3 rad to rounding, far beyond
	// the float32 accumulation error class.
	pIdx, pOff []float64

	// geo holds a pixel-lane gridder tile's direction cosines and phase
	// offsets (planes l, m, n, off), zero-padded to whole lane groups.
	geo []float64

	// Batched sine/cosine staging of the vector tiles: phase arguments
	// gathered into sArg and evaluated in one Kernels.sincosVec call per
	// (pixel group, visibility block) of the gridder and per time step of
	// the degridder (results land in sSin/sCos, or directly in the
	// float64 phasor buffers). Arguments and results stay float64 in
	// both precisions, like the phase tables above.
	sArg, sSin, sCos []float64

	// sums holds a float32 vector gridder tile's sums widened to
	// float64, eight per pixel (a Matrix2's components) in the tier's
	// planar groups (simdDispatch.sumsW), for the A-term/taper sweep of
	// gridEpilogue. jones holds the planes of the two A-term maps a
	// direct caller of a vector tier's kernels supplied per pixel.
	sums, jones []float64

	b64 kbufs[float64]
	b32 kbufs[float32]
}

// bufsOf selects the scratch buffer set matching the instantiated
// precision. The type switch folds away at instantiation time.
func bufsOf[F floatT](s *scratch) *kbufs[F] {
	var z F
	switch any(z).(type) {
	case float32:
		return any(&s.b32).(*kbufs[F])
	default:
		return any(&s.b64).(*kbufs[F])
	}
}

// grow returns (*buf)[:n], reallocating when the capacity is too
// small. The returned prefix contains stale data by design.
func grow[F floatT](buf *[]F, n int) []F {
	if cap(*buf) < n {
		*buf = make([]F, n)
	}
	return (*buf)[:n]
}

// growF is grow for the float64-only phase tables.
func growF(buf *[]float64, n int) []float64 { return grow(buf, n) }

// visBuf returns the gather buffer resized to n visibilities.
func (s *scratch) visBuf(n int) []xmath.Matrix2 {
	if cap(s.vis) < n {
		s.vis = make([]xmath.Matrix2, n)
	}
	return s.vis[:n]
}

// getScratch hands out a per-worker scratch from the kernel pool.
func (k *Kernels) getScratch() *scratch {
	return k.scratchPool.Get().(*scratch)
}

// putScratch returns a scratch to the pool for the next worker.
func (k *Kernels) putScratch(s *scratch) {
	k.scratchPool.Put(s)
}

// getSubgrid hands out a pooled subgrid re-anchored at (x0, y0). The
// pixel data is stale: every consumer (the gridder kernel and the
// splitter) overwrites all N~^2 pixels of all four correlation planes,
// so pooled subgrids are never zeroed.
func (k *Kernels) getSubgrid(x0, y0 int) *grid.Subgrid {
	s := k.subgridPool.Get().(*grid.Subgrid)
	s.X0, s.Y0, s.WOffset, s.WPlane = x0, y0, 0, -1
	return s
}

// putSubgrid returns a subgrid to the pool once the adder (or the
// degridder) is done with it.
func (k *Kernels) putSubgrid(s *grid.Subgrid) {
	k.subgridPool.Put(s)
}
