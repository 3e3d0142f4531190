package core

import (
	"fmt"
	"math"

	"repro/internal/faulttol"
	"repro/internal/grid"
	"repro/internal/plan"
	"repro/internal/uvwsim"
	"repro/internal/xmath"
)

const twoPi = 2 * math.Pi

// GridSubgrid executes Algorithm 1 of the paper for one work item: it
// accumulates the item's visibilities onto the image-domain subgrid,
// then applies the A-term adjoint and the taper.
//
// uvw holds one coordinate per covered time step (meters); vis holds
// the covered visibilities indexed [t*item.NrChannels + c]. atermP and
// atermQ are the per-pixel station responses (nil for identity). The
// subgrid out is overwritten, including its anchor metadata.
func (k *Kernels) GridSubgrid(item plan.WorkItem, uvw []uvwsim.UVW, vis []xmath.Matrix2, atermP, atermQ []xmath.Matrix2, out *grid.Subgrid) {
	s := k.getScratch()
	k.gridSubgridScratch(item, uvw, vis, jonesOf(s, atermP, atermQ), out, s, k.params.workers())
	k.putScratch(s)
}

// gridSubgridScratch is GridSubgrid with caller-owned scratch buffers
// and an explicit pixel-tile parallelism hint: the pipeline threads one
// scratch per worker through it so the steady state allocates nothing,
// and raises par above 1 when it runs fewer items at once than it has
// workers, so the item's pixel tiles fan out (see tilePar, runTiles).
func (k *Kernels) gridSubgridScratch(item plan.WorkItem, uvw []uvwsim.UVW, vis []xmath.Matrix2, a jones, out *grid.Subgrid, s *scratch, par int) {
	k.checkItem(item, uvw, vis)
	out.X0, out.Y0, out.WOffset = item.X0, item.Y0, item.WOffset
	if k.params.DisableBatching {
		if k.ob.enabled() {
			k.ob.kernelPath(k.ob.pathRef)
		}
		k.gridSubgridReference(item, uvw, vis, a, out)
		return
	}
	if k.params.Precision == Float32 {
		if k.ob.enabled() {
			k.ob.kernelPath(k.ob.pathVec32)
		}
		gridSubgridTiled(k, item, uvw, vis, a, out, s, par, k.disp.grid32)
	} else {
		if k.ob.enabled() {
			k.ob.kernelPath(k.ob.pathVec)
		}
		gridSubgridTiled(k, item, uvw, vis, a, out, s, par, k.disp.grid64)
	}
}

// phasorMinChannels is the smallest channel count for which the
// recurrence wins, in both tiles of every tier: it replaces nc sincos
// evaluations per (pixel, time step) with two plus nc-1 complex
// rotations. Measured with BenchmarkAblationChannelCount on the
// reference host, ms per 64-step item of the pixel-lane gridder
// (rowChannels), recurrence against direct, one thread, best of five (at
// two channels with the recurrence forced on): under IDG_SIMD=scalar,
// the Go lanes, float64 c=2 2.24 against 2.19, c=3 2.51 against 3.26,
// c=4 2.88 against 4.17, float32 1.95 against 2.00, 2.38 against 2.92,
// 2.67 against 3.95; on the avx512 tier, whose evaluations are batched
// at a twentieth of that cost, float64 0.125 against 0.115-0.124,
// 0.14-0.15 against 0.17, 0.16 against 0.22, float32 0.112 against
// 0.110, 0.13 against 0.155, 0.135 against 0.21; on the avx2 tier
// float64 0.210 against 0.200, 0.26 against 0.32, 0.285 against 0.41,
// float32 0.196 against 0.189, 0.22 against 0.29, 0.23 against 0.36 —
// the two forms cross between 2 and 3 channels on every tier, and below
// the crossing the direct form has no drift to bound.
const phasorMinChannels = 3

// useRecurrence reports whether the phasor rotation recurrence applies
// to a work item of nc channels, in both tiles of every tier.
func (k *Kernels) useRecurrence(nc int) bool {
	return k.uniformScale && nc >= phasorMinChannels
}

// checkItem validates a work item against its buffers. It panics with
// errors wrapping faulttol.ErrBadInput so that the fault-tolerant
// pipeline runner classifies the failure as deterministic bad input
// while direct kernel callers still crash loudly.
func (k *Kernels) checkItem(item plan.WorkItem, uvw []uvwsim.UVW, vis []xmath.Matrix2) {
	if len(uvw) != item.NrTimesteps {
		panic(fmt.Errorf("%w: uvw length %d does not match work item (%d timesteps)",
			faulttol.ErrBadInput, len(uvw), item.NrTimesteps))
	}
	if len(vis) != item.NrVisibilities() {
		panic(fmt.Errorf("%w: visibility count %d does not match work item (%d)",
			faulttol.ErrBadInput, len(vis), item.NrVisibilities()))
	}
	if item.Channel0 < 0 || item.Channel0+item.NrChannels > len(k.scale) {
		panic(fmt.Errorf("%w: work item channels [%d, %d) out of bounds (%d kernel channels)",
			faulttol.ErrBadInput, item.Channel0, item.Channel0+item.NrChannels, len(k.scale)))
	}
}

// gridSubgridReference is the direct transcription of Algorithm 1,
// kept as the correctness reference and the "no batching" ablation.
func (k *Kernels) gridSubgridReference(item plan.WorkItem, uvw []uvwsim.UVW, vis []xmath.Matrix2, a jones, out *grid.Subgrid) {
	sg := k.params.SubgridSize
	uOff, vOff := k.uvOffset(item.X0, item.Y0)
	wOff := item.WOffset
	for i := 0; i < sg*sg; i++ {
		l, m, n := k.l[i], k.m[i], k.n[i]
		phaseOffset := twoPi * (uOff*l + vOff*m + wOff*n)
		var sum xmath.Matrix2
		for t := 0; t < item.NrTimesteps; t++ {
			c3 := uvw[t]
			phaseIndex := c3.U*l + c3.V*m + c3.W*n
			for c := 0; c < item.NrChannels; c++ {
				phase := phaseIndex*k.scale[item.Channel0+c] - phaseOffset
				sin, cos := xmath.SincosFast(phase)
				phi := complex(cos, sin)
				v := vis[t*item.NrChannels+c]
				sum[0] += phi * v[0]
				sum[1] += phi * v[1]
				sum[2] += phi * v[2]
				sum[3] += phi * v[3]
			}
		}
		k.storePixel(out, i, sum, a)
	}
}

// storePixel applies the A-term adjoint (Ap^H * S * Aq) and the taper,
// then writes the pixel.
func (k *Kernels) storePixel(out *grid.Subgrid, i int, sum xmath.Matrix2, a jones) {
	if !a.none() {
		p, q := a.at(i)
		sum = p.Hermitian().Mul(sum).Mul(q)
	}
	tp := complex(k.taper[i], 0)
	out.Data[0][i] = sum[0] * tp
	out.Data[1][i] = sum[1] * tp
	out.Data[2][i] = sum[2] * tp
	out.Data[3][i] = sum[3] * tp
}

// gridSubgridTiled implements the optimized CPU strategy of
// Section V-B with the paper's GPU work decomposition layered on top:
// the visibilities are transposed once into planar real/imaginary
// arrays of the kernel precision F (optimization (1) of Section
// V-B-a), then the subgrid's pixels are processed in row tiles
// (runTiles) that read the shared planar block and write disjoint
// pixel ranges. Per-pixel accumulation order is independent of the
// tile and block sizes, so the result is identical for every
// decomposition (and bitwise reproducible under concurrent tiles).
func gridSubgridTiled[F floatT](k *Kernels, item plan.WorkItem, uvw []uvwsim.UVW, vis []xmath.Matrix2, a jones, out *grid.Subgrid, s *scratch, par int, tile gridTileFn[F]) {
	sg := k.params.SubgridSize
	nt, nc := item.NrTimesteps, item.NrChannels
	b := bufsOf[F](s)
	backing := grow(&b.planar, 8*nt*nc)
	var re, im [4][]F
	for p := 0; p < 4; p++ {
		re[p] = backing[(2*p)*nt*nc : (2*p+1)*nt*nc]
		im[p] = backing[(2*p+1)*nt*nc : (2*p+2)*nt*nc]
	}
	for j, v := range vis {
		re[0][j], im[0][j] = F(real(v[0])), F(imag(v[0]))
		re[1][j], im[1][j] = F(real(v[1])), F(imag(v[1]))
		re[2][j], im[2][j] = F(real(v[2])), F(imag(v[2]))
		re[3][j], im[3][j] = F(real(v[3])), F(imag(v[3]))
	}
	tr := k.tileRows(sg, defaultPixelTileRows)
	if ntiles := (sg + tr - 1) / tr; par <= 1 || ntiles <= 1 {
		// Serial fast path: direct tile calls, no closure — the parallel
		// branch's fn escapes into worker goroutines, and that single
		// closure allocation is the only per-item heap traffic left.
		for r0 := 0; r0 < sg; r0 += tr {
			r1 := r0 + tr
			if r1 > sg {
				r1 = sg
			}
			tile(k, item, uvw, s, a, out, s, r0, r1)
		}
		return
	}
	k.runTiles(s, par, sg, tr, func(ts *scratch, row0, row1 int) {
		tile(k, item, uvw, s, a, out, ts, row0, row1)
	})
}

// gridTileFn is the per-tile gridder kernel, gridTilePix on every tier.
// It reads the shared planar visibility block out of the item-owner
// scratch sb (re-deriving the plane headers locally keeps them off the
// heap: the tile call is indirect, so pointer arguments would escape) and
// writes the disjoint pixel rows [row0, row1) of out.
type gridTileFn[F floatT] func(k *Kernels, item plan.WorkItem, uvw []uvwsim.UVW, sb *scratch, a jones, out *grid.Subgrid, ts *scratch, row0, row1 int)

// visPlanes re-derives the planar visibility block headers laid down
// by gridSubgridTiled in sb's arena.
func visPlanes[F floatT](sb *scratch, ntnc int) (re, im [4][]F) {
	backing := bufsOf[F](sb).planar
	for p := 0; p < 4; p++ {
		re[p] = backing[(2*p)*ntnc : (2*p+1)*ntnc]
		im[p] = backing[(2*p+1)*ntnc : (2*p+2)*ntnc]
	}
	return re, im
}
