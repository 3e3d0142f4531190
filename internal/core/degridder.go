package core

import (
	"repro/internal/grid"
	"repro/internal/plan"
	"repro/internal/uvwsim"
	"repro/internal/xmath"
)

// DegridSubgrid executes Algorithm 2 of the paper for one work item:
// given the image-domain subgrid (as produced by the splitter plus the
// inverse subgrid FFT), it applies the taper and the A-terms and then
// predicts the item's visibilities with the conjugate phasor of the
// gridder. Results are stored into vis[t*item.NrChannels + c].
//
// The input subgrid is not modified.
func (k *Kernels) DegridSubgrid(item plan.WorkItem, in *grid.Subgrid, uvw []uvwsim.UVW, atermP, atermQ []xmath.Matrix2, vis []xmath.Matrix2) {
	s := k.getScratch()
	k.degridSubgridScratch(item, in, uvw, jonesOf(s, atermP, atermQ), vis, s, k.params.workers())
	k.putScratch(s)
}

// degridSubgridScratch is DegridSubgrid with caller-owned scratch
// buffers and an explicit pixel-tile parallelism hint (see
// gridSubgridScratch).
func (k *Kernels) degridSubgridScratch(item plan.WorkItem, in *grid.Subgrid, uvw []uvwsim.UVW, a jones, vis []xmath.Matrix2, s *scratch, par int) {
	k.checkItem(item, uvw, vis)
	if k.params.DisableBatching {
		if k.ob.enabled() {
			k.ob.kernelPath(k.ob.pathRef)
		}
		k.degridSubgridReference(item, in, uvw, a, vis)
		return
	}
	if k.params.Precision == Float32 {
		if k.ob.enabled() {
			k.ob.kernelPath(k.ob.pathVec32)
		}
		degridSubgridTiled(k, item, in, uvw, a, vis, s, par, k.disp.degrid32)
	} else {
		if k.ob.enabled() {
			k.ob.kernelPath(k.ob.pathVec)
		}
		degridSubgridTiled(k, item, in, uvw, a, vis, s, par, k.disp.degrid64)
	}
}

// correctedPixel applies the forward A-terms (Ap * S * Aq^H) and the
// taper to pixel i of the input subgrid.
func (k *Kernels) correctedPixel(in *grid.Subgrid, i int, a jones) xmath.Matrix2 {
	s := xmath.Matrix2{in.Data[0][i], in.Data[1][i], in.Data[2][i], in.Data[3][i]}
	if !a.none() {
		p, q := a.at(i)
		s = p.Mul(s).Mul(q.Hermitian())
	}
	tp := complex(k.taper[i], 0)
	return xmath.Matrix2{s[0] * tp, s[1] * tp, s[2] * tp, s[3] * tp}
}

// degridSubgridReference is the direct transcription of Algorithm 2.
func (k *Kernels) degridSubgridReference(item plan.WorkItem, in *grid.Subgrid, uvw []uvwsim.UVW, a jones, vis []xmath.Matrix2) {
	sg := k.params.SubgridSize
	uOff, vOff := k.uvOffset(item.X0, item.Y0)
	wOff := item.WOffset
	for j := range vis {
		vis[j] = xmath.Matrix2{}
	}
	for t := 0; t < item.NrTimesteps; t++ {
		c3 := uvw[t]
		for c := 0; c < item.NrChannels; c++ {
			scale := k.scale[item.Channel0+c]
			var sum xmath.Matrix2
			for i := 0; i < sg*sg; i++ {
				l, m, n := k.l[i], k.m[i], k.n[i]
				phaseOffset := twoPi * (uOff*l + vOff*m + wOff*n)
				phaseIndex := c3.U*l + c3.V*m + c3.W*n
				// alpha = -(phase used by the gridder): conjugate.
				sin, cos := xmath.SincosFast(phaseIndex*scale - phaseOffset)
				phi := complex(cos, -sin)
				s := k.correctedPixel(in, i, a)
				sum[0] += phi * s[0]
				sum[1] += phi * s[1]
				sum[2] += phi * s[2]
				sum[3] += phi * s[3]
			}
			vis[t*item.NrChannels+c] = sum
		}
	}
}

// degridSubgridTiled implements the optimized strategy of
// Section V-B-b with pixel tiling layered on top: the corrected pixels
// are precomputed once into planar real/imaginary arrays of the kernel
// precision ("vectorization over pixels"), the per-pixel phase offsets
// are hoisted, and the pixel loop is split into row tiles. Each tile
// adds its sum over its own pixels into every (t, c) once, in tile
// order, so the result is bitwise reproducible for a fixed tile size
// (changing the tile size reassociates the pixel sum within the
// documented rounding bound). Parallel workers split the time steps
// instead (runTiles), every one running all tiles over its span of
// disjoint (t, c): the serial path's additions, element by element.
//
// On uniformly spaced channels each pixel's phasor advances from
// channel to channel by a fixed per-pixel delta phasor (the phase is
// affine in the channel index), so the per-channel sincos sweep over
// the pixels collapses to two evaluations per (pixel, time step) plus
// one complex rotation per (pixel, channel), re-synchronized exactly
// every xmath.DefaultPhasorResync channels.
func degridSubgridTiled[F floatT](k *Kernels, item plan.WorkItem, in *grid.Subgrid, uvw []uvwsim.UVW, a jones, vis []xmath.Matrix2, s *scratch, par int, tile degridTileFn[F]) {
	sg := k.params.SubgridSize
	npix := sg * sg
	nt, nc := item.NrTimesteps, item.NrChannels

	// Apply taper and A-terms once; split planes (degridPrologue, the
	// degridder's analogue of the gridder's transposition step). The
	// planar block and phase-offset table are shared read-only by all
	// tiles.
	b := bufsOf[F](s)
	start := k.ob.now()
	degridPrologue(k, in, a, s, grow(&b.planar, 8*npix))
	uOff, vOff := k.uvOffset(item.X0, item.Y0)
	wOff := item.WOffset
	pOff := growF(&s.pOff, npix)
	for i := range pOff {
		// Every product rounded, as stagePIdx rounds them: no compiler
		// may fuse these, so the offsets are the same bits everywhere.
		pOff[i] = twoPi * (float64(uOff*k.l[i]) + float64(vOff*k.m[i]) + float64(wOff*k.n[i]))
	}
	k.ob.prologueDone(start)

	vsum := grow(&b.vsum, 8*nt*nc)
	clear(vsum)
	tr := k.tileRows(sg, defaultDegridTileRows)
	if par <= 1 || nt < 2 {
		// Serial: direct calls, no closure (see gridSubgridTiled).
		degridTiles(k, item, s, uvw, s, tr, vsum, tile)
	} else {
		// Spans of a quarter of a worker's share of the steps, so that a
		// worker which falls behind leaves some to the others.
		span := (nt + 4*par - 1) / (4 * par)
		k.runTiles(s, par, nt, span, func(ts *scratch, t0, t1 int) {
			it := item
			it.NrTimesteps = t1 - t0
			degridTiles(k, it, s, uvw[t0:t1], ts, tr, vsum[8*t0*nc:8*t1*nc], tile)
		})
	}
	for j := 0; j < nt*nc; j++ {
		a := vsum[8*j:]
		vis[j] = xmath.Matrix2{
			complex(float64(a[0]), float64(a[1])), complex(float64(a[2]), float64(a[3])),
			complex(float64(a[4]), float64(a[5])), complex(float64(a[6]), float64(a[7])),
		}
	}
}

// degridTiles runs the item's tiles of tr rows in order over all its
// time steps, each adding its sums into dst.
func degridTiles[F floatT](k *Kernels, item plan.WorkItem, sb *scratch, uvw []uvwsim.UVW, ts *scratch, tr int, dst []F, tile degridTileFn[F]) {
	sg := k.params.SubgridSize
	for r0 := 0; r0 < sg; r0 += tr {
		tile(k, item, sb, uvw, ts, r0, min(r0+tr, sg), dst)
	}
}

// degridTileFn is the per-tile degridder kernel, degridTileFused on every
// tier. It reads the shared corrected-pixel planes and phase offsets out
// of the item-owner scratch sb (re-derived locally, as in gridTileFn) and
// accumulates the tile's pixel contributions into dst.
type degridTileFn[F floatT] func(k *Kernels, item plan.WorkItem, sb *scratch, uvw []uvwsim.UVW, ts *scratch, row0, row1 int, dst []F)
