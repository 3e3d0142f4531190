package core

import (
	"math"

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
	k.degridSubgridScratch(item, in, uvw, k.jonesOf(s, atermP, atermQ), vis, s, k.params.workers())
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
		tile := degridTile[float32]
		vec := k.disp.degridVec32 != nil
		if vec {
			tile = k.disp.degridVec32
		}
		if k.ob.enabled() {
			if vec {
				k.ob.kernelPath(k.ob.pathVec32)
			} else {
				k.ob.kernelPath(k.ob.pathTiled32)
			}
		}
		degridSubgridTiled(k, item, in, uvw, a, vis, s, par, tile)
	} else {
		tile := degridTile[float64]
		vec := k.disp.degridVec64 != nil
		if vec {
			tile = k.disp.degridVec64
		}
		if k.ob.enabled() {
			if vec {
				k.ob.kernelPath(k.ob.pathVec)
			} else {
				k.ob.kernelPath(k.ob.pathTiled64)
			}
		}
		degridSubgridTiled(k, item, in, uvw, a, vis, s, par, tile)
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
				sin, cos := k.sincos(phaseIndex*scale - phaseOffset)
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
// are hoisted, and the pixel loop is split into row tiles (runTiles).
// Each tile produces a partial visibility sum over its own pixels;
// partials are then combined in tile order, so the full sum performs
// the identical addition sequence whether tiles ran serially or
// concurrently — the result is bitwise reproducible for a fixed tile
// size (changing the tile size reassociates the pixel sum within the
// documented rounding bound).
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
		pOff[i] = twoPi * (uOff*k.l[i] + vOff*k.m[i] + wOff*k.n[i])
	}
	k.ob.prologueDone(start)

	vsum := grow(&b.vsum, 8*nt*nc)
	tr := k.tileRows(sg)
	ntiles := (sg + tr - 1) / tr
	if par > ntiles {
		par = ntiles
	}
	if par <= 1 {
		// Serial: tiles accumulate straight into vsum in tile order,
		// called directly (no closure; see gridSubgridTiled).
		for i := range vsum {
			vsum[i] = 0
		}
		for r0 := 0; r0 < sg; r0 += tr {
			r1 := r0 + tr
			if r1 > sg {
				r1 = sg
			}
			tile(k, item, s, uvw, s, r0, r1, vsum)
		}
	} else {
		// Parallel: each tile owns a zeroed partial slab; combining the
		// partials in tile order afterwards performs the exact addition
		// sequence of the serial path, element by element.
		partial := grow(&b.partial, 8*nt*nc*ntiles)
		for i := range partial {
			partial[i] = 0
		}
		k.runTiles(s, par, sg, func(ts *scratch, row0, row1 int) {
			seg := partial[8*nt*nc*(row0/tr) : 8*nt*nc*(row0/tr+1)]
			tile(k, item, s, uvw, ts, row0, row1, seg)
		})
		for i := range vsum {
			vsum[i] = 0
		}
		for tile := 0; tile < ntiles; tile++ {
			seg := partial[8*nt*nc*tile : 8*nt*nc*(tile+1)]
			for i := range vsum {
				vsum[i] += seg[i]
			}
		}
	}
	for j := 0; j < nt*nc; j++ {
		a := vsum[8*j:]
		vis[j] = xmath.Matrix2{
			complex(float64(a[0]), float64(a[1])), complex(float64(a[2]), float64(a[3])),
			complex(float64(a[4]), float64(a[5])), complex(float64(a[6]), float64(a[7])),
		}
	}
}

// degridTileFn is the per-tile degridder kernel: the generic
// degridTile, or the hand-vectorized degridTileFused on the vector tiers.
// Both read the shared corrected-pixel planes and phase offsets out of
// the item-owner scratch sb (re-derived locally, as in gridTileFn) and
// accumulate the tile's pixel contributions into dst.
type degridTileFn[F floatT] func(k *Kernels, item plan.WorkItem, sb *scratch, uvw []uvwsim.UVW, ts *scratch, row0, row1 int, dst []F)

// degridTile predicts the contribution of pixel rows [row0, row1) to
// every visibility of the work item, accumulating into dst (8 floats
// per visibility, indexed 8*(t*nc+c)). Per (time step, channel) it runs
// two passes over the tile's pixels: a phasor pass (seed, rotate, or
// exact re-sync) and a conjugate accumulation pass, the latter fused on
// hardware FMA.
func degridTile[F floatT](k *Kernels, item plan.WorkItem, sb *scratch, uvw []uvwsim.UVW, ts *scratch, row0, row1 int, dst []F) {
	sg := k.params.SubgridSize
	nc := item.NrChannels
	i0, i1 := row0*sg, row1*sg
	n := i1 - i0
	tb := bufsOf[F](ts)
	pIdx := growF(&ts.pIdx, n)
	phRe := grow(&tb.phRe, n)
	phIm := grow(&tb.phIm, n)
	useRec := k.useRecurrence(nc)
	var dRe, dIm []F
	if useRec {
		dRe = grow(&tb.dRe, n)
		dIm = grow(&tb.dIm, n)
	}
	l, m, nn := k.l[i0:i1], k.m[i0:i1], k.n[i0:i1]
	pre, pim := visPlanes[F](sb, sg*sg)
	off := sb.pOff[i0:i1]
	var tpre, tpim [4][]F
	for p := 0; p < 4; p++ {
		tpre[p] = pre[p][i0:i1]
		tpim[p] = pim[p][i0:i1]
	}
	scale0 := k.scale[item.Channel0]
	for t := 0; t < item.NrTimesteps; t++ {
		c3 := uvw[t]
		for i := 0; i < n; i++ {
			pIdx[i] = c3.U*l[i] + c3.V*m[i] + c3.W*nn[i]
		}
		if useRec {
			// Seed the per-pixel phasors at channel 0 and the delta
			// phasors exp(i*pIdx*dscale) that advance them per channel.
			// Phase arguments and sincos stay float64 in both precisions.
			for i := 0; i < n; i++ {
				sv, cv := k.sincos(pIdx[i]*scale0 - off[i])
				phIm[i], phRe[i] = F(sv), F(cv)
				sv, cv = k.sincos(pIdx[i] * k.dscale)
				dIm[i], dRe[i] = F(sv), F(cv)
			}
		}
		for c := 0; c < nc; c++ {
			scale := k.scale[item.Channel0+c]
			switch {
			case !useRec:
				for i := 0; i < n; i++ {
					sv, cv := k.sincos(pIdx[i]*scale - off[i])
					phIm[i], phRe[i] = F(sv), F(cv)
				}
			case c == 0:
				// Seeded above.
			case c%xmath.DefaultPhasorResync == 0:
				// Exact re-sync bounds the rotation drift.
				for i := 0; i < n; i++ {
					sv, cv := k.sincos(pIdx[i]*scale - off[i])
					phIm[i], phRe[i] = F(sv), F(cv)
				}
			default:
				for i := 0; i < n; i++ {
					s, co := phIm[i], phRe[i]
					phIm[i] = s*dRe[i] + co*dIm[i]
					phRe[i] = co*dRe[i] - s*dIm[i]
				}
			}
			out := (*[8]F)(dst[8*(t*nc+c):])
			conjAccumulate(out, phRe, phIm, &tpre, &tpim, k.fastFMA)
		}
	}
}

// conjAccumulate adds sum_i conj(phasor_i) * pixel_i over the tile's
// pixels into out, one component pair per correlation.
func conjAccumulate[F floatT](out *[8]F, phRe, phIm []F, pre, pim *[4][]F, fastFMA bool) {
	if fastFMA {
		if o, ok := any(out).(*[8]float64); ok {
			conjAccumulateFMA(o, any(phRe).([]float64), any(phIm).([]float64),
				any(pre).(*[4][]float64), any(pim).(*[4][]float64))
			return
		}
	}
	var s0r, s0i, s1r, s1i, s2r, s2i, s3r, s3i F
	r0, i0v := pre[0], pim[0]
	r1, i1v := pre[1], pim[1]
	r2, i2v := pre[2], pim[2]
	r3, i3v := pre[3], pim[3]
	for i := range phRe {
		cr, ci := phRe[i], -phIm[i] // conjugate phasor
		vr, vi := r0[i], i0v[i]
		s0r += vr*cr - vi*ci
		s0i += vr*ci + vi*cr
		vr, vi = r1[i], i1v[i]
		s1r += vr*cr - vi*ci
		s1i += vr*ci + vi*cr
		vr, vi = r2[i], i2v[i]
		s2r += vr*cr - vi*ci
		s2i += vr*ci + vi*cr
		vr, vi = r3[i], i3v[i]
		s3r += vr*cr - vi*ci
		s3i += vr*ci + vi*cr
	}
	out[0] += s0r
	out[1] += s0i
	out[2] += s1r
	out[3] += s1i
	out[4] += s2r
	out[5] += s2i
	out[6] += s3r
	out[7] += s3i
}

// conjAccumulateFMA is the float64 specialization of conjAccumulate on
// hardware fused multiply-add (see rotateAccumulateFMA; the fused and
// unfused variants differ only in rounding).
func conjAccumulateFMA(out *[8]float64, phRe, phIm []float64, pre, pim *[4][]float64) {
	var s0r, s0i, s1r, s1i, s2r, s2i, s3r, s3i float64
	r0, i0v := pre[0], pim[0]
	r1, i1v := pre[1], pim[1]
	r2, i2v := pre[2], pim[2]
	r3, i3v := pre[3], pim[3]
	for i := range phRe {
		cr, ci := phRe[i], -phIm[i] // conjugate phasor
		vr, vi := r0[i], i0v[i]
		s0r = math.FMA(vr, cr, math.FMA(-vi, ci, s0r))
		s0i = math.FMA(vr, ci, math.FMA(vi, cr, s0i))
		vr, vi = r1[i], i1v[i]
		s1r = math.FMA(vr, cr, math.FMA(-vi, ci, s1r))
		s1i = math.FMA(vr, ci, math.FMA(vi, cr, s1i))
		vr, vi = r2[i], i2v[i]
		s2r = math.FMA(vr, cr, math.FMA(-vi, ci, s2r))
		s2i = math.FMA(vr, ci, math.FMA(vi, cr, s2i))
		vr, vi = r3[i], i3v[i]
		s3r = math.FMA(vr, cr, math.FMA(-vi, ci, s3r))
		s3i = math.FMA(vr, ci, math.FMA(vi, cr, s3i))
	}
	out[0] += s0r
	out[1] += s0i
	out[2] += s1r
	out[3] += s1i
	out[4] += s2r
	out[5] += s2i
	out[6] += s3r
	out[7] += s3i
}
