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
	k.gridSubgridScratch(item, uvw, vis, k.jonesOf(s, atermP, atermQ), out, s, k.params.workers())
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
	// The vector tiles cover every item shape of both precisions; the
	// generic tiles are the scalar tier only.
	if k.params.Precision == Float32 {
		tile := gridTile[float32]
		vec := k.disp.gridVec32 != nil
		if vec {
			tile = k.disp.gridVec32
		}
		if k.ob.enabled() {
			if vec {
				k.ob.kernelPath(k.ob.pathVec32)
			} else {
				k.ob.kernelPath(k.ob.pathTiled32)
			}
		}
		gridSubgridTiled[float32](k, item, uvw, vis, a, out, s, par, tile)
	} else {
		tile := gridTile[float64]
		vec := k.disp.gridVec64 != nil
		if vec {
			tile = k.disp.gridVec64
		}
		if k.ob.enabled() {
			if vec {
				k.ob.kernelPath(k.ob.pathVec)
			} else {
				k.ob.kernelPath(k.ob.pathTiled64)
			}
		}
		gridSubgridTiled[float64](k, item, uvw, vis, a, out, s, par, tile)
	}
}

// phasorMinChannels is the smallest channel count for which the
// recurrence wins, in every tile of every tier: it replaces nc sincos
// evaluations per (pixel, time step) with two plus nc-1 complex
// rotations. Measured with BenchmarkAblationChannelCount on the
// reference host, ms per 64-step item, recurrence against direct: under
// IDG_SIMD=scalar c=2 2.51 against 2.35, c=3 2.29 against 2.70, c=4 2.82
// against 3.16; in the pixel-lane gridder (rowChannels), whose
// evaluations are batched at a twentieth of that cost, on the avx512
// tier float64 c=2 0.125 against 0.115-0.124, c=3 0.14-0.15 against
// 0.17, c=4 0.16 against 0.22, float32 0.112 against 0.110, 0.13 against
// 0.155, 0.135 against 0.21; on the avx2 tier (one thread, best of five)
// float64 c=2 0.210 against 0.200 (the recurrence forced on at two
// channels), c=3 0.26 against 0.32, c=4 0.285 against 0.41, float32
// 0.196 against 0.189, 0.22 against 0.29, 0.23 against 0.36 — the two
// forms cross between 2 and 3 channels everywhere, and below the
// crossing the direct form has no drift to bound.
const phasorMinChannels = 3

// useRecurrence reports whether the phasor rotation recurrence applies
// to a work item of nc channels, in every tile of every tier.
func (k *Kernels) useRecurrence(nc int) bool {
	return k.uniformScale && nc >= phasorMinChannels
}

// checkItem validates a work item against its buffers. It panics with
// errors wrapping faulttol.ErrBadInput so that the fault-tolerant
// pipeline runner classifies the failure as deterministic bad input
// (not retried) while direct kernel callers still crash loudly.
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
				sin, cos := k.sincos(phase)
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
	tr := k.tileRows(sg)
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
	k.runTiles(s, par, sg, func(ts *scratch, row0, row1 int) {
		tile(k, item, uvw, s, a, out, ts, row0, row1)
	})
}

// gridTileFn is the per-tile gridder kernel: the generic gridTile, or
// the hand-vectorized gridTilePix on the vector tiers. Both read the
// shared planar visibility block out of the item-owner scratch sb
// (re-deriving the plane headers locally keeps them off the heap: the
// tile call is indirect, so pointer arguments would escape) and write
// the disjoint pixel rows [row0, row1) of out.
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

// gridTile grids the pixel rows [row0, row1) of one work item against
// the shared planar visibility block. The time x channel loop is
// cache-blocked (visBlockSteps): each block of the planar arrays is
// streamed across the whole tile before moving on, so the block stays
// L1-resident instead of the full nt x nc footprint.
func gridTile[F floatT](k *Kernels, item plan.WorkItem, uvw []uvwsim.UVW, sb *scratch, aterms jones, out *grid.Subgrid, ts *scratch, row0, row1 int) {
	sg := k.params.SubgridSize
	nt, nc := item.NrTimesteps, item.NrChannels
	tb := bufsOf[F](ts)
	// Home the plane headers in the (heap-resident) tile scratch: their
	// addresses cross the any()-based FMA dispatch below, which would
	// move stack locals to the heap once per tile.
	tb.reP, tb.imP = visPlanes[F](sb, nt*nc)
	re, im := &tb.reP, &tb.imP
	uOff, vOff := k.uvOffset(item.X0, item.Y0)
	wOff := item.WOffset
	pix0, pix1 := row0*sg, row1*sg
	acc := grow(&tb.acc, 8*(pix1-pix0))
	for i := range acc {
		acc[i] = 0
	}
	useRec := k.useRecurrence(nc)
	phRe := grow(&tb.phRe, nc)
	phIm := grow(&tb.phIm, nc)
	scale := k.scale[item.Channel0 : item.Channel0+nc]
	block := k.visBlockSteps(nt, nc)
	for t0 := 0; t0 < nt; t0 += block {
		t1 := t0 + block
		if t1 > nt {
			t1 = nt
		}
		for i := pix0; i < pix1; i++ {
			l, m, n := k.l[i], k.m[i], k.n[i]
			phaseOffset := twoPi * (uOff*l + vOff*m + wOff*n)
			a := (*[8]F)(acc[8*(i-pix0):])
			for t := t0; t < t1; t++ {
				c3 := uvw[t]
				phaseIndex := c3.U*l + c3.V*m + c3.W*n
				if useRec {
					// The channel phase step phaseIndex*dscale is constant
					// for this (pixel, time step): rotate instead of
					// re-evaluating, fused with the channel reduction.
					rotateAccumulate(a, re, im, t*nc, nc,
						phaseIndex*scale[0]-phaseOffset, phaseIndex*k.dscale,
						k.sincos, k.fastFMA)
				} else {
					for c := 0; c < nc; c++ {
						sv, cv := k.sincos(phaseIndex*scale[c] - phaseOffset)
						phIm[c], phRe[c] = F(sv), F(cv)
					}
					reduceChannels(a, phRe, phIm, re, im, t*nc, nc)
				}
			}
		}
	}
	start := k.ob.now()
	for i := pix0; i < pix1; i++ {
		a := acc[8*(i-pix0):]
		sum := xmath.Matrix2{
			complex(float64(a[0]), float64(a[1])), complex(float64(a[2]), float64(a[3])),
			complex(float64(a[4]), float64(a[5])), complex(float64(a[6]), float64(a[7])),
		}
		k.storePixel(out, i, sum, aterms)
	}
	k.ob.epilogueDone(start)
}

// rotateAccumulate fuses the phasor rotation recurrence with the
// channel reduction of one (pixel, time step): instead of filling a
// phasor buffer (xmath.PhasorRotator.Fill) and reducing it in a second
// pass, the phasor advances in registers while each channel's four
// correlations accumulate, eliminating the buffer store/reload from
// the innermost loop. The recurrence re-syncs with an exact evaluation
// every xmath.DefaultPhasorResync channels, preserving the documented
// drift bound. The phase arguments stay float64 in both precisions;
// the rotation itself runs in F (the float32 drift bound is
// xmath.Float32PhasorDriftBound).
func rotateAccumulate[F floatT](acc *[8]F, re, im *[4][]F, j0, nc int, base, delta float64, sincos xmath.SincosFunc, fastFMA bool) {
	if fastFMA {
		if a, ok := any(acc).(*[8]float64); ok {
			rotateAccumulateFMA(a, any(re).(*[4][]float64), any(im).(*[4][]float64),
				j0, nc, base, delta, sincos)
			return
		}
	}
	sv, cv := sincos(base)
	ds, dc := sincos(delta)
	ps, pc := F(sv), F(cv)
	fs, fc := F(ds), F(dc)
	r0 := re[0][j0 : j0+nc]
	i0 := im[0][j0 : j0+nc]
	r1 := re[1][j0 : j0+nc]
	i1 := im[1][j0 : j0+nc]
	r2 := re[2][j0 : j0+nc]
	i2 := im[2][j0 : j0+nc]
	r3 := re[3][j0 : j0+nc]
	i3 := im[3][j0 : j0+nc]
	var a0a, a0b, a1a, a1b, a2a, a2b, a3a, a3b F
	var a4a, a4b, a5a, a5b, a6a, a6b, a7a, a7b F
	for c := 0; c < nc; c++ {
		if c > 0 && c%xmath.DefaultPhasorResync == 0 {
			sv, cv = sincos(base + float64(c)*delta)
			ps, pc = F(sv), F(cv)
		}
		vr, vi := r0[c], i0[c]
		a0a += vr * pc
		a0b += vi * ps
		a1a += vr * ps
		a1b += vi * pc
		vr, vi = r1[c], i1[c]
		a2a += vr * pc
		a2b += vi * ps
		a3a += vr * ps
		a3b += vi * pc
		vr, vi = r2[c], i2[c]
		a4a += vr * pc
		a4b += vi * ps
		a5a += vr * ps
		a5b += vi * pc
		vr, vi = r3[c], i3[c]
		a6a += vr * pc
		a6b += vi * ps
		a7a += vr * ps
		a7b += vi * pc
		ps, pc = ps*fc+pc*fs, pc*fc-ps*fs
	}
	acc[0] += a0a - a0b
	acc[1] += a1a + a1b
	acc[2] += a2a - a2b
	acc[3] += a3a + a3b
	acc[4] += a4a - a4b
	acc[5] += a5a + a5b
	acc[6] += a6a - a6b
	acc[7] += a7a + a7b
}

// rotateAccumulateFMA is the float64 specialization of
// rotateAccumulate on hardware with fused multiply-add: every product
// runs as math.FMA (Go never contracts a*b+c on its own), halving the
// floating-point issue pressure of the innermost loop. Each of the
// eight accumulators is further split into two independent partial
// banks — one per product of the complex multiply — so every
// loop-carried chain is one FMA deep instead of two; the sixteen
// independent chains hide the FMA latency behind the issue rate. The
// banks recombine on exit (a = bankA -/+ bankB), which only
// reassociates the sum: the fused and split variants differ from the
// generic one only in rounding, well inside the recurrence bound the
// property tests assert.
func rotateAccumulateFMA(acc *[8]float64, re, im *[4][]float64, j0, nc int, base, delta float64, sincos xmath.SincosFunc) {
	ps, pc := sincos(base)
	fs, fc := sincos(delta)
	r0 := re[0][j0 : j0+nc]
	i0 := im[0][j0 : j0+nc]
	r1 := re[1][j0 : j0+nc]
	i1 := im[1][j0 : j0+nc]
	r2 := re[2][j0 : j0+nc]
	i2 := im[2][j0 : j0+nc]
	r3 := re[3][j0 : j0+nc]
	i3 := im[3][j0 : j0+nc]
	var a0a, a0b, a1a, a1b, a2a, a2b, a3a, a3b float64
	var a4a, a4b, a5a, a5b, a6a, a6b, a7a, a7b float64
	for c := 0; c < nc; c++ {
		if c > 0 && c%xmath.DefaultPhasorResync == 0 {
			ps, pc = sincos(base + float64(c)*delta)
		}
		vr, vi := r0[c], i0[c]
		a0a = math.FMA(vr, pc, a0a)
		a0b = math.FMA(vi, ps, a0b)
		a1a = math.FMA(vr, ps, a1a)
		a1b = math.FMA(vi, pc, a1b)
		vr, vi = r1[c], i1[c]
		a2a = math.FMA(vr, pc, a2a)
		a2b = math.FMA(vi, ps, a2b)
		a3a = math.FMA(vr, ps, a3a)
		a3b = math.FMA(vi, pc, a3b)
		vr, vi = r2[c], i2[c]
		a4a = math.FMA(vr, pc, a4a)
		a4b = math.FMA(vi, ps, a4b)
		a5a = math.FMA(vr, ps, a5a)
		a5b = math.FMA(vi, pc, a5b)
		vr, vi = r3[c], i3[c]
		a6a = math.FMA(vr, pc, a6a)
		a6b = math.FMA(vi, ps, a6b)
		a7a = math.FMA(vr, ps, a7a)
		a7b = math.FMA(vi, pc, a7b)
		ps, pc = math.FMA(ps, fc, pc*fs), math.FMA(pc, fc, -(ps*fs))
	}
	acc[0] += a0a - a0b
	acc[1] += a1a + a1b
	acc[2] += a2a - a2b
	acc[3] += a3a + a3b
	acc[4] += a4a - a4b
	acc[5] += a5a + a5b
	acc[6] += a6a - a6b
	acc[7] += a7a + a7b
}
