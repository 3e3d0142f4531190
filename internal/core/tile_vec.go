package core

// The hand-vectorized tile kernels of both vector tiers, each serving
// both precisions and every item shape: pixels in the gridder's lanes
// (gridTilePix) and the degridder fused over the channels
// (degridTileFused). They drive the pixel-lane routines at the tier's
// register width — YMM on the avx2 tier (kernels_amd64.s), ZMM on avx512
// (kernels_avx512_amd64.s) — and run only where the dispatch table
// installed them (dispatch.go: amd64 with an active tier of at least
// SIMDAVX2); the !amd64 stubs in simd_other.go are therefore
// unreachable. Compared to the generic tiles the arithmetic runs four to
// sixteen pixels per instruction, with unconditionally fused
// multiply-adds — the scalar math.FMA path compiles to a runtime fallback
// branch per call site under the default GOAMD64 level, which is what
// these kernels exist to avoid.

import (
	"unsafe"

	"repro/internal/grid"
	"repro/internal/plan"
	"repro/internal/uvwsim"
	"repro/internal/xmath"
)

// gridTilePix is the gridder tile of both vector tiers, whatever the
// precision and the item: pixels in the lanes (gridLanesPix), whose sums
// take the shared epilogue as they lie.
func gridTilePix[F floatT](k *Kernels, item plan.WorkItem, uvw []uvwsim.UVW, sb *scratch, a jones, out *grid.Subgrid, ts *scratch, row0, row1 int) {
	sg := k.params.SubgridSize
	pix0, pix1 := row0*sg, row1*sg
	k.gridEpilogue(out, pix0, pix1-pix0, gridLanesPix[F](k, item, uvw, sb, ts, pix0, pix1), a)
}

// rowChannels is how the vector tiles seed an nc-channel item's phasors,
// as rows of staged phase arguments per time step: where the recurrence
// applies (useRecurrence) a base row serves a resync chunk of rowCh
// channels and one leading row holds the per-pixel channel deltas that
// rotate it from channel to channel; otherwise every channel has its own
// base row and nothing leads or rotates.
func (k *Kernels) rowChannels(nc int) (rowCh, lead int) {
	if k.useRecurrence(nc) {
		return xmath.DefaultPhasorResync, 1
	}
	return 1, 0
}

// pixBlockBytes is the L1 budget one (pixel group, visibility block) of
// gridLanesPix is cut to: the block's eight visibility planes plus the
// group's staged phase indices, arguments and sincos results.
const pixBlockBytes = 24 << 10

// gridLanesPix returns the sums of the pixels [pix0, pix1) of an item
// computed the way the paper's GPU gridder does: a pixel per lane, every
// lane walking the same visibility block. It is the gridder body of both
// vector tiers in both precisions; a group is the pixels one kernel call
// holds, the epilogue's planar group of sums (simdDispatch.sumsW) in
// lanes of F — two ZMM registers on the avx512 tier, sixteen float64
// pixels or thirty-two float32, one YMM register on avx2, four or eight.
// Per (group, visibility block) the stagers write the reference kernel's
// phase arguments in rows of one per pixel — per time step the channel
// deltas and a base per resync chunk, or a base per channel
// (rowChannels) — one sincosVec call evaluates them, and one
// rotAccPixBlk call accumulates the block with the group's sums in
// registers. Staging and evaluation are float64 whatever F is; the
// float32 kernel narrows the phasors as it loads them. Between blocks
// the sums rest in vacc, complete sums in the epilogue's planar groups:
// float64 ones are returned as they lie, float32 ones widened into
// scratch sums.
//
// A pixel's result is a function of its own lane alone: its phasors are
// seeded from its own arguments at every row and advance by its own
// delta, its sums grow in plain (t, c) order, and SincosVec is
// independent of batch composition. Tile height, block depth, group,
// lane and register width cannot reach it — the two tiers' kernels run
// one per-lane text, so they grid the same bits — and the tile's last
// group simply runs its spare lanes on zeroed geometry (finite phasors,
// discarded sums) instead of under a mask.
func gridLanesPix[F floatT](k *Kernels, item plan.WorkItem, uvw []uvwsim.UVW, sb, ts *scratch, pix0, pix1 int) []float64 {
	size := int(unsafe.Sizeof(F(0)))
	w := k.disp.sumsW * 8 / size // pixels per group
	nt, nc := item.NrTimesteps, item.NrChannels
	re, im := visPlanes[F](sb, nt*nc)
	np := pix1 - pix0
	npad := (np + w - 1) / w * w
	// The tile's direction cosines and phase offsets, padded with zeros
	// to whole groups.
	geo := growF(&ts.geo, 4*npad)
	clear(geo)
	l, m, n, off := geo[:npad], geo[npad:2*npad], geo[2*npad:3*npad], geo[3*npad:]
	copy(l, k.l[pix0:pix1])
	copy(m, k.m[pix0:pix1])
	copy(n, k.n[pix0:pix1])
	uOff, vOff := k.uvOffset(item.X0, item.Y0)
	uvwOff := [3]float64{uOff, vOff, item.WOffset}
	zmm := k.disp.zmm
	stagePIdxW(&off[0], &l[0], &m[0], &n[0], npad, &uvwOff[0], 1, zmm)
	stageArgsW(&off[0], 0, &off[0], nil, twoPi, npad, 1, zmm)
	vacc := grow(&bufsOf[F](ts).vacc, 8*npad)
	clear(vacc)

	rowCh, lead := k.rowChannels(nc)
	rows := lead + (nc+rowCh-1)/rowCh
	stride := w * rows // staged arguments per time step
	block := k.params.VisBlockTimesteps
	if block <= 0 {
		block = max(pixBlockBytes/(8*size*nc+8*(w+3*stride)), 4)
	}
	for t0 := 0; t0 < nt; t0 += block {
		bn := min(block, nt-t0)
		pIdx := growF(&ts.pIdx, w*bn)
		arg := growF(&ts.sArg, stride*bn)
		asn := growF(&ts.sSin, stride*bn)
		acs := growF(&ts.sCos, stride*bn)
		jj := t0 * nc
		for g := 0; g < npad; g += w {
			stagePIdxW(&pIdx[0], &l[g], &m[g], &n[g], w, &uvw[t0].U, bn, zmm)
			if lead == 1 {
				stageArgsW(&arg[0], 8*stride, &pIdx[0], nil, k.dscale, w, bn, zmm)
			}
			for r := lead; r < rows; r++ {
				stageArgsW(&arg[w*r], 8*stride, &pIdx[0], &off[g], k.scale[item.Channel0+(r-lead)*rowCh], w, bn, zmm)
			}
			k.sincosVec(asn, acs, arg)
			rotAccPixBlk(&vacc[8*g],
				&re[0][jj], &im[0][jj], &re[1][jj], &im[1][jj],
				&re[2][jj], &im[2][jj], &re[3][jj], &im[3][jj],
				nc, &asn[0], &acs[0], bn, rowCh, zmm)
		}
	}
	if sums, ok := any(vacc).([]float64); ok {
		return sums
	}
	sums := growF(&ts.sums, len(vacc))
	for i, v := range vacc {
		sums[i] = float64(v)
	}
	return sums
}

// seedPhasors sets sn, cs to the sine and cosine of the staged phase
// arguments, evaluated in float64 by one Kernels.sincosVec call whatever
// F is: straight into the float64 phasor buffers, through the sSin/sCos
// staging and one narrowing sweep into the float32 ones.
func seedPhasors[F floatT](k *Kernels, ts *scratch, sn, cs []F, arg []float64) {
	switch sn := any(sn).(type) {
	case []float64:
		k.sincosVec(sn, any(cs).([]float64), arg)
	case []float32:
		asn, acs := growF(&ts.sSin, len(arg)), growF(&ts.sCos, len(arg))
		k.sincosVec(asn, acs, arg)
		xmath.CvtF64F32(sn, asn)
		xmath.CvtF64F32(any(cs).([]float32), acs)
	}
}

// degridTileFused is the degridder tile of both vector tiers, whatever
// the precision and the item. Per time step it stages gridLanesPix's
// rows of phase arguments for the whole tile (rowChannels) and evaluates
// them in one seedPhasors call; each base row then takes one
// rotConjAccBlk call, which runs the conjugate accumulation and the
// rotation of every channel the row serves in one sweep per channel, a
// register of pixels per instruction with the tail masked, and adds each
// (t, c)'s eight folded sums to dst exactly once — what the serial ≡
// parallel bitwise guarantee of degridSubgridTiled rests on. Per (t, c)
// the two tiers share the operation sequence of every lane, so their
// phasors are the same bits; the sums differ by the association of the
// lane fold, four or eight lanes on avx2, eight or sixteen on avx512. (A
// row that serves one channel is rotated by whatever row comes first and
// then dropped.)
func degridTileFused[F floatT](k *Kernels, item plan.WorkItem, sb *scratch, uvw []uvwsim.UVW, ts *scratch, row0, row1 int, dst []F) {
	const resync = xmath.DefaultPhasorResync
	size := int(unsafe.Sizeof(F(0)))
	sg := k.params.SubgridSize
	nc := item.NrChannels
	i0, i1 := row0*sg, row1*sg
	n := i1 - i0
	rowCh, lead := k.rowChannels(nc)
	zmm := k.disp.zmm
	tb := bufsOf[F](ts)
	pIdx := growF(&ts.pIdx, n)
	planes := &bufsOf[F](sb).planar[i0]
	off := &sb.pOff[i0]
	for t := 0; t < item.NrTimesteps; t++ {
		stagePIdxW(&pIdx[0], &k.l[i0], &k.m[i0], &k.n[i0], n, &uvw[t].U, 1, zmm)
		// At most resync rows a batch: one, but for a long non-uniform comb.
		for c0 := 0; c0 < nc; c0 += resync * rowCh {
			rows := lead + min((nc-c0+rowCh-1)/rowCh, resync)
			arg := growF(&ts.sArg, rows*n)
			if lead == 1 {
				stageArgsW(&arg[0], 0, &pIdx[0], nil, k.dscale, n, 1, zmm)
			}
			for r := lead; r < rows; r++ {
				stageArgsW(&arg[r*n], 0, &pIdx[0], off, k.scale[item.Channel0+c0+(r-lead)*rowCh], n, 1, zmm)
			}
			phRe, phIm := grow(&tb.phRe, rows*n), grow(&tb.phIm, rows*n)
			seedPhasors(k, ts, phIm, phRe, arg)
			for r := lead; r < rows; r++ {
				c := c0 + (r-lead)*rowCh
				rotConjAccBlk(&dst[8*(t*nc+c)], &phRe[r*n], &phIm[r*n], &phRe[0], &phIm[0],
					planes, size*sg*sg, n, min(nc-c, rowCh), zmm)
			}
		}
	}
}

// rotAccPixBlk and rotConjAccBlk are the pixel-lane kernels of element
// type F at the width zmm selects (simd_amd64.go).
func rotAccPixBlk[F floatT](acc, r0, i0, r1, i1, r2, i2, r3, i3 *F, nc int, sn, cs *float64, nt, rowCh int, zmm bool) {
	if unsafe.Sizeof(*acc) == 8 {
		rotAccPixBlk64W(as64(acc), as64(r0), as64(i0), as64(r1), as64(i1), as64(r2), as64(i2), as64(r3), as64(i3), nc, sn, cs, nt, rowCh, zmm)
		return
	}
	rotAccPixBlk32W(as32(acc), as32(r0), as32(i0), as32(r1), as32(i1), as32(r2), as32(i2), as32(r3), as32(i3), nc, sn, cs, nt, rowCh, zmm)
}

func rotConjAccBlk[F floatT](dst, phRe, phIm, dRe, dIm, planes *F, stride, n, nch int, zmm bool) {
	if unsafe.Sizeof(*dst) == 8 {
		rotConjAccBlk64W(as64(dst), as64(phRe), as64(phIm), as64(dRe), as64(dIm), as64(planes), stride, n, nch, zmm)
		return
	}
	rotConjAccBlk32W(as32(dst), as32(phRe), as32(phIm), as32(dRe), as32(dIm), as32(planes), stride, n, nch, zmm)
}

// as64 and as32 view a kernel argument of element type F as the width
// the caller has established F to be.
func as64[F floatT](p *F) *float64 { return (*float64)(unsafe.Pointer(p)) }
func as32[F floatT](p *F) *float32 { return (*float32)(unsafe.Pointer(p)) }
