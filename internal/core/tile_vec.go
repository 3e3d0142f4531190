package core

// The hand-vectorized tile kernels: the avx2 tier's float64 gridder
// bodies and degridder tile (the float32 gridder is tile_vec32.go), and
// the SIMDAVX512 tier's two tiles, which serve both precisions and every
// item shape (gridTilePix, degridTileFused). They drive the AVX2+FMA
// loops in kernels_amd64.s and the 512-bit loops in
// kernels_avx512_amd64.s, and run only where the dispatch table
// installed them (dispatch.go: amd64 with an active tier of at least
// SIMDAVX2); the !amd64 stubs in simd_other.go are therefore
// unreachable. Compared to the generic tiles the arithmetic runs four
// to sixteen channels or pixels per instruction, with unconditionally
// fused multiply-adds — the scalar math.FMA path compiles to a runtime
// fallback branch per call site under the default GOAMD64 level, which
// is what these kernels exist to avoid.

import (
	"unsafe"

	"repro/internal/grid"
	"repro/internal/plan"
	"repro/internal/uvwsim"
	"repro/internal/xmath"
)

// chunkQuads is the resync cadence of the vector gridder in channel
// quads: after chunkQuads iterations of rotAccQuads (4 channels each)
// the phasor lanes are re-seeded from an exact evaluation, preserving
// the xmath.DefaultPhasorResync drift cadence of the scalar path.
const chunkQuads = xmath.DefaultPhasorResync / 4

// directBatchArgs is how many phase arguments the direct-phasor tile
// aims to stage per Kernels.sincosVec call: short items (16 samples per
// pixel on the benchmark's sparse workload) batch several pixels into
// one evaluation and one accQuadsPix sweep, so neither the call
// overhead nor SincosVec's scalar remainder is paid per pixel. 256
// arguments plus their sin/cos results are 6 KB of scratch, which sits
// in L1 next to the visibility block; a group is never cut below four
// pixels, so blocks of more than 64 samples stage four times their
// length (between 256 and 1024 arguments were level when measured).
const directBatchArgs = 256

// gridTileVec is gridTile on the avx2 tier's float64 kernels: one of two
// bodies fills the tile's sums (eight per pixel, in planar groups of
// four: simdDispatch.sumsW), which then take the shared epilogue
// (gridEpilogue). The lanes hold channels or samples: each pixel owns
// eight accumulators of four lanes (scratch vacc) that persist across
// visibility blocks and fold, (l0+l2)+(l1+l3), only when the pixel has
// seen every block — gridLanesRecurrence where vecRecurrence holds, one
// evaluated phasor per visibility sample otherwise (gridLanesDirect). In
// both a pixel's operation sequence is independent of the tile and block
// decomposition, exactly like the scalar tile.
func gridTileVec(k *Kernels, item plan.WorkItem, uvw []uvwsim.UVW, sb *scratch, a jones, out *grid.Subgrid, ts *scratch, row0, row1 int) {
	sg := k.params.SubgridSize
	pix0, np := row0*sg, (row1-row0)*sg
	sums := growF(&ts.sums, 8*((np+3)&^3))
	if k.vecRecurrence(item.NrChannels) {
		vacc := growF(&ts.b64.vacc, 32*np)
		clear(vacc)
		gridLanesRecurrence(k, item, uvw, sb, ts, vacc, pix0, pix0+np)
		foldQuadLanes(&sums[0], &vacc[0], np)
	} else {
		gridLanesDirect(k, item, uvw, sb, ts, sums, pix0, pix0+np)
	}
	k.gridEpilogue(out, pix0, np, sums, a)
}

// gridTilePix is the gridder tile of the SIMDAVX512 tier, whatever the
// precision and the item: pixels in the lanes (gridLanesPix), whose sums
// take the shared epilogue as they lie.
func gridTilePix[F floatT](k *Kernels, item plan.WorkItem, uvw []uvwsim.UVW, sb *scratch, a jones, out *grid.Subgrid, ts *scratch, row0, row1 int) {
	sg := k.params.SubgridSize
	pix0, pix1 := row0*sg, row1*sg
	k.gridEpilogue(out, pix0, pix1-pix0, gridLanesPix[F](k, item, uvw, sb, ts, pix0, pix1), a)
}

// seedQuadLanes fills one 10-wide phasor register block for the quad
// kernels from an exact sincos pair (s0, c0) and the per-channel delta
// phasor (ds, dc): lane k holds exp(i*(base + k*delta)) by k
// single-delta rotations, and slots 8/9 hold the four-channel rotator
// exp(i*4*delta) (double-angle applied twice). seedQuadsBlk is the same
// arithmetic four time steps at a time.
func seedQuadLanes(ph *[10]float64, s0, c0, ds, dc float64) {
	ds2, dc2 := 2*ds*dc, dc*dc-ds*ds
	s1, c1 := s0*dc+c0*ds, c0*dc-s0*ds
	s2, c2 := s1*dc+c1*ds, c1*dc-s1*ds
	ph[0], ph[4] = s0, c0
	ph[1], ph[5] = s1, c1
	ph[2], ph[6] = s2, c2
	ph[3], ph[7] = s2*dc+c2*ds, c2*dc-s2*ds
	ph[8], ph[9] = 2*ds2*dc2, dc2*dc2-ds2*ds2
}

// perStepMinChannels is the channel count from which the avx2 tier's
// per-time-step recurrence (a rotAccQuads call per resync chunk plus a
// scalar channel tail, for the channel counts quadsBlocked does not
// cover) runs instead of one evaluated phasor per sample. Measured with
// BenchmarkAblationChannelCount under IDG_SIMD=avx2 (ms per 64-step
// item, per-step recurrence against direct): c=9 1.51 against 0.83,
// c=21 1.95 against 1.92, c=25 2.15 against 2.37, c=33 2.42 against
// 3.17, c=66 4.08 against 6.44. The forms cross near 24; the constant
// dates from when the avx512 tier shared the rule (crossing near 50)
// and costs avx2 at most a tenth in the gap.
const perStepMinChannels = 32

// vecRecurrence reports whether the avx2 tier's float64 gridder fills
// an nc-channel item's lanes through the phasor recurrence: uniform
// channels, and either the time-blocked form applies or there are
// enough channels for the per-step form to win. The blocked form is
// level with direct phasors at its smallest shape and ahead from there
// (same benchmark: c=4 0.37 against 0.38, c=8 0.49 against 0.79, c=16
// 0.77 against 1.51); three channels, all scalar tail, take 1.21
// against 0.29.
func (k *Kernels) vecRecurrence(nc int) bool {
	return k.uniformScale && (quadsBlocked(nc) || nc >= perStepMinChannels)
}

// quadsBlocked reports whether the recurrence tile sweeps an nc-channel
// item with the time-blocked kernel: one resync chunk must cover every
// channel with no tail. With several chunks or a tail the blocked sweep
// would reorder the accumulation (all t of chunk 0, then all t of
// chunk 1, ...), which would break decomposition independence — those
// shapes keep the per-t calls.
func quadsBlocked(nc int) bool {
	return nc > 0 && nc%4 == 0 && nc <= 4*chunkQuads
}

// fullWidth reports whether the SIMDAVX512 tier's own tiles run — pixels
// in the gridder's lanes (gridTilePix), the degridder fused over the
// channels (degridTileFused): on that tier every item of both
// precisions, whatever its channel comb; below it none.
func (k *Kernels) fullWidth() bool {
	return k.disp.tier >= xmath.SIMDAVX512
}

// rowChannels is how the full-width tiles seed an nc-channel item's
// phasors, as rows of staged phase arguments per time step: where the
// recurrence applies (useRecurrence) a base row serves a resync chunk of
// rowCh channels and one leading row holds the per-pixel channel deltas
// that rotate it from channel to channel; otherwise every channel has
// its own base row and nothing leads or rotates.
func (k *Kernels) rowChannels(nc int) (rowCh, lead int) {
	if k.useRecurrence(nc) {
		return xmath.DefaultPhasorResync, 1
	}
	return 1, 0
}

// accLane0 accumulates visibility sample j against the phasor (sv, cv)
// into lane 0 of a pixel's accumulator block: the scalar form both
// lane fillers use for samples that do not fill a quad.
func accLane0(a []float64, re, im *[4][]float64, j int, sv, cv float64) {
	vr, vi := re[0][j], im[0][j]
	a[0] += vr*cv - vi*sv
	a[4] += vr*sv + vi*cv
	vr, vi = re[1][j], im[1][j]
	a[8] += vr*cv - vi*sv
	a[12] += vr*sv + vi*cv
	vr, vi = re[2][j], im[2][j]
	a[16] += vr*cv - vi*sv
	a[20] += vr*sv + vi*cv
	vr, vi = re[3][j], im[3][j]
	a[24] += vr*cv - vi*sv
	a[28] += vr*sv + vi*cv
}

// gridLanesRecurrence fills the accumulator lanes of the pixels
// [pix0, pix1) through the phasor recurrence. The channel loop runs
// four-wide: the four phasor lanes hold channels c..c+3 (seedQuadLanes)
// and advance four channels at a time by the rotator exp(i*4*delta).
// Leftover channels (nc mod 4) accumulate scalar-style into lane 0.
//
// The seeding sincos calls are batched: per (pixel, time-step block)
// every chunk base, the channel-tail base and the delta argument are
// staged into one argument array and evaluated by a single
// Kernels.sincosVec call (lane-parallel xmath.SincosVec under the
// default evaluator). SincosVec is bitwise independent of batch
// decomposition and SIMD tier, so this keeps the per-pixel result
// independent of the block size.
//
// When quadsBlocked holds (the paper's channel counts), the
// per-timestep phasor blocks of a whole visibility block are staged
// into scratch (b64.phv, seeded four steps at a time by seedQuadsBlk)
// and swept by one rotAccQuadsBlk call per (pixel, block): the eight
// accumulator registers are loaded once per block instead of once per
// time step. The blocked kernel replays the identical per-(t, channel)
// operation sequence, so its results are bitwise equal to the per-t
// form.
//
// Error class: the lane seeding applies at most three rotations to an
// exact sincos pair and every lane is re-seeded each chunk, so the
// per-channel phasor drift stays within the same
// xmath.PhasorDriftBound class as the scalar recurrence; the fused
// accumulation matches the scalar FMA split to reassociation.
func gridLanesRecurrence(k *Kernels, item plan.WorkItem, uvw []uvwsim.UVW, sb, ts *scratch, vacc []float64, pix0, pix1 int) {
	nt, nc := item.NrTimesteps, item.NrChannels
	re, im := visPlanes[float64](sb, nt*nc)
	uOff, vOff := k.uvOffset(item.X0, item.Y0)
	wOff := item.WOffset
	nq := nc / 4
	tail0 := 4 * nq
	scale0 := k.scale[item.Channel0]
	block := k.visBlockSteps(nt, nc)
	// Batched-seeding layout, per time step of a block: one argument
	// slot per resync chunk (its base phase), one for the channel tail
	// when nc mod 4 != 0, and one for the per-channel delta. The blocked
	// form has one base and one delta per step and lays them out planar
	// (bases, then deltas) so seedQuadsBlk loads contiguously.
	nchunks := (nq + chunkQuads - 1) / chunkQuads
	seeds := nchunks
	if tail0 < nc {
		seeds++
	}
	stride := seeds + 1
	blocked := quadsBlocked(nc)
	// ph is the register file handed to rotAccQuads (see seedQuadLanes).
	var ph [10]float64
	for t0 := 0; t0 < nt; t0 += block {
		t1 := min(t0+block, nt)
		bn := t1 - t0
		arg := growF(&ts.sArg, stride*bn)
		asn := growF(&ts.sSin, stride*bn)
		acs := growF(&ts.sCos, stride*bn)
		var phv []float64
		if blocked {
			phv = growF(&ts.b64.phv, 10*bn)
		}
		for i := pix0; i < pix1; i++ {
			l, m, n := k.l[i], k.m[i], k.n[i]
			phaseOffset := twoPi * (uOff*l + vOff*m + wOff*n)
			a := vacc[32*(i-pix0) : 32*(i-pix0)+32]
			if blocked {
				for r, c3 := range uvw[t0:t1] {
					phaseIndex := c3.U*l + c3.V*m + c3.W*n
					arg[r] = phaseIndex*scale0 - phaseOffset
					arg[bn+r] = phaseIndex * k.dscale
				}
				k.sincosVec(asn, acs, arg)
				ng := bn / 4
				if ng > 0 {
					seedQuadsBlk(&phv[0], &asn[0], &acs[0], &asn[bn], &acs[bn], ng)
				}
				for r := 4 * ng; r < bn; r++ {
					seedQuadLanes((*[10]float64)(phv[10*r:]), asn[r], acs[r], asn[bn+r], acs[bn+r])
				}
				jj := t0 * nc
				rotAccQuadsBlk(&a[0],
					&re[0][jj], &im[0][jj], &re[1][jj], &im[1][jj],
					&re[2][jj], &im[2][jj], &re[3][jj], &im[3][jj],
					nq, &phv[0], bn)
				continue
			}
			for t := t0; t < t1; t++ {
				c3 := uvw[t]
				phaseIndex := c3.U*l + c3.V*m + c3.W*n
				base := phaseIndex*scale0 - phaseOffset
				delta := phaseIndex * k.dscale
				o := stride * (t - t0)
				for ci := 0; ci < nchunks; ci++ {
					arg[o+ci] = base + float64(4*ci*chunkQuads)*delta
				}
				if tail0 < nc {
					arg[o+seeds-1] = base + float64(tail0)*delta
				}
				arg[o+seeds] = delta
			}
			k.sincosVec(asn, acs, arg)
			for t := t0; t < t1; t++ {
				o := stride * (t - t0)
				ds, dc := asn[o+seeds], acs[o+seeds]
				j := t * nc
				for ci, q0 := 0, 0; q0 < nq; ci, q0 = ci+1, q0+chunkQuads {
					seedQuadLanes(&ph, asn[o+ci], acs[o+ci], ds, dc)
					jj := j + 4*q0
					rotAccQuads(&a[0],
						&re[0][jj], &im[0][jj], &re[1][jj], &im[1][jj],
						&re[2][jj], &im[2][jj], &re[3][jj], &im[3][jj],
						min(nq-q0, chunkQuads), &ph[0])
				}
				if tail0 < nc {
					sv, cv := asn[o+seeds-1], acs[o+seeds-1]
					for c := tail0; c < nc; c++ {
						accLane0(a, &re, &im, j+c, sv, cv)
						sv, cv = sv*dc+cv*ds, cv*dc-sv*ds
					}
				}
			}
		}
	}
}

// pixBlockBytes is the L1 budget one (pixel group, visibility block) of
// gridLanesPix is cut to: the block's eight visibility planes plus the
// group's staged phase indices, arguments and sincos results.
const pixBlockBytes = 24 << 10

// gridLanesPix returns the sums of the pixels [pix0, pix1) of an item
// computed the way the paper's GPU gridder does: a pixel per lane, every
// lane walking the same visibility block. It is the SIMDAVX512 tier's
// gridder body in both precisions; a group is the two registers a sum
// occupies in the kernel, sixteen float64 pixels or thirty-two float32.
// Per (group, visibility block) the stagers write the reference
// kernel's phase arguments in rows of one per pixel — per time step the
// channel deltas and a base per resync chunk, or a base per channel
// (rowChannels) — one sincosVec call evaluates them, and one
// rotAccPixBlk call accumulates the block with the group's sums in
// registers. Staging and evaluation are float64 whatever F is; the
// float32 kernel narrows the phasors as it loads them. Between blocks
// the sums rest in vacc, complete sums in the epilogue's planar groups
// of sixteen (simdDispatch.sumsW): float64 ones are returned as they
// lie, float32 ones widened into scratch sums.
//
// A pixel's result is a function of its own lane alone: its phasors are
// seeded from its own arguments at every row and advance by its own
// delta, its sums grow in plain (t, c) order, and SincosVec is
// independent of batch composition. Tile height, block depth, group and
// lane cannot reach it, and the tile's last group simply runs its spare
// lanes on zeroed geometry (finite phasors, discarded sums) instead of
// under a mask. Against the avx2 tier the sums differ by reassociation
// only: one chain per sum here, four or eight lane partials folded
// there (and in float32 a rotation per channel here, per eight there).
func gridLanesPix[F floatT](k *Kernels, item plan.WorkItem, uvw []uvwsim.UVW, sb, ts *scratch, pix0, pix1 int) []float64 {
	size := int(unsafe.Sizeof(F(0)))
	w := 128 / size // pixels per group: two ZMM registers of F
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
	stagePIdx(&off[0], &l[0], &m[0], &n[0], npad, &uvwOff[0], 1)
	stageArgs(&off[0], 0, &off[0], nil, twoPi, npad, 1)
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
			stagePIdx(&pIdx[0], &l[g], &m[g], &n[g], w, &uvw[t0].U, bn)
			if lead == 1 {
				stageArgs(&arg[0], 8*stride, &pIdx[0], nil, k.dscale, w, bn)
			}
			for r := lead; r < rows; r++ {
				stageArgs(&arg[w*r], 8*stride, &pIdx[0], &off[g], k.scale[item.Channel0+(r-lead)*rowCh], w, bn)
			}
			k.sincosVec(asn, acs, arg)
			rotAccPixBlk(&vacc[8*g],
				&re[0][jj], &im[0][jj], &re[1][jj], &im[1][jj],
				&re[2][jj], &im[2][jj], &re[3][jj], &im[3][jj],
				nc, &asn[0], &acs[0], bn, rowCh)
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

// rotAccPixBlk is the pixel-lane kernel of element type F:
// rotAccPixBlk64 or rotAccPixBlk32, one contract (simd_amd64.go).
func rotAccPixBlk[F floatT](acc, r0, i0, r1, i1, r2, i2, r3, i3 *F, nc int, sn, cs *float64, nt, rowCh int) {
	if unsafe.Sizeof(*acc) == 8 {
		rotAccPixBlk64(as64(acc), as64(r0), as64(i0), as64(r1), as64(i1), as64(r2), as64(i2), as64(r3), as64(i3), nc, sn, cs, nt, rowCh)
		return
	}
	rotAccPixBlk32(as32(acc), as32(r0), as32(i0), as32(r1), as32(i1), as32(r2), as32(i2), as32(r3), as32(i3), nc, sn, cs, nt, rowCh)
}

// gridLanesDirect accumulates the pixels [pix0, pix1) with one
// evaluated phasor per visibility sample and folds them into sums: the
// avx2 tier's form for every item vecRecurrence turns down (non-uniform
// channels, DisablePhasorRecurrence, channel counts where it is
// faster). The
// item's samples are one flattened stream j = t*nc + c, contiguous in
// the planar block. Per (pixel group, visibility block) the phase
// arguments of the block's samples are staged for several pixels at
// once (directBatchArgs), evaluated by one Kernels.sincosVec call, and
// reduced by one accQuadsPix sweep that never looks at time-step or
// channel boundaries.
//
// Sample j accumulates into lane j mod 4, in increasing j, whatever
// the decomposition: visibility blocks are rounded up to a whole
// number of sample quads, so every block but the last starts and ends
// on a quad boundary, and the item's last nt*nc mod 4 samples go
// scalar into lane 0 at the end of the last block. SincosVec is
// independent of batch composition, so neither the pixel grouping nor
// the tile shape can reach the result. The phase argument is the
// reference kernel's expression, so this form carries no recurrence
// drift at all.
//
// When one visibility block covers the item (every short item), a
// pixel group is complete after its one sweep: its lanes live in a
// group-sized accumulator block that is cleared, filled and folded
// while it is in L1, instead of a tile-sized one that is cleared,
// filled and read back from L2. The lanes and the fold are the same
// either way, so a one-block and a several-block run of the same
// samples agree bit for bit.
func gridLanesDirect(k *Kernels, item plan.WorkItem, uvw []uvwsim.UVW, sb, ts *scratch, sums []float64, pix0, pix1 int) {
	nt, nc := item.NrTimesteps, item.NrChannels
	re, im := visPlanes[float64](sb, nt*nc)
	uOff, vOff := k.uvOffset(item.X0, item.Y0)
	wOff := item.WOffset
	scale := k.scale[item.Channel0 : item.Channel0+nc]
	// Time steps per whole number of sample quads: 4/gcd(nc, 4).
	quadSteps := 4
	switch {
	case nc%4 == 0:
		quadSteps = 1
	case nc%2 == 0:
		quadSteps = 2
	}
	block := (k.visBlockSteps(nt, nc) + quadSteps - 1) / quadSteps * quadSteps
	oneBlock := block >= nt
	var vacc []float64
	if !oneBlock {
		vacc = growF(&ts.b64.vacc, 32*(pix1-pix0))
		clear(vacc)
	}
	for t0 := 0; t0 < nt; t0 += block {
		t1 := min(t0+block, nt)
		n := (t1 - t0) * nc
		nq := n / 4
		j0 := t0 * nc
		// Whole pixel quads, so all but a tile's last few pixels stage
		// through stageArgsQuad.
		group := (max(directBatchArgs/n, 1) + 3) &^ 3
		arg := growF(&ts.sArg, group*n)
		asn := growF(&ts.sSin, group*n)
		acs := growF(&ts.sCos, group*n)
		if oneBlock {
			vacc = growF(&ts.b64.vacc, 32*group)
		}
		for i := pix0; i < pix1; i += group {
			g := min(group, pix1-i)
			g4 := g &^ 3
			for p := 0; p < g4; p += 4 {
				stageArgsQuad(&arg[p*n], 8*n, &k.l[i+p], &k.m[i+p], &k.n[i+p],
					&uvw[t0].U, t1-t0, &scale[0], nc, uOff, vOff, wOff)
			}
			o := g4 * n
			for p := i + g4; p < i+g; p++ {
				l, m, nn := k.l[p], k.m[p], k.n[p]
				phaseOffset := twoPi * (uOff*l + vOff*m + wOff*nn)
				for _, c3 := range uvw[t0:t1] {
					phaseIndex := c3.U*l + c3.V*m + c3.W*nn
					for _, sc := range scale {
						arg[o] = phaseIndex*sc - phaseOffset
						o++
					}
				}
			}
			k.sincosVec(asn[:o], acs[:o], arg[:o])
			a := vacc[:32*g]
			if oneBlock {
				clear(a)
			} else {
				a = vacc[32*(i-pix0) : 32*(i+g-pix0)]
			}
			if nq > 0 {
				accQuadsPix(&a[0],
					&re[0][j0], &im[0][j0], &re[1][j0], &im[1][j0],
					&re[2][j0], &im[2][j0], &re[3][j0], &im[3][j0],
					&asn[0], &acs[0], nq, g, 8*n)
			}
			for p := 0; p < g; p++ {
				for j := 4 * nq; j < n; j++ {
					accLane0(a[32*p:32*p+32], &re, &im, j0+j, asn[p*n+j], acs[p*n+j])
				}
			}
			if t1 == nt {
				// The group has seen its last block.
				foldQuadLanes(&sums[8*(i-pix0)], &a[0], g)
			}
		}
	}
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

// degridTileFused is the degridder tile of the SIMDAVX512 tier, whatever
// the precision and the item. Per time step it stages gridLanesPix's
// rows of phase arguments for the whole tile (rowChannels) and evaluates
// them in one seedPhasors call; each base row then takes one
// rotConjAccBlk call, which runs the conjugate accumulation and the
// rotation of every channel the row serves in one sweep per channel, a
// ZMM of pixels per instruction with the tail masked, and adds each
// (t, c)'s eight folded sums to dst exactly once — what the serial ≡
// parallel bitwise guarantee of degridSubgridTiled rests on. Per (t, c)
// that is the 256-bit kernels' operation sequence at twice the lanes:
// the phasors are bitwise theirs, the sums differ by the association of
// the lane fold. (A row that serves one channel is rotated by whatever
// row comes first and then dropped.)
func degridTileFused[F floatT](k *Kernels, item plan.WorkItem, sb *scratch, uvw []uvwsim.UVW, ts *scratch, row0, row1 int, dst []F) {
	const resync = xmath.DefaultPhasorResync
	size := int(unsafe.Sizeof(F(0)))
	sg := k.params.SubgridSize
	nc := item.NrChannels
	i0, i1 := row0*sg, row1*sg
	n := i1 - i0
	rowCh, lead := k.rowChannels(nc)
	tb := bufsOf[F](ts)
	pIdx := growF(&ts.pIdx, n)
	planes := &bufsOf[F](sb).planar[i0]
	off := &sb.pOff[i0]
	for t := 0; t < item.NrTimesteps; t++ {
		stagePIdx(&pIdx[0], &k.l[i0], &k.m[i0], &k.n[i0], n, &uvw[t].U, 1)
		// At most resync rows a batch: one, but for a long non-uniform comb.
		for c0 := 0; c0 < nc; c0 += resync * rowCh {
			rows := lead + min((nc-c0+rowCh-1)/rowCh, resync)
			arg := growF(&ts.sArg, rows*n)
			if lead == 1 {
				stageArgs(&arg[0], 0, &pIdx[0], nil, k.dscale, n, 1)
			}
			for r := lead; r < rows; r++ {
				stageArgs(&arg[r*n], 0, &pIdx[0], off, k.scale[item.Channel0+c0+(r-lead)*rowCh], n, 1)
			}
			phRe, phIm := grow(&tb.phRe, rows*n), grow(&tb.phIm, rows*n)
			seedPhasors(k, ts, phIm, phRe, arg)
			for r := lead; r < rows; r++ {
				c := c0 + (r-lead)*rowCh
				rotConjAccBlk(&dst[8*(t*nc+c)], &phRe[r*n], &phIm[r*n], &phRe[0], &phIm[0],
					planes, size*sg*sg, n, min(nc-c, rowCh))
			}
		}
	}
}

// degridTileVec is degridTile on the avx2 tier's kernels, in either
// precision. Per time step the tile's phase indices are staged and the
// per-pixel phasors seeded, and re-seeded at every resync boundary, from
// batched float64 evaluations (seedPhasors). Then per (t, c): the
// rotation pass through rotVec and the accumulation through conjAccVec,
// a YMM of pixels per instruction, with a scalar loop covering the
// pixels past the last whole register. Tail pixels and the vector lane
// fold combine in a local accumulator before touching dst, so dst sees
// exactly ONE addition per element per (t, c), as in degridTileFused.
func degridTileVec[F floatT](k *Kernels, item plan.WorkItem, sb *scratch, uvw []uvwsim.UVW, ts *scratch, row0, row1 int, dst []F) {
	const resync = xmath.DefaultPhasorResync
	size := int(unsafe.Sizeof(F(0)))
	sg := k.params.SubgridSize
	nc := item.NrChannels
	i0, i1 := row0*sg, row1*sg
	n := i1 - i0
	nv := n / (32 / size) // whole YMM registers of pixels
	tail0 := 32 / size * nv
	tb := bufsOf[F](ts)
	pIdx := growF(&ts.pIdx, n)
	arg := growF(&ts.sArg, n)
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
	for t := 0; t < item.NrTimesteps; t++ {
		u, v, w := uvw[t].U, uvw[t].V, uvw[t].W
		for i := range pIdx {
			pIdx[i] = u*l[i] + v*m[i] + w*nn[i]
		}
		if useRec {
			// The delta phasors exp(i*pIdx*dscale) that advance the
			// per-pixel phasors from channel to channel.
			for i, p := range pIdx {
				arg[i] = p * k.dscale
			}
			seedPhasors(k, ts, dIm, dRe, arg)
		}
		for c := 0; c < nc; c++ {
			if !useRec || c%resync == 0 {
				scale := k.scale[item.Channel0+c]
				for i, p := range pIdx {
					arg[i] = p*scale - off[i]
				}
				seedPhasors(k, ts, phIm, phRe, arg)
			} else {
				if nv > 0 {
					rotVec(&phRe[0], &phIm[0], &dRe[0], &dIm[0], nv)
				}
				for i := tail0; i < n; i++ {
					s, co := phIm[i], phRe[i]
					phIm[i] = s*dRe[i] + co*dIm[i]
					phRe[i] = co*dRe[i] - s*dIm[i]
				}
			}
			var t8 [8]F
			for i := tail0; i < n; i++ {
				cr, ci := phRe[i], -phIm[i] // conjugate phasor
				vr, vi := tpre[0][i], tpim[0][i]
				t8[0] += vr*cr - vi*ci
				t8[1] += vr*ci + vi*cr
				vr, vi = tpre[1][i], tpim[1][i]
				t8[2] += vr*cr - vi*ci
				t8[3] += vr*ci + vi*cr
				vr, vi = tpre[2][i], tpim[2][i]
				t8[4] += vr*cr - vi*ci
				t8[5] += vr*ci + vi*cr
				vr, vi = tpre[3][i], tpim[3][i]
				t8[6] += vr*cr - vi*ci
				t8[7] += vr*ci + vi*cr
			}
			if nv > 0 {
				conjAccVec(&t8[0], &phRe[0], &phIm[0],
					&tpre[0][0], &tpim[0][0], &tpre[1][0], &tpim[1][0],
					&tpre[2][0], &tpim[2][0], &tpre[3][0], &tpim[3][0], nv)
			}
			out := (*[8]F)(dst[8*(t*nc+c):])
			for j := 0; j < 8; j++ {
				out[j] += t8[j]
			}
		}
	}
}

// as64 and as32 view a kernel argument of element type F as the width
// the caller has established F to be.
func as64[F floatT](p *F) *float64 { return (*float64)(unsafe.Pointer(p)) }
func as32[F floatT](p *F) *float32 { return (*float32)(unsafe.Pointer(p)) }

// rotConjAccBlk, rotVec and conjAccVec are the degridder kernels of
// element type F (simd_amd64.go): the fused pair rotConjAccOctsBlk64 /
// rotConjAccBlk32, and the 256-bit rotQuads / rotOcts and conjAccQuads /
// conjAccOcts, nv counting YMM registers of pixels.
func rotConjAccBlk[F floatT](dst, phRe, phIm, dRe, dIm, planes *F, stride, n, nch int) {
	if unsafe.Sizeof(*dst) == 8 {
		rotConjAccOctsBlk64(as64(dst), as64(phRe), as64(phIm), as64(dRe), as64(dIm), as64(planes), stride, n, nch)
		return
	}
	rotConjAccBlk32(as32(dst), as32(phRe), as32(phIm), as32(dRe), as32(dIm), as32(planes), stride, n, nch)
}

func rotVec[F floatT](phRe, phIm, dRe, dIm *F, nv int) {
	if unsafe.Sizeof(*phRe) == 8 {
		rotQuads(as64(phRe), as64(phIm), as64(dRe), as64(dIm), nv)
		return
	}
	rotOcts(as32(phRe), as32(phIm), as32(dRe), as32(dIm), nv)
}

func conjAccVec[F floatT](out, phRe, phIm, p0r, p0i, p1r, p1i, p2r, p2i, p3r, p3i *F, nv int) {
	if unsafe.Sizeof(*out) == 8 {
		conjAccQuads(as64(out), as64(phRe), as64(phIm), as64(p0r), as64(p0i), as64(p1r), as64(p1i), as64(p2r), as64(p2i), as64(p3r), as64(p3i), nv)
		return
	}
	conjAccOcts(as32(out), as32(phRe), as32(phIm), as32(p0r), as32(p0i), as32(p1r), as32(p1i), as32(p2r), as32(p2i), as32(p3r), as32(p3i), nv)
}
