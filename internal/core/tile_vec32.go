package core

// The hand-vectorized float32 gridder tile of the avx2 tier: the
// eight-lane analogue of gridTileVec driving the AVX2+FMA PS loops in
// kernels32_amd64.s. A YMM register holds eight float32 lanes, so one
// rotAccOcts iteration covers eight channels — twice the elements per
// instruction of the float64 quad kernels at the same instruction count,
// which is the whole point of running the paper's single-precision
// kernels in float32. The degridder, and the SIMDAVX512 tier's tiles of
// both precisions, are in tile_vec.go.
//
// Phase arguments, sincos seeding and the lane-seeding rotations stay
// float64 (the same policy as the scalar float32 tiles: a float32
// phase would lose ~1e-3 rad at the kernels' argument magnitudes);
// only the stored lane phasors, the rotator and the accumulation
// narrow to float32. In-register lane rotation then drifts in float32,
// which is why the resync chunk stays at xmath.DefaultPhasorResync
// channels: the drift class is xmath.Float32PhasorDriftBound, the same
// as the scalar float32 recurrence.

import (
	"repro/internal/grid"
	"repro/internal/plan"
	"repro/internal/uvwsim"
	"repro/internal/xmath"
)

// chunkOcts is the resync cadence of the float32 vector gridder in
// channel octs: after chunkOcts iterations of rotAccOcts (8 channels
// each) the phasor lanes are re-seeded from an exact float64
// evaluation, preserving the xmath.DefaultPhasorResync drift cadence.
const chunkOcts = xmath.DefaultPhasorResync / 8

// seedOctLanes fills one 18-wide phasor register block for the oct
// kernels from an exact chunk-base evaluation (s0, c0) and the
// per-channel delta phasor (ds, dc): lane k holds exp(i*(base +
// k*delta)) — lanes 1-3 by single-delta rotations, lanes 4-7 as lanes
// 0-3 rotated by exp(i*4*delta) — and slots 16/17 hold the
// eight-channel rotator exp(i*8*delta). Everything runs and is stored
// in float64; the caller narrows whole blocks at once with
// xmath.CvtF64F32 (bitwise equal to per-element conversion, an order
// of magnitude cheaper than the 18 scalar converts this function
// would otherwise pay per time step).
func seedOctLanes(ph *[18]float64, s0, c0, ds, dc float64) {
	ds2, dc2 := 2*ds*dc, dc*dc-ds*ds
	ds4, dc4 := 2*ds2*dc2, dc2*dc2-ds2*ds2
	s1, c1 := s0*dc+c0*ds, c0*dc-s0*ds
	s2, c2 := s1*dc+c1*ds, c1*dc-s1*ds
	s3, c3 := s2*dc+c2*ds, c2*dc-s2*ds
	ph[0], ph[8] = s0, c0
	ph[1], ph[9] = s1, c1
	ph[2], ph[10] = s2, c2
	ph[3], ph[11] = s3, c3
	ph[4], ph[12] = s0*dc4+c0*ds4, c0*dc4-s0*ds4
	ph[5], ph[13] = s1*dc4+c1*ds4, c1*dc4-s1*ds4
	ph[6], ph[14] = s2*dc4+c2*ds4, c2*dc4-s2*ds4
	ph[7], ph[15] = s3*dc4+c3*ds4, c3*dc4-s3*ds4
	ph[16], ph[17] = 2*ds4*dc4, dc4*dc4-ds4*ds4
}

// gridTileVec32 is gridTileVec for float32 on the avx2 tier, which only
// takes recurrence items (gridSubgridScratch): gridLanesOcts32 fills
// eight-lane accumulators (scratch b32.vacc) that fold here
// (foldOctLanes) and take gridTileVec's epilogue.
func gridTileVec32(k *Kernels, item plan.WorkItem, uvw []uvwsim.UVW, sb *scratch, a jones, out *grid.Subgrid, ts *scratch, row0, row1 int) {
	sg := k.params.SubgridSize
	pix0, np := row0*sg, (row1-row0)*sg
	sums := growF(&ts.sums, 8*((np+3)&^3))
	vacc := grow(&ts.b32.vacc, 64*np)
	clear(vacc)
	gridLanesOcts32(k, item, uvw, sb, ts, vacc, pix0, pix0+np)
	foldOctLanes(sums, vacc)
	k.gridEpilogue(out, pix0, np, sums, a)
}

// gridLanesOcts32 fills the accumulator lanes of the pixels [pix0, pix1)
// with channels in the lanes, gridLanesRecurrence at eight float32
// lanes. The eight phasor lanes hold channels c..c+7 (seedOctLanes), and
// rotAccOcts advances all lanes by exp(i*8*delta) per iteration. Each
// pixel owns eight accumulators of eight lanes each, persisted across
// visibility blocks and folded by the caller only when the tile
// finishes, so the per-pixel result is independent of the tile and
// block decomposition. Leftover channels (nc mod 8) accumulate
// scalar-style into lane 0 with a float32 rotation, the same error
// class as the lanes.
//
// When a single resync chunk covers every channel and there is no tail
// (nc a multiple of 8, at most xmath.DefaultPhasorResync — the paper's
// channel counts), the per-timestep phasor blocks of a whole
// visibility block are staged into scratch (b32.phv) and swept by one
// rotAccOctsBlk call per (pixel, block): at small nc the per-call
// accumulator load/store otherwise costs as much as the useful FMA
// work. The blocked kernel replays the identical per-(t, channel)
// operation sequence, so its results are bitwise equal to the per-t
// form and the decomposition-independence property is untouched. With
// several chunks or a tail the blocked sweep would reorder the
// accumulation (all t of chunk 0, then all t of chunk 1, ...), which
// WOULD break decomposition independence — those shapes keep the
// per-t calls.
func gridLanesOcts32(k *Kernels, item plan.WorkItem, uvw []uvwsim.UVW, sb, ts *scratch, vacc []float32, pix0, pix1 int) {
	nt, nc := item.NrTimesteps, item.NrChannels
	re, im := visPlanes[float32](sb, nt*nc)
	uOff, vOff := k.uvOffset(item.X0, item.Y0)
	wOff := item.WOffset
	no := nc / 8
	tail0 := 8 * no
	scale0 := k.scale[item.Channel0]
	block := k.visBlockSteps(nt, nc)
	// Batched-seeding layout, per time step of a block: one argument
	// slot per resync chunk (its base phase), one for the channel tail
	// when nc mod 8 != 0, and one for the per-channel delta.
	nchunks := (no + chunkOcts - 1) / chunkOcts
	seeds := nchunks
	if tail0 < nc {
		seeds++
	}
	stride := seeds + 1
	blocked := no > 0 && nchunks == 1 && tail0 == nc
	// ph is the register file handed to rotAccOcts: per-lane phasor
	// sin [0:8] and cos [8:16], then the eight-channel rotator sin/cos.
	// phd18 is its float64 staging (see seedOctLanes).
	var ph [18]float32
	var phd18 [18]float64
	for t0 := 0; t0 < nt; t0 += block {
		t1 := min(t0+block, nt)
		bn := t1 - t0
		arg := growF(&ts.sArg, stride*bn)
		asn := growF(&ts.sSin, stride*bn)
		acs := growF(&ts.sCos, stride*bn)
		var phv []float32
		var phd []float64
		if blocked {
			phv = grow(&ts.b32.phv, 18*bn)
			phd = growF(&ts.sPhd, 18*bn)
		}
		for i := pix0; i < pix1; i++ {
			l, m, n := k.l[i], k.m[i], k.n[i]
			phaseOffset := twoPi * (uOff*l + vOff*m + wOff*n)
			for t := t0; t < t1; t++ {
				c3 := uvw[t]
				phaseIndex := c3.U*l + c3.V*m + c3.W*n
				base := phaseIndex*scale0 - phaseOffset
				delta := phaseIndex * k.dscale
				if blocked {
					// Planar layout (bases, then deltas) so the
					// vectorized seeding loads contiguously.
					arg[t-t0] = base
					arg[t-t0+bn] = delta
					continue
				}
				o := stride * (t - t0)
				for ci := 0; ci < nchunks; ci++ {
					arg[o+ci] = base + float64(8*ci*chunkOcts)*delta
				}
				if tail0 < nc {
					arg[o+seeds-1] = base + float64(tail0)*delta
				}
				arg[o+seeds] = delta
			}
			k.sincosVec(asn, acs, arg)
			a := vacc[64*(i-pix0) : 64*(i-pix0)+64]
			if blocked {
				ng := bn / 4
				if ng > 0 {
					seedOctsBlk(&phd[0], &asn[0], &acs[0], &asn[bn], &acs[bn], ng)
				}
				for r := 4 * ng; r < bn; r++ {
					seedOctLanes((*[18]float64)(phd[18*r:]), asn[r], acs[r], asn[bn+r], acs[bn+r])
				}
				xmath.CvtF64F32(phv, phd)
				jj := t0 * nc
				// visAdj is 0: with no tail, the channel loop already
				// leaves the visibility pointers at the next time step.
				rotAccOctsBlk(&a[0],
					&re[0][jj], &im[0][jj], &re[1][jj], &im[1][jj],
					&re[2][jj], &im[2][jj], &re[3][jj], &im[3][jj],
					no, &phv[0], bn, 0, 18*4)
				continue
			}
			for t := t0; t < t1; t++ {
				o := stride * (t - t0)
				ds, dc := asn[o+seeds], acs[o+seeds]
				j := t * nc
				for ci, o0 := 0, 0; o0 < no; ci, o0 = ci+1, o0+chunkOcts {
					seedOctLanes(&phd18, asn[o+ci], acs[o+ci], ds, dc)
					xmath.CvtF64F32(ph[:], phd18[:])
					jj := j + 8*o0
					rotAccOcts(&a[0],
						&re[0][jj], &im[0][jj], &re[1][jj], &im[1][jj],
						&re[2][jj], &im[2][jj], &re[3][jj], &im[3][jj],
						min(no-o0, chunkOcts), &ph[0])
				}
				if tail0 < nc {
					sv, cv := float32(asn[o+seeds-1]), float32(acs[o+seeds-1])
					dsf, dcf := float32(ds), float32(dc)
					for c := tail0; c < nc; c++ {
						jj := j + c
						vr, vi := re[0][jj], im[0][jj]
						a[0] += vr*cv - vi*sv
						a[8] += vr*sv + vi*cv
						vr, vi = re[1][jj], im[1][jj]
						a[16] += vr*cv - vi*sv
						a[24] += vr*sv + vi*cv
						vr, vi = re[2][jj], im[2][jj]
						a[32] += vr*cv - vi*sv
						a[40] += vr*sv + vi*cv
						vr, vi = re[3][jj], im[3][jj]
						a[48] += vr*cv - vi*sv
						a[56] += vr*sv + vi*cv
						sv, cv = sv*dcf+cv*dsf, cv*dcf-sv*dsf
					}
				}
			}
		}
	}
}
