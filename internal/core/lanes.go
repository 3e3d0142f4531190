package core

// The Go bodies of the pixel-lane routines: what the scalar tier runs in
// gridTilePix and degridTileFused, at the avx2 tier's geometry — a group
// of four float64 or eight float32 pixels, sums in planar groups of four
// (simdDispatch.sumsW), the FOLD4_PD/FOLD8_PS lane fold. Each is the
// per-lane transcription kernels_asm_test.go checks the YMM forms
// against. Float64 multiply-adds run through math.FMA, the vector FMA's
// single rounding, and every other product is rounded explicitly, which
// the Go spec forbids any compiler to fuse: a float64 pass on the scalar
// tier is avx2's bits on every GOARCH and GOAMD64 level. Go has no
// float32 fused multiply-add, so float32 lanes round the product first:
// their own bits on every platform, within the float32 bound of avx2's.

import (
	"math"
	"unsafe"
)

// fmaLane is one lane's a*b + c: rounded once in float64, as the vector
// FMA rounds it; the product rounded first in float32.
func fmaLane[F floatT](a, b, c F) F {
	if unsafe.Sizeof(a) == 8 {
		return F(math.FMA(float64(a), float64(b), float64(c)))
	}
	return F(a*b) + c
}

// rotAccPixGo is rotAccPixBlk64W/rotAccPixBlk32W in Go: 32/size pixels,
// one per lane, accumulate nt steps of nc channels into acc, sum k of
// lane p at acc[32*(p/4) + 4k + p%4]. Each lane's eight sums stay in
// locals over the whole call; a chunk's phasors are its base row's, and
// rotate by the step's delta row between the chunk's channels.
func rotAccPixGo[F floatT](acc, r0, i0, r1, i1, r2, i2, r3, i3 *F, nc int, sn, cs *float64, nt, rowCh int) {
	w := 32 / int(unsafe.Sizeof(*acc))
	lead := min(rowCh-1, 1)
	stride := w * (lead + (nc+rowCh-1)/rowCh)
	n := nt * nc
	vr0, vi0, vr1, vi1 := unsafe.Slice(r0, n), unsafe.Slice(i0, n), unsafe.Slice(r1, n), unsafe.Slice(i1, n)
	vr2, vi2, vr3, vi3 := unsafe.Slice(r2, n), unsafe.Slice(i2, n), unsafe.Slice(r3, n), unsafe.Slice(i3, n)
	s, c := unsafe.Slice(sn, stride*nt), unsafe.Slice(cs, stride*nt)
	sums := unsafe.Slice(acc, 8*w)
	for lane := 0; lane < w; lane++ {
		a := sums[32*(lane/4)+lane%4:]
		a0, a1, a2, a3, a4, a5, a6, a7 := a[0], a[4], a[8], a[12], a[16], a[20], a[24], a[28]
		for r := 0; r < nt; r++ {
			row := r*stride + lane
			ds, dc := F(s[row]), F(c[row])
			for c0 := 0; c0 < nc; c0 += rowCh {
				o := row + w*(lead+c0/rowCh)
				ps, pc := F(s[o]), F(c[o])
				for j := r*nc + c0; j < r*nc+min(c0+rowCh, nc); j++ {
					if j > r*nc+c0 {
						ps, pc = fmaLane(ps, dc, F(pc*ds)), fmaLane(pc, dc, -F(ps*ds))
					}
					a0 = fmaLane(-vi0[j], ps, fmaLane(vr0[j], pc, a0))
					a1 = fmaLane(vi0[j], pc, fmaLane(vr0[j], ps, a1))
					a2 = fmaLane(-vi1[j], ps, fmaLane(vr1[j], pc, a2))
					a3 = fmaLane(vi1[j], pc, fmaLane(vr1[j], ps, a3))
					a4 = fmaLane(-vi2[j], ps, fmaLane(vr2[j], pc, a4))
					a5 = fmaLane(vi2[j], pc, fmaLane(vr2[j], ps, a5))
					a6 = fmaLane(-vi3[j], ps, fmaLane(vr3[j], pc, a6))
					a7 = fmaLane(vi3[j], pc, fmaLane(vr3[j], ps, a7))
				}
			}
		}
		a[0], a[4], a[8], a[12], a[16], a[20], a[24], a[28] = a0, a1, a2, a3, a4, a5, a6, a7
	}
}

// rotConjAccGo is rotConjAccBlk64W/rotConjAccBlk32W in Go: per channel
// pixel i accumulates into lane i mod 32/size with FUSED_VEC's sequence,
// each sum's lanes fold pairwise and add once into dst[8*c:8*c+8], and
// between channels every phasor advances by its delta: the phasors are
// left as the last channel's.
func rotConjAccGo[F floatT](dst, phRe, phIm, dRe, dIm, planes *F, stride, n, nch int) {
	lanes := 32 / int(unsafe.Sizeof(*dst))
	var v [8][]F // the planes re0, im0, re1, ..., stride bytes apart
	for j := range v {
		v[j] = unsafe.Slice((*F)(unsafe.Add(unsafe.Pointer(planes), j*stride)), n)
	}
	vr0, vi0, vr1, vi1, vr2, vi2, vr3, vi3 := v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7]
	pr, pi, dr, di := unsafe.Slice(phRe, n), unsafe.Slice(phIm, n), unsafe.Slice(dRe, n), unsafe.Slice(dIm, n)
	out := unsafe.Slice(dst, 8*nch)
	for c := 0; c < nch; c++ {
		var l [8][8]F // sum k of lane j at l[k][j]
		for lane := 0; lane < lanes; lane++ {
			var s0, s1, s2, s3, s4, s5, s6, s7 F
			for i := lane; i < n; i += lanes {
				cr, ci := pr[i], pi[i]
				s0 = fmaLane(vi0[i], ci, fmaLane(vr0[i], cr, s0))
				s1 = fmaLane(vi0[i], cr, fmaLane(-vr0[i], ci, s1))
				s2 = fmaLane(vi1[i], ci, fmaLane(vr1[i], cr, s2))
				s3 = fmaLane(vi1[i], cr, fmaLane(-vr1[i], ci, s3))
				s4 = fmaLane(vi2[i], ci, fmaLane(vr2[i], cr, s4))
				s5 = fmaLane(vi2[i], cr, fmaLane(-vr2[i], ci, s5))
				s6 = fmaLane(vi3[i], ci, fmaLane(vr3[i], cr, s6))
				s7 = fmaLane(vi3[i], cr, fmaLane(-vr3[i], ci, s7))
			}
			l[0][lane], l[1][lane], l[2][lane], l[3][lane] = s0, s1, s2, s3
			l[4][lane], l[5][lane], l[6][lane], l[7][lane] = s4, s5, s6, s7
		}
		for i := 0; c < nch-1 && i < n; i++ {
			cr, ci := pr[i], pi[i]
			pi[i] = fmaLane(cr, di[i], F(ci*dr[i]))
			pr[i] = fmaLane(-ci, di[i], F(cr*dr[i]))
		}
		for k := range l {
			f := (l[k][0] + l[k][1]) + (l[k][2] + l[k][3])
			if lanes == 8 {
				f += (l[k][4] + l[k][5]) + (l[k][6] + l[k][7])
			}
			out[8*c+k] += f
		}
	}
}

// stagePIdxGo is stagePIdx in Go: dst[r*npix+i] = (U_r*l[i] + V_r*m[i])
// + W_r*n[i], every product rounded.
func stagePIdxGo(dst, l, m, n *float64, npix int, uvw *float64, nt int) {
	d, c := unsafe.Slice(dst, npix*nt), unsafe.Slice(uvw, 3*nt)
	ls, ms, ns := unsafe.Slice(l, npix), unsafe.Slice(m, npix), unsafe.Slice(n, npix)
	for r := 0; r < nt; r++ {
		u, v, w := c[3*r], c[3*r+1], c[3*r+2]
		for i := range ls {
			d[r*npix+i] = float64(u*ls[i]) + float64(v*ms[i]) + float64(w*ns[i])
		}
	}
}

// stageArgsGo is stageArgs in Go: arg[i] = pIdx[i]*scale - off[i], or
// pIdx[i]*scale when off is nil, rows stride bytes apart.
func stageArgsGo(arg *float64, stride int, pIdx, off *float64, scale float64, npix, nt int) {
	for r := 0; r < nt; r++ {
		a := unsafe.Slice((*float64)(unsafe.Add(unsafe.Pointer(arg), r*stride)), npix)
		p := unsafe.Slice((*float64)(unsafe.Add(unsafe.Pointer(pIdx), 8*r*npix)), npix)
		if off == nil {
			for i, v := range p {
				a[i] = v * scale
			}
			continue
		}
		o := unsafe.Slice(off, npix)
		for i, v := range p {
			a[i] = float64(v*scale) - o[i]
		}
	}
}
