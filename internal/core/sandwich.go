package core

// The per-subgrid fixed cost on either side of the vector kernels: the
// gridder tile epilogue (lane fold -> P^H S Q -> taper -> subgrid
// planes) and its mirror, the degridder prologue (subgrid planes ->
// P S Q^H -> taper -> planar pixel block). Both sweep four pixels at a
// time through the AVX2+FMA sandwiches in kernels_amd64.s; the
// one-pixel forms below are their math.FMA transcriptions — the same
// operations in the same order, so a pixel gets the same bits whether
// it falls into a quad or into a tile's tail. The reference kernels and
// the generic tiles keep storePixel/correctedPixel, the plain
// Matrix2 arithmetic these are tested against.

import (
	"math"

	"repro/internal/grid"
	"repro/internal/xmath"
)

// mulAdd2 returns x*y + z*w.
func mulAdd2(xr, xi, zr, zi, yr, yi, wr, wi float64) (re, im float64) {
	re = math.FMA(-zi, wi, math.FMA(zr, wr, math.FMA(-xi, yi, xr*yr)))
	im = math.FMA(zi, wr, math.FMA(zr, wi, math.FMA(xi, yr, xr*yi)))
	return re, im
}

// cmulAdd2 returns conj(x)*y + conj(z)*w.
func cmulAdd2(xr, xi, zr, zi, yr, yi, wr, wi float64) (re, im float64) {
	re = math.FMA(zi, wi, math.FMA(zr, wr, math.FMA(xi, yi, xr*yr)))
	im = math.FMA(-zi, wr, math.FMA(zr, wi, math.FMA(-xi, yr, xr*yi)))
	return re, im
}

// mulcAdd2 returns x*conj(y) + z*conj(w).
func mulcAdd2(xr, xi, zr, zi, yr, yi, wr, wi float64) (re, im float64) {
	re = math.FMA(zi, wi, math.FMA(zr, wr, math.FMA(xi, yi, xr*yr)))
	im = math.FMA(-zr, wi, math.FMA(zi, wr, math.FMA(-xr, yi, xi*yr)))
	return re, im
}

// parts splits a Jones matrix into its eight real components.
func parts(m *xmath.Matrix2) (r [8]float64) {
	for j, v := range m {
		r[2*j], r[2*j+1] = real(v), imag(v)
	}
	return r
}

// gridSandwichPixel returns taper * P^H S Q for one pixel, S given as
// its eight folded sums.
func gridSandwichPixel(s *[8]float64, pm, qm *xmath.Matrix2, taper float64) (r [8]float64) {
	p, q := parts(pm), parts(qm)
	for row := 0; row < 2; row++ {
		// Column row of P is row `row` of P^H.
		ar, ai, br, bi := p[2*row], p[2*row+1], p[4+2*row], p[4+2*row+1]
		t0r, t0i := cmulAdd2(ar, ai, br, bi, s[0], s[1], s[4], s[5])
		t1r, t1i := cmulAdd2(ar, ai, br, bi, s[2], s[3], s[6], s[7])
		r0r, r0i := mulAdd2(t0r, t0i, t1r, t1i, q[0], q[1], q[4], q[5])
		r1r, r1i := mulAdd2(t0r, t0i, t1r, t1i, q[2], q[3], q[6], q[7])
		r[4*row], r[4*row+1] = r0r*taper, r0i*taper
		r[4*row+2], r[4*row+3] = r1r*taper, r1i*taper
	}
	return r
}

// degridSandwichPixel returns taper * P S Q^H for one pixel.
func degridSandwichPixel(s *[8]float64, pm, qm *xmath.Matrix2, taper float64) (r [8]float64) {
	p, q := parts(pm), parts(qm)
	for row := 0; row < 2; row++ {
		ar, ai, br, bi := p[4*row], p[4*row+1], p[4*row+2], p[4*row+3]
		t0r, t0i := mulAdd2(ar, ai, br, bi, s[0], s[1], s[4], s[5])
		t1r, t1i := mulAdd2(ar, ai, br, bi, s[2], s[3], s[6], s[7])
		r0r, r0i := mulcAdd2(t0r, t0i, t1r, t1i, q[0], q[1], q[2], q[3])
		r1r, r1i := mulcAdd2(t0r, t0i, t1r, t1i, q[4], q[5], q[6], q[7])
		r[4*row], r[4*row+1] = r0r*taper, r0i*taper
		r[4*row+2], r[4*row+3] = r1r*taper, r1i*taper
	}
	return r
}

// foldOctLanes is the float32 gridder's lane fold: the eight eight-lane
// accumulators of each pixel at vacc[64*i:] reduce in float32 as
// ((l0+l4)+(l1+l5))+((l2+l6)+(l3+l7)) — the conjAccOcts order — and
// widen into sums[8*i:].
func foldOctLanes(sums []float64, vacc []float32) {
	for i := range sums {
		v := vacc[8*i : 8*i+8]
		sums[i] = float64(((v[0] + v[4]) + (v[1] + v[5])) + ((v[2] + v[6]) + (v[3] + v[7])))
	}
}

// gridSandwich writes out[c][i] = taper[i] * (P[i]^H S[i] Q[i])_c for
// the len(taper) pixels whose folded sums S lie eight apiece in sums:
// whole quads through the assembled body, the rest through its
// transcription.
func gridSandwich(out *[4][]complex128, sums []float64, p, q []xmath.Matrix2, taper []float64) {
	nq := len(taper) / 4
	if nq > 0 {
		gridSandwichQuads(&out[0][0], &out[1][0], &out[2][0], &out[3][0],
			&sums[0], &p[0][0], &q[0][0], &taper[0], nq)
	}
	for i := 4 * nq; i < len(taper); i++ {
		r := gridSandwichPixel((*[8]float64)(sums[8*i:]), &p[i], &q[i], taper[i])
		for c := range out {
			out[c][i] = complex(r[2*c], r[2*c+1])
		}
	}
}

// degridSandwich writes taper[i] * (P[i] S[i] Q[i]^H), S[i] = (in[0][i]
// .. in[3][i]), into the eight planes of len(taper) values in planes.
func degridSandwich(planes []float64, in *[4][]complex128, p, q []xmath.Matrix2, taper []float64) {
	npix := len(taper)
	nq := npix / 4
	if nq > 0 {
		degridSandwichQuads(&planes[0], 8*npix, &in[0][0], &in[1][0], &in[2][0], &in[3][0],
			&p[0][0], &q[0][0], &taper[0], nq)
	}
	for i := 4 * nq; i < npix; i++ {
		sv := parts(&xmath.Matrix2{in[0][i], in[1][i], in[2][i], in[3][i]})
		r := degridSandwichPixel(&sv, &p[i], &q[i], taper[i])
		for j, v := range r {
			planes[j*npix+i] = v
		}
	}
}

// gridEpilogue finishes the pixels [pix0, pix0+len(sums)/8) of a vector
// gridder tile from their folded sums: A-term adjoint, taper, store.
// Per pixel and independent of how the tile was cut: the quad body and
// the pixel tail agree bit for bit. Only the vector tiles call it, so
// the assembled body is always there.
func (k *Kernels) gridEpilogue(out *grid.Subgrid, pix0 int, sums []float64, atermP, atermQ []xmath.Matrix2) {
	pix1 := pix0 + len(sums)/8
	taper := k.taper[pix0:pix1]
	if atermP == nil {
		for i, t := range taper {
			s := sums[8*i : 8*i+8]
			for c := range out.Data {
				out.Data[c][pix0+i] = complex(s[2*c]*t, s[2*c+1]*t)
			}
		}
		return
	}
	planes := [4][]complex128{out.Data[0][pix0:pix1], out.Data[1][pix0:pix1], out.Data[2][pix0:pix1], out.Data[3][pix0:pix1]}
	gridSandwich(&planes, sums, atermP[pix0:pix1], atermQ[pix0:pix1], taper)
}

// degridPrologue fills the planar corrected-pixel block of one subgrid
// (planes re0, im0, re1, ... of npix values each in planar): A-terms,
// taper, split. On the vector tiers the A-term sandwich runs in float64
// (degridSandwich) — for float32 kernels into the float64 planar arena
// first, narrowed in one sweep; the scalar tier keeps the Matrix2
// arithmetic of correctedPixel.
func degridPrologue[F floatT](k *Kernels, in *grid.Subgrid, atermP, atermQ []xmath.Matrix2, s *scratch, planar []F) {
	npix := len(planar) / 8
	switch {
	case k.disp.degridVec64 == nil:
		for i := 0; i < npix; i++ {
			px := k.correctedPixel(in, i, atermP, atermQ)
			for c, v := range px {
				planar[2*c*npix+i], planar[(2*c+1)*npix+i] = F(real(v)), F(imag(v))
			}
		}
	case atermP == nil:
		for c := range in.Data {
			re, im := planar[2*c*npix:(2*c+1)*npix], planar[(2*c+1)*npix:(2*c+2)*npix]
			for i, t := range k.taper[:npix] {
				v := in.Data[c][i]
				re[i], im[i] = F(real(v)*t), F(imag(v)*t)
			}
		}
	default:
		wide, is64 := any(planar).([]float64)
		if !is64 {
			wide = growF(&s.b64.planar, 8*npix)
		}
		degridSandwich(wide, &in.Data, atermP, atermQ, k.taper)
		if !is64 {
			xmath.CvtF64F32(any(planar).([]float32), wide)
		}
	}
}
