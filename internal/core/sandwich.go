package core

// The per-subgrid fixed cost on either side of the tile kernels: the
// gridder tile epilogue (planar sums -> P^H S Q -> taper -> subgrid
// planes) and its mirror, the degridder prologue (subgrid planes ->
// P S Q^H -> taper -> planar pixel block). Both sweep a register of
// pixels at a time through the planar sandwiches of sandwich_amd64.h,
// four per YMM on the avx2 tier and eight per ZMM on avx512; the
// one-pixel forms below are their math.FMA transcriptions — the same
// operations in the same order, so a pixel gets the same bits whether
// it falls into a register, into a tile's tail or onto the scalar tier,
// which runs every pixel through them. The reference kernels keep
// storePixel/correctedPixel, the plain Matrix2 arithmetic these are
// tested against.

import (
	"math"

	"repro/internal/aterm"
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

// jones is a work item's pair of station A-term maps as eight planes
// each (pp, qp: aterm.Planes), as the sandwiches read them and the
// passes' cache holds them. The zero value means no A-terms.
type jones struct{ pp, qp []float64 }

func (a jones) none() bool { return a.pp == nil }

// parts returns pixel i's two matrices as their eight real components.
func (a jones) parts(i int) (p, q [8]float64) {
	n := len(a.pp) / 8
	for j := range p {
		p[j], q[j] = a.pp[j*n+i], a.qp[j*n+i]
	}
	return p, q
}

// at returns pixel i's two matrices, as the reference kernels read them.
func (a jones) at(i int) (p, q xmath.Matrix2) {
	pr, qr := a.parts(i)
	for j := range p {
		p[j], q[j] = complex(pr[2*j], pr[2*j+1]), complex(qr[2*j], qr[2*j+1])
	}
	return p, q
}

// jonesOf lays the maps a direct caller supplies out as planes in s.
func jonesOf(s *scratch, p, q []xmath.Matrix2) jones {
	if p == nil {
		return jones{}
	}
	buf := growF(&s.jones, 16*len(p))
	return jones{pp: aterm.Planes(buf[:8*len(p)], p), qp: aterm.Planes(buf[8*len(p):], q)}
}

// parts splits a Jones matrix into its eight real components.
func parts(m *xmath.Matrix2) (r [8]float64) {
	for j, v := range m {
		r[2*j], r[2*j+1] = real(v), imag(v)
	}
	return r
}

// gridSandwichPixel returns taper * P^H S Q for one pixel, S given as
// its eight folded sums, P and Q as their eight real components.
func gridSandwichPixel(s, p, q *[8]float64, taper float64) (r [8]float64) {
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
func degridSandwichPixel(s, p, q *[8]float64, taper float64) (r [8]float64) {
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

// sandwichPixel is one pixel of either sandwich in Go, for the pixels
// past a tile's last whole register and every pixel of the scalar tier:
// the assembled bodies' operations in their order, so the same bits
// (without planes, the taper alone); degrid selects the degridder's.
func (a jones) sandwichPixel(i int, s *[8]float64, taper float64, degrid bool) (r [8]float64) {
	if a.pp == nil {
		for j, v := range s {
			r[j] = v * taper
		}
		return r
	}
	p, q := a.parts(i)
	if degrid {
		return degridSandwichPixel(s, &p, &q, taper)
	}
	return gridSandwichPixel(s, &p, &q, taper)
}

// gridEpilogue finishes the np pixels from pix0 on of a gridder tile
// from their sums (simdDispatch.sumsW): out[c][i] = taper[i] * (P[i]^H
// S[i] Q[i])_c, or taper[i] * S[i]_c without A-terms. Whole registers of
// pixels go through the assembled sandwich, the rest — on the scalar tier
// all of them — through its transcription: per pixel the same bits,
// however the tile was cut.
func (k *Kernels) gridEpilogue(out *grid.Subgrid, pix0, np int, sums []float64, a jones) {
	start := k.ob.now()
	w, taper, d := k.disp.sumsW, k.taper[pix0:pix0+np], &out.Data
	var pp, qp *float64
	if a.pp != nil {
		pp, qp = &a.pp[pix0], &a.qp[pix0]
	}
	nv := k.disp.registers(np)
	if nv > 0 {
		// len(a.pp) = 8 planes of 8-byte values: the bytes of one plane.
		k.disp.gridSandwich(&d[0][pix0], &d[1][pix0], &d[2][pix0], &d[3][pix0], &sums[0], pp, qp, len(a.pp), &taper[0], nv)
	}
	for i := k.disp.lanes * nv; i < np; i++ {
		var s [8]float64
		for j := range s {
			s[j] = sums[8*w*(i/w)+w*j+i%w]
		}
		r := a.sandwichPixel(pix0+i, &s, taper[i], false)
		for c := range d {
			d[c][pix0+i] = complex(r[2*c], r[2*c+1])
		}
	}
	k.ob.epilogueDone(start)
}

// degridPrologue fills the planar corrected-pixel block of one subgrid
// (planes re0, im0, re1, ... of npix values each in planar): taper[i] *
// (P[i] S[i] Q[i]^H), or taper[i] * S[i] without A-terms, S[i] =
// (in.Data[0][i] .. in.Data[3][i]). The sandwich runs in float64 as in
// gridEpilogue — for float32 kernels into the float64 planar arena
// first, narrowed in one sweep.
func degridPrologue[F floatT](k *Kernels, in *grid.Subgrid, a jones, s *scratch, planar []F) {
	npix := len(planar) / 8
	wide, is64 := any(planar).([]float64)
	if !is64 {
		wide = growF(&s.b64.planar, 8*npix)
	}
	var pp, qp *float64
	if a.pp != nil {
		pp, qp = &a.pp[0], &a.qp[0]
	}
	nv := k.disp.registers(npix)
	if d := &in.Data; nv > 0 {
		k.disp.degridSandwich(&wide[0], 8*npix, &d[0][0], &d[1][0], &d[2][0], &d[3][0], pp, qp, &k.taper[0], nv)
	}
	for i := k.disp.lanes * nv; i < npix; i++ {
		sv := parts(&xmath.Matrix2{in.Data[0][i], in.Data[1][i], in.Data[2][i], in.Data[3][i]})
		for j, v := range a.sandwichPixel(i, &sv, k.taper[i], true) {
			wide[j*npix+i] = v
		}
	}
	if !is64 {
		xmath.CvtF64F32(any(planar).([]float32), wide)
	}
}
