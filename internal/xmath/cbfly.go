package xmath

// Complex radix-4 butterfly helpers for the internal/fft engine. The
// fused butterfly merges two consecutive radix-2 Cooley-Tukey stages
// (half sizes h and 2h over a 4h block): with w1 = W_2h^t, w2 = W_4h^t
// and w3 = -i*w2 (exact: negate + swap, no rounding),
//
//	tb = w1*b         td = w1*d
//	a1 = a + tb       b1 = a - tb
//	c1 = c + td       d1 = c - td
//	tc = w2*c1        te = w3*d1
//	a' = a1 + tc      b' = b1 + te
//	c' = a1 - tc      d' = b1 - te
//
// which costs 3 complex multiplies per 4 outputs instead of radix-2's
// 4, and reads each element once per fused stage instead of twice.
//
// The AVX2 paths multiply complexes with two duplicated-element
// multiplies and VADDSUBPD — no FMA — so every product and sum is the
// same IEEE operation the Go scalar code performs and the vector
// results are bitwise identical to the fallback (the same convention
// as cvt_amd64.s / the sincos kernels).

// r4BflyScalar applies the fused butterfly to one element quad.
func r4BflyScalar(a, b, c, d, w1, w2 complex128) (oa, ob, oc, od complex128) {
	tb := w1 * b
	td := w1 * d
	a1, b1 := a+tb, a-tb
	c1, d1 := c+td, c-td
	tc := w2 * c1
	w3 := complex(imag(w2), -real(w2)) // -i*w2, exact
	te := w3 * d1
	return a1 + tc, b1 + te, a1 - tc, b1 - te
}

// r4BflyInvScalar is the backward-direction butterfly: the caller
// passes conjugated w1/w2 tables and the fused quarter-turn factor
// conjugates too, w3 = +i*w2 (exact: negate + swap).
func r4BflyInvScalar(a, b, c, d, w1, w2 complex128) (oa, ob, oc, od complex128) {
	tb := w1 * b
	td := w1 * d
	a1, b1 := a+tb, a-tb
	c1, d1 := c+td, c-td
	tc := w2 * c1
	w3 := complex(-imag(w2), real(w2)) // +i*w2, exact
	te := w3 * d1
	return a1 + tc, b1 + te, a1 - tc, b1 - te
}

// r4StageTwScalar runs a whole fused stage over contiguous data:
// len(x) must be a multiple of 4h and len(tw1) == len(tw2) == h.
func r4StageTwScalar(x []complex128, h int, tw1, tw2 []complex128) {
	n := len(x)
	for base := 0; base < n; base += 4 * h {
		q := x[base : base+4*h]
		for j := 0; j < h; j++ {
			q[j], q[j+h], q[j+2*h], q[j+3*h] =
				r4BflyScalar(q[j], q[j+h], q[j+2*h], q[j+3*h], tw1[j], tw2[j])
		}
	}
}

func r4StageTwInvScalar(x []complex128, h int, tw1, tw2 []complex128) {
	n := len(x)
	for base := 0; base < n; base += 4 * h {
		q := x[base : base+4*h]
		for j := 0; j < h; j++ {
			q[j], q[j+h], q[j+2*h], q[j+3*h] =
				r4BflyInvScalar(q[j], q[j+h], q[j+2*h], q[j+3*h], tw1[j], tw2[j])
		}
	}
}

// r4ColsScalar applies one broadcast-twiddle butterfly across B
// parallel lanes (B = len(a); the 2-D column pass runs B adjacent
// columns per inner loop on an interleaved tile).
func r4ColsScalar(a, b, c, d []complex128, w1, w2 complex128) {
	for i := range a {
		a[i], b[i], c[i], d[i] = r4BflyScalar(a[i], b[i], c[i], d[i], w1, w2)
	}
}

// R4StageTwAt runs a fused radix-4 stage with per-butterfly twiddle
// tables over contiguous row-major data, dispatching on tier. len(x)
// must be a positive multiple of 4h; tw1/tw2 hold h twiddles each.
// inverse selects the backward butterfly (conjugated tables, +i fused
// factor).
func R4StageTwAt(tier SIMDTier, x []complex128, h int, tw1, tw2 []complex128, inverse bool) {
	if hasCBflyASM && tier >= SIMDAVX2 && h >= 2 && h%2 == 0 {
		if inverse {
			r4StageTwPairsInv(&x[0], len(x), h, &tw1[0], &tw2[0])
		} else {
			r4StageTwPairs(&x[0], len(x), h, &tw1[0], &tw2[0])
		}
		return
	}
	if inverse {
		r4StageTwInvScalar(x, h, tw1, tw2)
	} else {
		r4StageTwScalar(x, h, tw1, tw2)
	}
}

// R4ColsAt runs one broadcast-twiddle butterfly across the lanes of
// four equal-length slices, dispatching on tier. Lanes beyond the
// widest vector multiple finish on the bit-identical scalar loop.
func R4ColsAt(tier SIMDTier, a, b, c, d []complex128, w1, w2 complex128, inverse bool) {
	i := 0
	if hasCBflyASM && tier >= SIMDAVX2 {
		if np := len(a) / 2; np > 0 {
			if inverse {
				r4ColsPairsInv(&a[0], &b[0], &c[0], &d[0], np, w1, w2)
			} else {
				r4ColsPairs(&a[0], &b[0], &c[0], &d[0], np, w1, w2)
			}
			i = 2 * np
		}
	}
	if inverse {
		for ; i < len(a); i++ {
			a[i], b[i], c[i], d[i] = r4BflyInvScalar(a[i], b[i], c[i], d[i], w1, w2)
		}
	} else {
		r4ColsScalar(a[i:], b[i:], c[i:], d[i:], w1, w2)
	}
}

// AddSubLanes applies the twiddle-free radix-2 butterfly lane-wise:
// a[i], b[i] = a[i]+b[i], a[i]-b[i]. It is the leading stage of
// odd-log2 transforms; adds are order-independent so no vector form is
// needed for bitwise parity — the compiler's scalar loop is fine.
func AddSubLanes(a, b []complex128) {
	for i := range a {
		ai, bi := a[i], b[i]
		a[i], b[i] = ai+bi, ai-bi
	}
}

// Lane-parallel mixed-radix butterflies for the 2/3/5-smooth schedule
// of internal/fft. Every routine works on equally strided rows of w
// contiguous lanes: row j of the source is src[j*ss : j*ss+w], row j of
// the destination dst[j*ds : j*ds+w]. The same butterfly runs in every
// lane with one scalar twiddle per row (the decimation-in-time twiddle
// is applied to the inputs), so the rows are vector operands. dst may
// alias src row for row (in-place combine stages) or be disjoint (the
// leaf pass). inverse selects the backward direction: the caller passes
// conjugated twiddles and the quarter turns inside the butterflies
// flip from -i to +i.
//
// The AVX2 bodies (cbfly_amd64.s, two lanes per YMM) perform exactly
// the multiplies, adds and subtracts of the one-lane Go bodies below —
// no FMA on either side — so results are bitwise tier-independent.
// The explicit float64 conversions keep compilers that contract x*y+z
// (arm64) from fusing.

const (
	invSqrt2 = 0.7071067811865476 // sqrt(2)/2, |Re|=|Im| of the odd eighth roots
	sin60    = 0.8660254037844386 // sin(2*pi/3)
	cos72    = 0.30901699437494745
	cos144   = -0.8090169943749475
	sin72    = 0.9510565162951535
	sin144   = 0.5877852522924731
)

// quarter returns -i*z (forward) or +i*z (inverse); both are exact.
func quarter(z complex128, inverse bool) complex128 {
	if inverse {
		return complex(-imag(z), real(z))
	}
	return complex(imag(z), -real(z))
}

// scaleC multiplies both components of z by the real s.
func scaleC(s float64, z complex128) complex128 {
	return complex(float64(s*real(z)), float64(s*imag(z)))
}

// bfly2Rows .. dft8Rows are the one-lane-at-a-time bodies, lanes
// [i0, w): the whole row on the scalar tier, the odd last lane behind
// the assembled pair loops.

func bfly2Rows(dst []complex128, ds int, src []complex128, ss, i0, w int, tw complex128) {
	for i := i0; i < w; i++ {
		a, t := src[i], src[ss+i]*tw
		dst[i], dst[ds+i] = a+t, a-t
	}
}

func bfly3Rows(dst []complex128, ds int, src []complex128, ss, i0, w int, w1, w2 complex128, inverse bool) {
	for i := i0; i < w; i++ {
		a, b, c := src[i], src[ss+i]*w1, src[2*ss+i]*w2
		t1 := b + c
		t2 := a - scaleC(0.5, t1)
		t3 := scaleC(sin60, quarter(b-c, inverse))
		dst[i], dst[ds+i], dst[2*ds+i] = a+t1, t2+t3, t2-t3
	}
}

// dft8Rows is the 8-point decimation-in-time codelet: two 4-point
// transforms and a radix-2 combine whose only non-trivial twiddles are
// the odd eighth roots, applied as quarter turn, add and real scale.
func dft8Rows(dst []complex128, ds int, src []complex128, ss, i0, w int, inverse bool) {
	for i := i0; i < w; i++ {
		x0, x1, x2, x3 := src[i], src[ss+i], src[2*ss+i], src[3*ss+i]
		x4, x5, x6, x7 := src[4*ss+i], src[5*ss+i], src[6*ss+i], src[7*ss+i]
		t0, t1 := x0+x4, x0-x4
		t2, t3 := x2+x6, quarter(x2-x6, inverse)
		e0, e1, e2, e3 := t0+t2, t1+t3, t0-t2, t1-t3
		u0, u1 := x1+x5, x1-x5
		u2, u3 := x3+x7, quarter(x3-x7, inverse)
		o0, o1, o2, o3 := u0+u2, u1+u3, u0-u2, u1-u3
		o1 = scaleC(invSqrt2, o1+quarter(o1, inverse))
		o2 = quarter(o2, inverse)
		o3 = scaleC(invSqrt2, quarter(o3, inverse)-o3)
		dst[i], dst[4*ds+i] = e0+o0, e0-o0
		dst[ds+i], dst[5*ds+i] = e1+o1, e1-o1
		dst[2*ds+i], dst[6*ds+i] = e2+o2, e2-o2
		dst[3*ds+i], dst[7*ds+i] = e3+o3, e3-o3
	}
}

// vecLanes is how many of w lanes the assembled pair loops cover on
// tier: all whole pairs from AVX2 up, none otherwise.
func vecLanes(tier SIMDTier, w int) int {
	if hasCBflyASM && tier >= SIMDAVX2 {
		return w &^ 1
	}
	return 0
}

// Bfly2Lanes runs the radix-2 combine dst0, dst1 = a + tw*b, a - tw*b
// over w lanes of the rows a = src[0:], b = src[ss:].
func Bfly2Lanes(tier SIMDTier, dst []complex128, ds int, src []complex128, ss, w int, tw complex128) {
	i := vecLanes(tier, w)
	if i > 0 {
		bfly2Pairs(&dst[0], ds, &src[0], ss, i/2, tw)
	}
	bfly2Rows(dst, ds, src, ss, i, w, tw)
}

// Bfly3Lanes runs the radix-3 combine over w lanes of the rows src[0:],
// src[ss:], src[2*ss:], the second and third twiddled by w1 and w2.
func Bfly3Lanes(tier SIMDTier, dst []complex128, ds int, src []complex128, ss, w int, w1, w2 complex128, inverse bool) {
	i := vecLanes(tier, w)
	if i > 0 {
		bfly3Pairs(&dst[0], ds, &src[0], ss, i/2, w1, w2, inverse)
	}
	bfly3Rows(dst, ds, src, ss, i, w, w1, w2, inverse)
}

// Bfly5Lanes runs the radix-5 combine over w lanes of five rows, rows
// 1..4 twiddled by tw[0..3]. It has no assembled body: no subgrid or
// grid size in use has a factor of five.
func Bfly5Lanes(dst []complex128, ds int, src []complex128, ss, w int, tw *[4]complex128, inverse bool) {
	for i := 0; i < w; i++ {
		x0, x1, x2 := src[i], src[ss+i]*tw[0], src[2*ss+i]*tw[1]
		x3, x4 := src[3*ss+i]*tw[2], src[4*ss+i]*tw[3]
		t1, t3 := x1+x4, x1-x4
		t2, t4 := x2+x3, x2-x3
		m1 := x0 + (scaleC(cos72, t1) + scaleC(cos144, t2))
		m2 := x0 + (scaleC(cos144, t1) + scaleC(cos72, t2))
		n1 := quarter(scaleC(sin72, t3)+scaleC(sin144, t4), inverse)
		n2 := quarter(scaleC(sin144, t3)-scaleC(sin72, t4), inverse)
		dst[i] = x0 + (t1 + t2)
		dst[ds+i], dst[4*ds+i] = m1+n1, m1-n1
		dst[2*ds+i], dst[3*ds+i] = m2+n2, m2-n2
	}
}

// DFT8Lanes runs the twiddle-free 8-point leaf transform over w lanes
// of eight rows.
func DFT8Lanes(tier SIMDTier, dst []complex128, ds int, src []complex128, ss, w int, inverse bool) {
	i := vecLanes(tier, w)
	if i > 0 {
		dft8Pairs(&dst[0], ds, &src[0], ss, i/2, inverse)
	}
	dft8Rows(dst, ds, src, ss, i, w, inverse)
}

// ScaleLanes writes dst[i] = src[i] scaled by the real s0 (even i) or
// s1 (odd i): the output scale of a 2-D transform together with, when
// s1 = -s0, one row of the centering checkerboard.
func ScaleLanes(tier SIMDTier, dst, src []complex128, s0, s1 float64) {
	i := vecLanes(tier, len(src))
	if i > 0 {
		scalePairs(&dst[0], &src[0], i/2, s0, s1)
	}
	for ; i < len(src); i++ {
		s := s0
		if i&1 == 1 {
			s = s1
		}
		dst[i] = scaleC(s, src[i])
	}
}

// TransposeLanes writes dst[a*ds+b] = src[b*ss+a] for a < na, b < nb.
// With checker set, elements whose a+b+phase is odd are negated on the
// way (the centering checkerboard of a block that starts at row phase).
func TransposeLanes(tier SIMDTier, dst []complex128, ds int, src []complex128, ss, na, nb int, checker bool, phase int) {
	va, vb := vecLanes(tier, na), vecLanes(tier, nb)
	if va > 0 && vb > 0 {
		mode := 0
		if checker {
			mode = 1 + phase&1
		}
		transposePairs(&dst[0], ds, &src[0], ss, va/2, vb/2, mode)
	} else {
		va = 0
	}
	for a := 0; a < na; a++ {
		b := 0
		if a < va {
			b = vb
		}
		for ; b < nb; b++ {
			v := src[b*ss+a]
			if checker && (a+b+phase)&1 == 1 {
				v = -v
			}
			dst[a*ds+b] = v
		}
	}
}
