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
// The vector forms (cbfly_amd64.h, one text at YMM and ZMM width)
// multiply complexes with two duplicated-element multiplies against the
// twiddle and its pre-negated swap, then VADDPD — no FMA on any tier —
// so every product and sum is the same IEEE operation the Go scalar
// code performs and the vector results are bitwise identical to the
// fallback (the same convention as cvt_amd64.s / the sincos kernels).

// r4Bfly applies the fused butterfly to one element quad. The
// backward direction takes conjugated w1/w2 and the fused quarter-turn
// factor conjugates too: w3 = quarter(w2, inverse), -i*w2 forward,
// +i*w2 backward (exact: negate + swap).
func r4Bfly(a, b, c, d, w1, w2, w3 complex128) (oa, ob, oc, od complex128) {
	tb := w1 * b
	td := w1 * d
	a1, b1 := a+tb, a-tb
	c1, d1 := c+td, c-td
	tc := w2 * c1
	te := w3 * d1
	return a1 + tc, b1 + te, a1 - tc, b1 - te
}

// R4StageTwAt runs a fused radix-4 stage with per-butterfly twiddle
// tables over contiguous row-major data, dispatching on tier. len(x)
// must be a positive multiple of 4h; tw1/tw2 hold h twiddles each.
// inverse selects the backward butterfly (conjugated tables, +i fused
// factor).
func R4StageTwAt(tier SIMDTier, x []complex128, h int, tw1, tw2 []complex128, inverse bool) {
	if ymm(tier) && h%2 == 0 {
		r4StageTwW(&x[0], len(x), h, &tw1[0], &tw2[0], inverse, zmm(tier) && h%4 == 0)
		return
	}
	for base := 0; base < len(x); base += 4 * h {
		q := x[base : base+4*h]
		for j := 0; j < h; j++ {
			q[j], q[j+h], q[j+2*h], q[j+3*h] =
				r4Bfly(q[j], q[j+h], q[j+2*h], q[j+3*h], tw1[j], tw2[j], quarter(tw2[j], inverse))
		}
	}
}

// R4ColsStage runs one fused radix-4 stage down the columns of the
// row-major n x w matrix x: butterfly t of every 4h-row block combines
// rows t, t+h, t+2h, t+3h with tw1[t], tw2[t] broadcast over the w
// lanes.
func R4ColsStage(tier SIMDTier, x []complex128, n, h, w int, tw1, tw2 []complex128, inverse bool) {
	i := vecLanes(tier, w)
	for base := 0; base < n && i < w; base += 4 * h {
		for t := 0; t < h; t++ {
			w1, w2, w3 := tw1[t], tw2[t], quarter(tw2[t], inverse)
			for j := (base+t)*w + i; j < (base+t+1)*w; j++ {
				x[j], x[j+h*w], x[j+2*h*w], x[j+3*h*w] = r4Bfly(x[j], x[j+h*w], x[j+2*h*w], x[j+3*h*w], w1, w2, w3)
			}
		}
	}
	if i > 0 {
		_ = x[n*w-1]
		r4ColsStageW(&x[0], n, h, w, i, &tw1[0], &tw2[0], inverse, zmm(tier))
	}
}

// AddSubLanes applies the twiddle-free radix-2 butterfly lane-wise:
// a[i], b[i] = x[i]+y[i], x[i]-y[i] for i < len(x); a and b may be x
// and y. It is the leading stage of odd-log2 column transforms, run
// as the column tile is gathered.
func AddSubLanes(tier SIMDTier, a, b, x, y []complex128) {
	i := vecLanes(tier, len(x))
	for j := i; j < len(x); j++ {
		xj, yj := x[j], y[j]
		a[j], b[j] = xj+yj, xj-yj
	}
	if i > 0 {
		addSubW(&a[0], &b[0], &x[0], &y[0], i, zmm(tier))
	}
}

// PermGather writes dst[i] = src[perm[i]] for i < len(perm), negated
// when neg is set; with addSub each pair (i, i+1) then becomes a+b,
// a-b — the twiddle-free radix-2 stage (len(perm) even). It is the
// bit-reversed gather of a power-of-two row.
func PermGather(tier SIMDTier, dst, src []complex128, perm []int32, neg, addSub bool) {
	if len(perm) == 0 {
		return
	}
	if ymm(tier) {
		_ = src[len(src)-1]
		permGather(&dst[:len(perm)][0], &src[0], &perm[0], len(perm), neg, addSub)
		return
	}
	switch {
	case addSub:
		for i := 0; i < len(perm); i += 2 {
			a, b := src[perm[i]], src[perm[i+1]]
			if neg {
				a, b = -a, -b
			}
			dst[i], dst[i+1] = a+b, a-b
		}
	case neg:
		for i, pi := range perm {
			dst[i] = -src[pi]
		}
	default:
		for i, pi := range perm {
			dst[i] = src[pi]
		}
	}
}

// DFT4Blocks runs the twiddle-free first radix-4 stage: a plain
// 4-point DFT on every aligned quad of x (len(x) a multiple of 4).
func DFT4Blocks(tier SIMDTier, x []complex128, inverse bool) {
	switch {
	case len(x) == 0:
	case ymm(tier):
		dft4W(&x[0], len(x), inverse, zmm(tier) && len(x)%8 == 0)
	default:
		dft4Go(x, inverse)
	}
}

func dft4Go(x []complex128, inverse bool) {
	for i := 0; i < len(x); i += 4 {
		a, b, c, d := x[i], x[i+1], x[i+2], x[i+3]
		a1, b1 := a+b, a-b
		c1, d1 := c+d, c-d
		e := quarter(d1, inverse)
		x[i], x[i+1], x[i+2], x[i+3] = a1+c1, b1+e, a1-c1, b1-e
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
// The vector bodies (two lanes per YMM, four per ZMM) perform exactly
// the multiplies, adds and subtracts of the one-lane Go bodies below —
// no FMA anywhere — so results are bitwise tier-independent.
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
// [i0, w): the whole row on the scalar tier, the lanes the vector form
// leaves behind it otherwise.

func bfly2Rows(dst []complex128, ds int, src []complex128, ss, i0, w int, tw complex128) {
	for i := i0; i < w; i++ {
		a, t := src[i], src[ss+i]*tw
		dst[i], dst[ds+i] = a+t, a-t
	}
}

func bfly3Rows(dst []complex128, ds int, src []complex128, ss, i0, w int, w1, w2 complex128, inverse bool) {
	for i := i0; i < w; i++ {
		dst[i], dst[ds+i], dst[2*ds+i] = bfly3(src[i], src[ss+i], src[2*ss+i], w1, w2, inverse)
	}
}

func bfly3(a, b, c, w1, w2 complex128, inverse bool) (complex128, complex128, complex128) {
	b, c = b*w1, c*w2
	t1 := b + c
	t2 := a - scaleC(0.5, t1)
	t3 := scaleC(sin60, quarter(b-c, inverse))
	return a + t1, t2 + t3, t2 - t3
}

// bfly3RowsT and bfly3RowsScaled are bfly3Rows storing lane i of
// output row j at dst[j*ds + i*dl], or scaled as ScaleLanes does it
// with the factors of row 1 swapped when alt is set.
func bfly3RowsT(dst []complex128, ds, dl int, src []complex128, ss, i0, w int, w1, w2 complex128, inverse bool) {
	for i := i0; i < w; i++ {
		dst[i*dl], dst[ds+i*dl], dst[2*ds+i*dl] = bfly3(src[i], src[ss+i], src[2*ss+i], w1, w2, inverse)
	}
}

func bfly3RowsScaled(dst []complex128, ds int, src []complex128, ss, i0, w int, w1, w2 complex128, inverse bool, s0, s1 float64, alt bool) {
	for i := i0; i < w; i++ {
		o0, o1, o2 := bfly3(src[i], src[ss+i], src[2*ss+i], w1, w2, inverse)
		sa, sb := laneScale(i, s0, s1), laneScale(i, s0, s1)
		if alt {
			sb = laneScale(i+1, s0, s1)
		}
		dst[i], dst[ds+i], dst[2*ds+i] = scaleC(sa, o0), scaleC(sb, o1), scaleC(sa, o2)
	}
}

// laneScale is the factor of lane i: s0 for even i, s1 for odd.
func laneScale(i int, s0, s1 float64) float64 {
	if i&1 == 1 {
		return s1
	}
	return s0
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

// ymm and zmm report whether tier runs the vector forms at all (YMM
// from avx2 up) and at ZMM width.
func ymm(tier SIMDTier) bool { return hasCBflyASM && tier >= SIMDAVX2 }
func zmm(tier SIMDTier) bool { return hasCBflyASM && tier >= SIMDAVX512 }

// vecLanes is how many of w lanes one vector call covers on tier: all of
// them at ZMM (the last quad under an opmask), the whole pairs at YMM,
// none on the scalar tier. wholeLanes is the same for the forms without
// a tail: whole quads at ZMM. The lanes are independent: the routines
// below run the Go body over the lanes past the vector ones first and
// make the vector call last, so that nothing stays live across it.
func vecLanes(tier SIMDTier, w int) int {
	switch {
	case zmm(tier):
		return w
	case ymm(tier):
		return w &^ 1
	}
	return 0
}

func wholeLanes(tier SIMDTier, w int) int {
	if zmm(tier) {
		return w &^ 3
	}
	return vecLanes(tier, w)
}

// Bfly2Lanes runs the radix-2 combine dst0, dst1 = a + tw*b, a - tw*b
// over w lanes of the rows a = src[0:], b = src[ss:].
func Bfly2Lanes(tier SIMDTier, dst []complex128, ds int, src []complex128, ss, w int, tw complex128) {
	i := vecLanes(tier, w)
	bfly2Rows(dst, ds, src, ss, i, w, tw)
	if i > 0 {
		bfly2W(&dst[0], ds, &src[0], ss, i, tw, zmm(tier))
	}
}

// Bfly3Lanes runs the radix-3 combine over w lanes of the rows src[0:],
// src[ss:], src[2*ss:], the second and third twiddled by w1 and w2.
func Bfly3Lanes(tier SIMDTier, dst []complex128, ds int, src []complex128, ss, w int, w1, w2 complex128, inverse bool) {
	i := vecLanes(tier, w)
	bfly3Rows(dst, ds, src, ss, i, w, w1, w2, inverse)
	if i > 0 {
		bfly3W(&dst[0], ds, &src[0], ss, i, w1, w2, inverse, zmm(tier))
	}
}

// Bfly3StageScaled runs the last radix-3 combine stage of a 3m-point
// transform over w lanes out of the work matrix src (rows ss apart):
// butterfly k combines rows k, k+m, k+2m with tw[2k], tw[2k+1]. Result
// row q lands at dst[q*ds:], every element multiplied as ScaleLanes
// does it: by s0 (even lane) or s1 (odd lane) on even rows, by the
// swapped pair on odd ones — a 2-D transform's output scale with its
// centering checkerboard. dst must not overlap src unless it is src
// row for row (ds == ss).
func Bfly3StageScaled(tier SIMDTier, dst []complex128, ds int, src []complex128, ss, w, m int, tw []complex128, inverse bool, s0, s1 float64) {
	alt := m&1 == 1
	i := vecLanes(tier, w)
	for k := 0; k < m && i < w; k++ {
		a, b := s0, s1
		if k&1 == 1 {
			a, b = s1, s0
		}
		bfly3RowsScaled(dst[k*ds:], m*ds, src[k*ss:], m*ss, i, w, tw[2*k], tw[2*k+1], inverse, a, b, alt)
	}
	if i > 0 {
		_, _ = dst[(3*m-1)*ds+i-1], src[(3*m-1)*ss+i-1]
		bfly3StageScaledW(&dst[0], ds, &src[0], ss, i, m, &tw[0], inverse, s0, s1, alt, zmm(tier))
	}
}

// Bfly3StageT is Bfly3StageScaled unscaled and stored transposed: lane
// i of result row q lands at dst[q + i*dl]. dst must not overlap src.
func Bfly3StageT(tier SIMDTier, dst []complex128, dl int, src []complex128, ss, w, m int, tw []complex128, inverse bool) {
	i := wholeLanes(tier, w)
	for k := 0; k < m && i < w; k++ {
		bfly3RowsT(dst[k:], m, dl, src[k*ss:], m*ss, i, w, tw[2*k], tw[2*k+1], inverse)
	}
	if i > 0 {
		_, _ = dst[3*m-1+(i-1)*dl], src[(3*m-1)*ss+i-1]
		bfly3StageTW(&dst[0], dl, &src[0], ss, i, m, &tw[0], inverse, zmm(tier))
	}
}

// Bfly5Lanes runs the radix-5 combine over w lanes of five rows, rows
// 1..4 twiddled by tw[0..3]. It has no assembled body: no subgrid or
// grid size in use has a factor of five.
func Bfly5Lanes(dst []complex128, ds int, src []complex128, ss, w int, tw *[4]complex128, inverse bool) {
	for i := 0; i < w; i++ {
		o := bfly5(src, ss, i, tw, inverse)
		for j, v := range o {
			dst[j*ds+i] = v
		}
	}
}

// Bfly5StageScaled and Bfly5StageT are the radix-5 forms of
// Bfly3StageScaled and Bfly3StageT (butterfly k combines rows k + j*m,
// j < 5, with tw[4k..4k+3]).
func Bfly5StageScaled(dst []complex128, ds int, src []complex128, ss, w, m int, tw []complex128, inverse bool, s0, s1 float64) {
	for k := 0; k < m; k++ {
		t := (*[4]complex128)(tw[4*k:])
		for i := 0; i < w; i++ {
			o := bfly5(src[k*ss:], m*ss, i, t, inverse)
			for j, v := range o {
				s := laneScale(i+k+j*m, s0, s1)
				dst[(k+j*m)*ds+i] = scaleC(s, v)
			}
		}
	}
}

func Bfly5StageT(dst []complex128, dl int, src []complex128, ss, w, m int, tw []complex128, inverse bool) {
	for k := 0; k < m; k++ {
		t := (*[4]complex128)(tw[4*k:])
		for i := 0; i < w; i++ {
			o := bfly5(src[k*ss:], m*ss, i, t, inverse)
			for j, v := range o {
				dst[k+j*m+i*dl] = v
			}
		}
	}
}

func bfly5(src []complex128, ss, i int, tw *[4]complex128, inverse bool) [5]complex128 {
	x0, x1, x2 := src[i], src[ss+i]*tw[0], src[2*ss+i]*tw[1]
	x3, x4 := src[3*ss+i]*tw[2], src[4*ss+i]*tw[3]
	t1, t3 := x1+x4, x1-x4
	t2, t4 := x2+x3, x2-x3
	m1 := x0 + (scaleC(cos72, t1) + scaleC(cos144, t2))
	m2 := x0 + (scaleC(cos144, t1) + scaleC(cos72, t2))
	n1 := quarter(scaleC(sin72, t3)+scaleC(sin144, t4), inverse)
	n2 := quarter(scaleC(sin144, t3)-scaleC(sin72, t4), inverse)
	return [5]complex128{x0 + (t1 + t2), m1 + n1, m2 + n2, m2 - n2, m1 - n1}
}

// DFT8Lanes runs the twiddle-free 8-point leaf transform over w lanes
// of eight rows.
func DFT8Lanes(tier SIMDTier, dst []complex128, ds int, src []complex128, ss, w int, inverse bool) {
	i := vecLanes(tier, w)
	dft8Rows(dst, ds, src, ss, i, w, inverse)
	if i > 0 {
		dft8W(&dst[0], ds, &src[0], ss, i, inverse, zmm(tier))
	}
}

// ScaleLanes writes dst[i] = src[i] scaled by the real s0 (even i) or
// s1 (odd i): the output scale of a 2-D transform together with, when
// s1 = -s0, one row of the centering checkerboard.
func ScaleLanes(tier SIMDTier, dst, src []complex128, s0, s1 float64) {
	i := vecLanes(tier, len(src))
	for j := i; j < len(src); j++ {
		dst[j] = scaleC(laneScale(j, s0, s1), src[j])
	}
	if i > 0 {
		scaleW(&dst[0], &src[0], i, s0, s1, zmm(tier))
	}
}

// TransposeLanes writes dst[a*ds+b] = src[b*ss+a] for a < na, b < nb.
// With checker set, elements whose a+b+phase is odd are negated on the
// way (the centering checkerboard of a block that starts at row phase).
func TransposeLanes(tier SIMDTier, dst []complex128, ds int, src []complex128, ss, na, nb int, checker bool, phase int) {
	mode := 0
	if checker {
		mode = 1 + phase&1
	}
	va, vb := wholeLanes(tier, na), wholeLanes(tier, nb)
	if vb == 0 {
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
	if va > 0 {
		transposeW(&dst[0], ds, &src[0], ss, va, vb, mode, zmm(tier))
	}
}
