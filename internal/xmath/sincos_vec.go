package xmath

import "math"

// Lane-parallel sine/cosine. SincosVec evaluates the same Cody-Waite
// reduction + fdlibm minimax polynomials as SincosFast, but across
// SIMD lanes: four float64 lanes per iteration on the AVX2 tier, eight
// on the AVX-512 tier. This is the paper's vectorized-trigonometry
// ingredient (its Haswell kernels lean on SVML's packed sine/cosine):
// the subgrid kernels need one sin/cos pair per (pixel, time step) and
// evaluate them in batches.
//
// Accuracy: the documented bound of SincosFast extends to the lane
// version — a maximum error of 4 float32 ulps (4 * 6e-8) against
// math.Sincos over the kernels' argument range |x| <= ~1e4 (property
// tested per tier). The lane arithmetic fuses the reduction and the
// polynomial steps, so individual results differ from scalar
// SincosFast in the last float64 bits while staying inside the same
// bound.
//
// Determinism: every tier computes the exact same IEEE-754 operation
// sequence per element (sincosFastFMA below is that sequence in
// portable Go, the asm lanes mirror it operation for operation), so
// results are bitwise identical across tiers, platforms, batch sizes
// and lane positions. Kernel outputs therefore do not depend on the
// IDG_SIMD override or on how a caller chops its batches.

// SincosVec evaluates sin[i], cos[i] = sin(x[i]), cos(x[i]) for every
// element of x, lane-parallel on the active SIMD tier. sin and cos
// must be at least len(x) long; sin, cos and x must not overlap.
func SincosVec(sin, cos, x []float64) {
	if len(sin) < len(x) || len(cos) < len(x) {
		panic("xmath: SincosVec output shorter than input")
	}
	sincosVecTier(ActiveSIMD(), sin, cos, x)
}

// SincosVecAt is SincosVec pinned to an explicit tier, clamped to the
// detected one (running a wider tier than the host supports would
// fault). Results are bitwise identical at every tier; the point is
// that callers which resolve a dispatch tier once per kernel set (see
// internal/core) skip the per-call active-tier lookup and honor a
// forced tier for performance measurements. With float32 sin and cos
// the lanes narrow each result as they store it (VCVTPD2PS, round to
// nearest even): bitwise CvtF64F32 of the float64 results, without
// staging them.
func SincosVecAt[F float32 | float64](tier SIMDTier, sin, cos []F, x []float64) {
	if len(sin) < len(x) || len(cos) < len(x) {
		panic("xmath: SincosVec output shorter than input")
	}
	if tier > detectedSIMD {
		tier = detectedSIMD
	}
	sincosVecTier(tier, sin, cos, x)
}

// sincosFastFMA is the exact per-element operation sequence of the
// vector lanes, in portable Go: SincosFast's reduction and polynomials
// with every mul-add pair fused, round-to-even in the reduction (the
// SIMD rounding mode), and branch-free sign application. It is the
// scalar tail of the vector paths and the entire scalar tier, which is
// what makes SincosVec bitwise tier-independent. math.FMA and
// math.RoundToEven compile to single instructions on amd64/arm64.
func sincosFastFMA(x float64) (float64, float64) {
	const (
		s1 = -1.66666666666666324348e-01
		s2 = 8.33333333332248946124e-03
		s3 = -1.98412698298579493134e-04
		s4 = 2.75573137070700676789e-06
		s5 = -2.50507602534068634195e-08
		s6 = 1.58969099521155010221e-10
		c1 = 4.16666666666666019037e-02
		c2 = -1.38888888888741095749e-03
		c3 = 2.48015872894767294178e-05
		c4 = -2.75573143513906633035e-07
		c5 = 2.08757232129817482790e-09
		c6 = -1.13596475577881948265e-11
	)
	k := math.RoundToEven(x * invTwoPi)
	r := math.FMA(-k, twoPiA, x)
	r = math.FMA(-k, twoPiB, r)
	// Fold into [-pi/2, pi/2]; both conditions test the unfolded r and
	// are mutually exclusive, matching the blend order of the asm.
	folded := false
	if r > math.Pi/2 {
		r = math.Pi - r
		folded = true
	}
	if r < -math.Pi/2 {
		r = -math.Pi - r
		folded = true
	}
	z := r * r
	p := s6
	p = math.FMA(p, z, s5)
	p = math.FMA(p, z, s4)
	p = math.FMA(p, z, s3)
	p = math.FMA(p, z, s2)
	p = math.FMA(p, z, s1)
	sin := math.FMA(p, r*z, r)
	q := c6
	q = math.FMA(q, z, c5)
	q = math.FMA(q, z, c4)
	q = math.FMA(q, z, c3)
	q = math.FMA(q, z, c2)
	q = math.FMA(q, z, c1)
	cos := math.FMA(q, z*z, 1-0.5*z)
	if folded {
		cos = -cos
	}
	return sin, cos
}

// sincosVecScalar is the portable element loop shared by the scalar
// tier and the vector paths' tails.
func sincosVecScalar[F float32 | float64](sin, cos []F, x []float64) {
	for i, v := range x {
		s, c := sincosFastFMA(v)
		sin[i], cos[i] = F(s), F(c)
	}
}
