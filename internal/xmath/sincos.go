package xmath

import "math"

// The gridder and degridder kernels evaluate one sine/cosine pair per
// visibility-pixel combination; the paper treats the speed of this
// evaluation as the property that separates the three platforms
// (software SVML/VML on Haswell, native ALU functions on Fiji, hardware
// special function units on Pascal; internal/arch models that axis).
// The kernels here have one evaluator, the software equivalent of the
// SVML "medium accuracy" mode: SincosFast, a minimax polynomial after a
// Cody-Waite range reduction, valid over the kernels' argument range
// (|x| <= ~1e4, Section VI-C of the paper). The tiles evaluate it in
// lanes (SincosVec, sincos_vec.go); the reference kernels call it
// directly.

const (
	twoPi    = 2 * math.Pi
	invTwoPi = 1 / twoPi
	// Cody-Waite split of 2*pi for accurate range reduction of
	// moderate arguments (|x| <= ~1e6) without extended precision.
	twoPiA = 6.28318530717958623200e+00 // high part of 2*pi
	twoPiB = 2.44929359829470635446e-16 // low part of 2*pi
)

// reduceTwoPi reduces x into [-pi, pi) using a Cody-Waite split.
func reduceTwoPi(x float64) float64 {
	k := math.Round(x * invTwoPi)
	r := x - k*twoPiA
	r -= k * twoPiB
	return r
}

// sinPoly evaluates sin(r) for r in [-pi/2, pi/2] with a degree-13
// odd minimax polynomial (coefficients from the standard fdlibm kernel).
func sinPoly(r float64) float64 {
	const (
		s1 = -1.66666666666666324348e-01
		s2 = 8.33333333332248946124e-03
		s3 = -1.98412698298579493134e-04
		s4 = 2.75573137070700676789e-06
		s5 = -2.50507602534068634195e-08
		s6 = 1.58969099521155010221e-10
	)
	z := r * r
	return r + r*z*(s1+z*(s2+z*(s3+z*(s4+z*(s5+z*s6)))))
}

// cosPoly evaluates cos(r) for r in [-pi/2, pi/2] with a degree-14
// even minimax polynomial (coefficients from the standard fdlibm kernel).
func cosPoly(r float64) float64 {
	const (
		c1 = 4.16666666666666019037e-02
		c2 = -1.38888888888741095749e-03
		c3 = 2.48015872894767294178e-05
		c4 = -2.75573143513906633035e-07
		c5 = 2.08757232129817482790e-09
		c6 = -1.13596475577881948265e-11
	)
	z := r * r
	return 1 - 0.5*z + z*z*(c1+z*(c2+z*(c3+z*(c4+z*(c5+z*c6)))))
}

// SincosFast evaluates sin(x), cos(x) with polynomial kernels after
// range reduction. Its accuracy is well below one float32 ulp, matching
// the "medium accuracy" (4 ulps in float32) SVML mode the paper selects.
func SincosFast(x float64) (float64, float64) {
	r := reduceTwoPi(x) // r in [-pi, pi)
	// Fold into [-pi/2, pi/2] tracking quadrant sign flips.
	sign := 1.0
	switch {
	case r > math.Pi/2:
		r = math.Pi - r
		sign = -1.0
	case r < -math.Pi/2:
		r = -math.Pi - r
		sign = -1.0
	}
	return sinPoly(r), sign * cosPoly(r)
}
