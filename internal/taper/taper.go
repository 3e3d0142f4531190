// Package taper provides the anti-aliasing tapering functions applied
// to the subgrids in the image domain. The paper uses the prolate
// spheroidal wave function ("such as a spheroidal, which is used in our
// case", Section IV); this package implements the classic Schwab
// rational approximation of the zeroth-order prolate spheroidal
// (m = 6, alpha = 1) used across radio astronomy (AIPS, casacore, the
// ASTRON IDG implementation), plus a Kaiser-Bessel alternative used by
// the ablation benchmarks.
package taper

import (
	"fmt"
	"math"
)

// Spheroidal evaluates the prolate spheroidal taper at |nu| <= 1,
// where nu is the fractional distance from the image center (nu = 0)
// to the image edge (nu = 1). Values outside [-1, 1] return 0.
func Spheroidal(nu float64) float64 {
	nu = math.Abs(nu)
	// Schwab's two-interval rational approximation.
	var (
		p   [5]float64
		q   [3]float64
		end float64
	)
	switch {
	case nu < 0.75:
		p = [5]float64{8.203343e-2, -3.644705e-1, 6.278660e-1, -5.335581e-1, 2.312756e-1}
		q = [3]float64{1.0, 8.212018e-1, 2.078043e-1}
		end = 0.75
	case nu <= 1.0:
		p = [5]float64{4.028559e-3, -3.697768e-2, 1.021332e-1, -1.201436e-1, 6.412774e-2}
		q = [3]float64{1.0, 9.599102e-1, 2.918724e-1}
		end = 1.0
	default:
		return 0
	}
	nusq := nu * nu
	del := nusq - end*end
	delPow := del
	top := p[0]
	for k := 1; k < 5; k++ {
		top += p[k] * delPow
		delPow *= del
	}
	bot := q[0]
	delPow = del
	for k := 1; k < 3; k++ {
		bot += q[k] * delPow
		delPow *= del
	}
	if bot == 0 {
		return 0
	}
	return (1 - nusq) * (top / bot)
}

// KaiserBessel evaluates a Kaiser-Bessel taper with shape parameter
// beta at |nu| <= 1 (0 outside), normalized to 1 at nu = 0.
func KaiserBessel(nu, beta float64) float64 {
	nu = math.Abs(nu)
	if nu > 1 {
		return 0
	}
	return besselI0(beta*math.Sqrt(1-nu*nu)) / besselI0(beta)
}

// besselI0 is the modified Bessel function of the first kind, order 0,
// via the Abramowitz & Stegun polynomial approximations (9.8.1/9.8.2).
func besselI0(x float64) float64 {
	ax := math.Abs(x)
	if ax < 3.75 {
		t := x / 3.75
		t *= t
		return 1 + t*(3.5156229+t*(3.0899424+t*(1.2067492+
			t*(0.2659732+t*(0.0360768+t*0.0045813)))))
	}
	t := 3.75 / ax
	return math.Exp(ax) / math.Sqrt(ax) *
		(0.39894228 + t*(0.01328592+t*(0.00225319+t*(-0.00157565+
			t*(0.00916281+t*(-0.02057706+t*(0.02635537+
				t*(-0.01647633+t*0.00392377))))))))
}

// Window2D builds an n x n image-domain taper map from the 1-D window
// f: out[y*n+x] = f(nu(x)) * f(nu(y)) with nu = (i - n/2) / (n/2).
func Window2D(n int, f func(nu float64) float64) []float64 {
	if n < 2 {
		panic(fmt.Sprintf("taper: window size %d too small", n))
	}
	line := make([]float64, n)
	half := float64(n) / 2
	for i := 0; i < n; i++ {
		line[i] = f(float64(i-n/2) / half)
	}
	out := make([]float64, n*n)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			out[y*n+x] = line[y] * line[x]
		}
	}
	return out
}

// CorrectionMap returns the map that undoes the taper in the final
// image: 1/taper where the taper is above floor, 0 outside (those
// pixels carry no usable signal and are conventionally blanked).
func CorrectionMap(t []float64, floor float64) []float64 {
	out := make([]float64, len(t))
	for i, v := range t {
		if v > floor {
			out[i] = 1 / v
		}
	}
	return out
}
