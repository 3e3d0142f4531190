package xmath

import (
	"math"
	"math/rand"
	"testing"
)

// The paper (Section VI-C) uses arguments in [-1e4, 1e4] and requires a
// maximum error of a few float32 ulps (4 ulps SVML medium accuracy on
// the CPU, 2 ulps for the GPU special function units). The float32 ulp
// near 1.0 is ~6e-8, so the thresholds below correspond to those bounds
// expressed as absolute error of values in [-1, 1].

const kernelArgRange = 1e4

// maxSincosError samples sin/cos over [-limit, limit] at n points and
// returns the maximum absolute deviation of f from math.Sincos.
func maxSincosError(f func(float64) (float64, float64), limit float64, n int) float64 {
	maxErr := 0.0
	for i := 0; i < n; i++ {
		x := -limit + 2*limit*float64(i)/float64(n-1)
		s, c := f(x)
		sr, cr := math.Sincos(x)
		maxErr = max(maxErr, math.Abs(s-sr), math.Abs(c-cr))
	}
	return maxErr
}

// TestSincosFastAccuracy: well inside the paper's 4 float32 ulps, and
// inside the 2.6e-10 the kernel tests of internal/core allow each side
// of a comparison for the evaluator (measured 2.52e-10, at the ends of
// the polynomials' [-pi/2, pi/2]).
func TestSincosFastAccuracy(t *testing.T) {
	err := maxSincosError(SincosFast, kernelArgRange, 200001)
	if err > 2.6e-10 {
		t.Fatalf("SincosFast max error %g exceeds 2.6e-10 (4 float32 ulps: %g)", err, 4*6e-8)
	}
}

func TestSincosPythagoreanIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 10000; i++ {
		x := (r.Float64()*2 - 1) * kernelArgRange
		s, c := SincosFast(x)
		if d := math.Abs(s*s + c*c - 1); d > 1e-7 {
			t.Fatalf("sin^2+cos^2-1 = %g at x=%g", d, x)
		}
	}
}

func TestSincosSymmetry(t *testing.T) {
	// sin is odd, cos is even; the fast evaluator must preserve this for
	// the gridder/degridder conjugate symmetry to hold.
	for i := 0; i < 1000; i++ {
		x := float64(i) * 0.0173
		s1, c1 := SincosFast(x)
		s2, c2 := SincosFast(-x)
		if math.Abs(s1+s2) > 1e-15 || math.Abs(c1-c2) > 1e-15 {
			t.Fatalf("symmetry violated at x=%g", x)
		}
	}
}

func TestReduceTwoPiRange(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 100000; i++ {
		x := (r.Float64()*2 - 1) * kernelArgRange
		red := reduceTwoPi(x)
		if red < -math.Pi-1e-9 || red > math.Pi+1e-9 {
			t.Fatalf("reduction out of range: x=%g -> %g", x, red)
		}
		// sin must be invariant under the reduction.
		if d := math.Abs(math.Sin(x) - math.Sin(red)); d > 1e-10 {
			t.Fatalf("reduction changed the angle: x=%g err=%g", x, d)
		}
	}
}

func BenchmarkSincosFast(b *testing.B) {
	var s, c float64
	for i := 0; i < b.N; i++ {
		ds, dc := SincosFast(float64(i) * 0.0137)
		s += ds
		c += dc
	}
	sinkFloat = s + c
}

var sinkFloat float64
