package taper

import (
	"math"
	"testing"
)

func TestSpheroidalBasicShape(t *testing.T) {
	// Positive at center, decreasing towards the edge, zero outside.
	if Spheroidal(0) <= 0 {
		t.Fatal("spheroidal(0) must be positive")
	}
	prev := Spheroidal(0)
	for nu := 0.05; nu <= 1.0; nu += 0.05 {
		v := Spheroidal(nu)
		if v < 0 {
			t.Fatalf("spheroidal(%g) = %g < 0", nu, v)
		}
		if v > prev+1e-12 {
			t.Fatalf("spheroidal not monotone at nu=%g: %g > %g", nu, v, prev)
		}
		prev = v
	}
	if Spheroidal(1) > 1e-12 {
		t.Fatalf("spheroidal(1) = %g, want ~0", Spheroidal(1))
	}
	if Spheroidal(1.2) != 0 {
		t.Fatal("spheroidal outside support must be 0")
	}
}

func TestSpheroidalEven(t *testing.T) {
	for _, nu := range []float64{0.1, 0.3, 0.75, 0.9} {
		if Spheroidal(nu) != Spheroidal(-nu) {
			t.Fatalf("spheroidal not even at %g", nu)
		}
	}
}

func TestSpheroidalContinuousAtRegionBoundary(t *testing.T) {
	// The Schwab approximation switches regions at nu = 0.75; the two
	// branches must agree there to ~1e-6 (single-precision fit).
	lo := Spheroidal(0.75 - 1e-9)
	hi := Spheroidal(0.75 + 1e-9)
	if math.Abs(lo-hi) > 1e-5 {
		t.Fatalf("discontinuity at 0.75: %g vs %g", lo, hi)
	}
}

func TestSpheroidalKnownValues(t *testing.T) {
	// Reference values from the casacore/AIPS implementation of the
	// same rational approximation.
	if v := Spheroidal(0); math.Abs(v-1.0/(1.0/0.0820334300)*0.0820334300*1.0/1.0-0.0820334300/1.0) > 1 {
		_ = v // shape checked below; the closed form at 0 is p0(del)/q0(del)*(1-0)
	}
	// At nu=0: del = -0.5625. Evaluate the polynomial explicitly.
	del := -0.5625
	p := 8.203343e-2 + del*(-3.644705e-1+del*(6.278660e-1+del*(-5.335581e-1+del*2.312756e-1)))
	q := 1.0 + del*(8.212018e-1+del*2.078043e-1)
	want := p / q
	if got := Spheroidal(0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("spheroidal(0) = %g, want %g", got, want)
	}
}

func TestKaiserBesselShape(t *testing.T) {
	if math.Abs(KaiserBessel(0, 8)-1) > 1e-12 {
		t.Fatalf("KB(0) = %g, want 1", KaiserBessel(0, 8))
	}
	prev := 1.0
	for nu := 0.1; nu <= 1.0; nu += 0.1 {
		v := KaiserBessel(nu, 8)
		if v < 0 || v > prev+1e-12 {
			t.Fatalf("KB not monotone decreasing at %g", nu)
		}
		prev = v
	}
	if KaiserBessel(1.5, 8) != 0 {
		t.Fatal("KB outside support must be 0")
	}
}

func TestBesselI0(t *testing.T) {
	// Reference values (Abramowitz & Stegun tables).
	cases := []struct{ x, want float64 }{
		{0, 1},
		{1, 1.2660658777520084},
		{2, 2.2795853023360673},
		{5, 27.239871823604442},
	}
	for _, c := range cases {
		if got := besselI0(c.x); math.Abs(got-c.want) > 1e-6*c.want {
			t.Fatalf("I0(%g) = %g, want %g", c.x, got, c.want)
		}
	}
}

func TestWindow2DSeparableAndSymmetric(t *testing.T) {
	n := 24
	w := Window2D(n, Spheroidal)
	if len(w) != n*n {
		t.Fatalf("window length %d", len(w))
	}
	// Center is the maximum.
	center := w[(n/2)*n+n/2]
	for _, v := range w {
		if v > center+1e-12 {
			t.Fatalf("value %g exceeds center %g", v, center)
		}
	}
	// Mirror symmetry about the center (even sizes have one fewer
	// mirrored sample; compare x with n-x).
	for y := 1; y < n; y++ {
		for x := 1; x < n; x++ {
			if d := math.Abs(w[y*n+x] - w[(n-y)*n+(n-x)]); d > 1e-12 {
				t.Fatalf("asymmetry at (%d,%d): %g", x, y, d)
			}
		}
	}
	// Separability: w[y][x] * w[c][c] == w[y][c] * w[c][x] with c = n/2.
	c := n / 2
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			lhs := w[y*n+x] * w[c*n+c]
			rhs := w[y*n+c] * w[c*n+x]
			if math.Abs(lhs-rhs) > 1e-12 {
				t.Fatalf("not separable at (%d,%d)", x, y)
			}
		}
	}
}

func TestCorrectionMapInvertsInterior(t *testing.T) {
	n := 16
	w := Window2D(n, Spheroidal)
	corr := CorrectionMap(w, 1e-6)
	for i := range w {
		if w[i] > 1e-6 {
			if d := math.Abs(w[i]*corr[i] - 1); d > 1e-12 {
				t.Fatalf("correction not inverse at %d: %g", i, d)
			}
		} else if corr[i] != 0 {
			t.Fatalf("correction not blanked below floor at %d", i)
		}
	}
}

func TestWindow2DPanicsOnTinySize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Window2D(1, Spheroidal)
}
