package xmath

import "testing"

func TestFloat32AccumBound(t *testing.T) {
	if got := Float32AccumBound(0, 1); got != 8*Eps32 {
		t.Fatalf("n=0 bound = %g", got)
	}
	// Monotone in both n and sumAbs, linear in sumAbs.
	if Float32AccumBound(100, 1) <= Float32AccumBound(10, 1) {
		t.Fatal("bound not monotone in n")
	}
	if got, want := Float32AccumBound(10, 6), 3*Float32AccumBound(10, 2); got != want {
		t.Fatalf("bound not linear in sumAbs: %g vs %g", got, want)
	}
	// Sanity scale: 1000 unit terms stay well below one part in a
	// thousand of the sum's magnitude budget.
	if b := Float32AccumBound(1000, 1000); b > 1 {
		t.Fatalf("bound implausibly loose: %g", b)
	}
}

func TestFloat32PhasorDriftBound(t *testing.T) {
	if got := Float32PhasorDriftBound(0); got != 0 {
		t.Fatalf("k=0 drift = %g", got)
	}
	if got, want := Float32PhasorDriftBound(DefaultPhasorResync), float64(DefaultPhasorResync)*6*Eps32; got != want {
		t.Fatalf("drift bound = %g, want %g", got, want)
	}
	// The float32 drift must dominate the float64 one at equal k.
	if Float32PhasorDriftBound(64) <= PhasorDriftBound(64) {
		t.Fatal("float32 drift bound should exceed the float64 bound")
	}
}
