package xmath

import (
	"math"
	"math/rand"
	"testing"
)

func TestUniformSpacing(t *testing.T) {
	uniform := []float64{150e6, 150.2e6, 150.4e6, 150.6e6}
	if d, ok := UniformSpacing(uniform, 1e-12); !ok || math.Abs(d-0.2e6) > 1e-3 {
		t.Fatalf("uniform channels not detected: d=%g ok=%v", d, ok)
	}
	nonuniform := []float64{150e6, 150.2e6, 150.5e6, 150.6e6}
	if _, ok := UniformSpacing(nonuniform, 1e-12); ok {
		t.Fatal("non-uniform channels detected as uniform")
	}
	if _, ok := UniformSpacing([]float64{150e6}, 1e-12); !ok {
		t.Fatal("single channel is trivially uniform")
	}
	if _, ok := UniformSpacing([]float64{150e6, 151e6}, 1e-12); !ok {
		t.Fatal("two channels are trivially uniform")
	}
	// Constant sequences (zero spread) are uniform.
	if d, ok := UniformSpacing([]float64{5, 5, 5}, 1e-12); !ok || d != 0 {
		t.Fatalf("constant sequence: d=%g ok=%v", d, ok)
	}
}

// TestPhasorRecurrenceWithinBound isolates the recurrence from the
// evaluator: seeded from math.Sincos and rotated with the kernels' fused
// step (sin' = sin*dcos + cos*dsin, cos' = cos*dcos - sin*dsin, one
// rounding per product-sum), a phasor stays within PhasorErrorBound of
// math.Sincos at base + k*delta for a whole resync chunk, over the
// kernels' argument range.
func TestPhasorRecurrenceWithinBound(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2000; trial++ {
		base := (r.Float64()*2 - 1) * kernelArgRange
		delta := (r.Float64()*2 - 1) * 0.5
		last := base + float64(DefaultPhasorResync-1)*delta
		bound := PhasorErrorBound(DefaultPhasorResync, max(math.Abs(base), math.Abs(last)))
		ds, dc := math.Sincos(delta)
		s, c := math.Sincos(base)
		for k := 1; k < DefaultPhasorResync; k++ {
			s, c = math.FMA(s, dc, c*ds), math.FMA(c, dc, -(s*ds))
			ws, wc := math.Sincos(base + float64(k)*delta)
			if d := max(math.Abs(s-ws), math.Abs(c-wc)); d > bound {
				t.Fatalf("base %g delta %g step %d: recurrence off by %g (bound %g)", base, delta, k, d, bound)
			}
		}
	}
}
