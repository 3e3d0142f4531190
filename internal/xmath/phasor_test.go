package xmath

import (
	"math"
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
