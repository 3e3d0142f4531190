package xmath

import (
	"math"
	"math/rand"
	"testing"
)

// TestCvtF64F32MatchesGo: the vectorized narrowing must be bitwise
// identical to the Go conversion for ordinary values, specials and
// values that narrow to subnormals or infinities, at every length
// around the four-element vector width.
func TestCvtF64F32MatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	specials := []float64{
		0, math.Copysign(0, -1), 1, -1,
		math.Inf(1), math.Inf(-1), math.NaN(),
		math.MaxFloat64, -math.MaxFloat64, // overflow to +-Inf
		math.MaxFloat32 * (1 + 1e-8), // rounds to +Inf boundary case
		1e-40, -1e-40,                // float32 subnormals
		5e-324, math.MaxFloat32, -math.MaxFloat32,
		1 + 0x1p-24, 1 + 0x1.8p-24, // round-to-even ties
	}
	for n := 0; n <= 37; n++ {
		src := make([]float64, n)
		for i := range src {
			if i < len(specials) {
				src[i] = specials[i]
			} else {
				src[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(80)-40))
			}
		}
		dst := make([]float32, n)
		CvtF64F32(dst, src)
		for i, v := range src {
			want := float32(v)
			got := dst[i]
			if math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("n=%d: CvtF64F32(%g)[%d] = %b, want %b", n, v, i,
					math.Float32bits(got), math.Float32bits(want))
			}
		}
	}
}

// TestCvtF64F32LengthMismatch pins the contract violation panic.
func TestCvtF64F32LengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	CvtF64F32(make([]float32, 3), make([]float64, 4))
}
