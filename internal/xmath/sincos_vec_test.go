package xmath

import (
	"math"
	"math/rand"
	"testing"
)

// hostTiers enumerates every tier this host can actually execute, so
// the per-tier property tests below cover the full dispatch matrix on
// capable hardware and degrade to the scalar row elsewhere. Forcing a
// tier through IDG_SIMD exercises the same per-tier entry points.
func hostTiers() []SIMDTier {
	tiers := []SIMDTier{SIMDScalar}
	for t := SIMDAVX2; t <= DetectedSIMD(); t++ {
		tiers = append(tiers, t)
	}
	return tiers
}

// TestSincosVecAccuracy: the documented SincosFast bound — 4 float32
// ulps against math.Sincos over the kernel argument range — extends to
// every lane width.
func TestSincosVecAccuracy(t *testing.T) {
	const n = 200001
	const limit = 1e4
	x := make([]float64, n)
	for i := range x {
		x[i] = -limit + 2*limit*float64(i)/float64(n-1)
	}
	sin := make([]float64, n)
	cos := make([]float64, n)
	for _, tier := range hostTiers() {
		sincosVecTier(tier, sin, cos, x)
		maxErr := 0.0
		for i, v := range x {
			sr, cr := math.Sincos(v)
			if d := math.Abs(sin[i] - sr); d > maxErr {
				maxErr = d
			}
			if d := math.Abs(cos[i] - cr); d > maxErr {
				maxErr = d
			}
		}
		if maxErr > 4*6e-8 {
			t.Errorf("tier %v: max error %g exceeds 4 float32 ulps", tier, maxErr)
		}
	}
}

// TestSincosVecTierBitwise: every tier, every batch size and every
// lane position produces bit-identical results to the portable scalar
// sequence — the property that makes kernel output independent of the
// IDG_SIMD override and of batch chopping.
func TestSincosVecTierBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 24, 40, 47, 64, 253} {
		x := make([]float64, n)
		for i := range x {
			x[i] = (rng.Float64() - 0.5) * 2e4
		}
		// Sprinkle exact fold/reduction boundaries.
		if n >= 4 {
			x[0], x[1], x[2], x[3] = 0, math.Pi/2, -math.Pi/2, math.Pi
		}
		wantSin := make([]float64, n)
		wantCos := make([]float64, n)
		for i, v := range x {
			wantSin[i], wantCos[i] = sincosFastFMA(v)
		}
		sin := make([]float64, n)
		cos := make([]float64, n)
		for _, tier := range hostTiers() {
			for i := range sin {
				sin[i], cos[i] = math.NaN(), math.NaN()
			}
			sincosVecTier(tier, sin, cos, x)
			for i := range x {
				if math.Float64bits(sin[i]) != math.Float64bits(wantSin[i]) ||
					math.Float64bits(cos[i]) != math.Float64bits(wantCos[i]) {
					t.Fatalf("tier %v, n=%d, i=%d, x=%g: got (%x, %x), want (%x, %x)",
						tier, n, i, x[i],
						math.Float64bits(sin[i]), math.Float64bits(cos[i]),
						math.Float64bits(wantSin[i]), math.Float64bits(wantCos[i]))
				}
			}
		}
	}
}

// TestSincosVecNarrowMatchesCvt: the float32 form of SincosVecAt is
// CvtF64F32 of the float64 form, bit for bit, on every tier and at
// every length from empty past eight octs (odd and even oct and quad
// counts, every tail), and stores nothing past the input's length.
func TestSincosVecNarrowMatchesCvt(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := make([]float64, 67)
	for i := range x {
		x[i] = (rng.Float64() - 0.5) * 2e4
	}
	x[0], x[1], x[2] = math.Pi/2, -math.Pi/2, 1e-30
	for _, tier := range hostTiers() {
		for n := 0; n <= len(x); n++ {
			s64, c64 := make([]float64, n), make([]float64, n)
			SincosVecAt(tier, s64, c64, x[:n])
			want, wantC := make([]float32, n), make([]float32, n)
			CvtF64F32(want, s64)
			CvtF64F32(wantC, c64)
			s32, c32 := make([]float32, n+1), make([]float32, n+1)
			s32[n], c32[n] = -1, -1
			SincosVecAt(tier, s32[:n], c32[:n], x[:n])
			if s32[n] != -1 || c32[n] != -1 {
				t.Fatalf("tier %v, n=%d: stored past the input", tier, n)
			}
			for i := 0; i < n; i++ {
				if math.Float32bits(s32[i]) != math.Float32bits(want[i]) ||
					math.Float32bits(c32[i]) != math.Float32bits(wantC[i]) {
					t.Fatalf("tier %v, n=%d, i=%d: got (%x, %x), want (%x, %x)", tier, n, i,
						math.Float32bits(s32[i]), math.Float32bits(c32[i]),
						math.Float32bits(want[i]), math.Float32bits(wantC[i]))
				}
			}
		}
	}
}

// TestSincosVecMatchesScalarFastClass: the fused sequence stays in the
// same error class as scalar SincosFast (they differ only in the last
// float64 bits, far below the float32-ulp bound both document).
func TestSincosVecMatchesScalarFastClass(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20000; i++ {
		x := (rng.Float64() - 0.5) * 2e4
		s1, c1 := sincosFastFMA(x)
		s2, c2 := SincosFast(x)
		if math.Abs(s1-s2) > 1e-9 || math.Abs(c1-c2) > 1e-9 {
			t.Fatalf("x=%g: fused (%g, %g) vs scalar (%g, %g)", x, s1, c1, s2, c2)
		}
	}
}

// TestPhasorUnitModulus: the phasors exp(i*x) the tiles build from the
// vector evaluator stay on the unit circle across the kernel's range.
func TestPhasorUnitModulus(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	x := make([]float64, 1000)
	for i := range x {
		x[i] = (r.Float64()*2 - 1) * kernelArgRange
	}
	sin := make([]float64, len(x))
	cos := make([]float64, len(x))
	SincosVec(sin, cos, x)
	for i := range x {
		p := complex(cos[i], sin[i])
		if d := math.Abs(real(p)*real(p) + imag(p)*imag(p) - 1); d > 1e-7 {
			t.Fatalf("|phasor|^2-1 = %g at x=%g", d, x[i])
		}
	}
}

// TestSincosFastFixedWidths: batches of exactly one quad (4) and one oct
// (8) through the public entry point give every lane the fused scalar
// sequence's bits, on every tier the host runs.
func TestSincosFastFixedWidths(t *testing.T) {
	x8 := make([]float64, 8)
	for i := range x8 {
		x8[i] = float64(i)*1.7 - 5
	}
	for _, tier := range hostTiers() {
		for _, x := range [][]float64{x8[:4], x8} {
			sin := make([]float64, len(x))
			cos := make([]float64, len(x))
			SincosVecAt(tier, sin, cos, x)
			for i := range x {
				ws, wc := sincosFastFMA(x[i])
				if sin[i] != ws || cos[i] != wc {
					t.Fatalf("tier %v, width %d, lane %d: got (%g, %g), want (%g, %g)",
						tier, len(x), i, sin[i], cos[i], ws, wc)
				}
			}
		}
	}
}

func TestSincosVecShortOutputPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for short output slice")
		}
	}()
	SincosVec(make([]float64, 2), make([]float64, 4), make([]float64, 4))
}

func benchSincosVec(b *testing.B, tier SIMDTier, n int) {
	if tier > DetectedSIMD() {
		b.Skipf("tier %v not supported here", tier)
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i) * 0.37
	}
	sin := make([]float64, n)
	cos := make([]float64, n)
	b.SetBytes(int64(8 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sincosVecTier(tier, sin, cos, x)
	}
}

func BenchmarkSincosVecScalar(b *testing.B) { benchSincosVec(b, SIMDScalar, 192) }
func BenchmarkSincosVecAVX2(b *testing.B)   { benchSincosVec(b, SIMDAVX2, 192) }
func BenchmarkSincosVecAVX512(b *testing.B) { benchSincosVec(b, SIMDAVX512, 192) }

// BenchmarkSincosVecAVX512Float32 is the AVX-512 form that narrows as
// it stores, at the float32 degridder's batch of 192 arguments.
func BenchmarkSincosVecAVX512Float32(b *testing.B) {
	if SIMDAVX512 > DetectedSIMD() {
		b.Skip("avx512 not supported here")
	}
	x := make([]float64, 192)
	for i := range x {
		x[i] = float64(i) * 0.37
	}
	sin, cos := make([]float32, len(x)), make([]float32, len(x))
	b.SetBytes(int64(8 * len(x)))
	for i := 0; i < b.N; i++ {
		sincosVecTier(SIMDAVX512, sin, cos, x)
	}
}
