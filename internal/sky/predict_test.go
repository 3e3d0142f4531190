package sky

import (
	"math"
	"testing"

	"repro/internal/xmath"
)

// tiers is every SIMD tier this host can execute.
func tiers() []xmath.SIMDTier {
	var ts []xmath.SIMDTier
	for t := xmath.SIMDScalar; t <= xmath.DetectedSIMD(); t++ {
		ts = append(ts, t)
	}
	return ts
}

func matrixBits(m xmath.Matrix2) (b [8]uint64) {
	for i, v := range m {
		b[2*i], b[2*i+1] = math.Float64bits(real(v)), math.Float64bits(imag(v))
	}
	return b
}

// sincosEdgeArgs are the arguments where an exact transcription of
// math.Sincos can go wrong: signed zeros and subnormals, the octant
// boundaries k*pi/4 and one ulp either side, the 2^29 switch to
// Payne-Hanek reduction, and the non-finite values.
func sincosEdgeArgs() []float64 {
	xs := []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 0x1p-1040, 0x1.fffffffffffffp-1023,
		1, 0.5, math.Pi, 2 * math.Pi, 1e4, 1e8, 1<<29 - 1, 0x1.fffffffffffffp28, 1 << 29,
		0x1.0000000000001p29, 1e10, 1e300, math.MaxFloat64, math.Inf(1), math.NaN(),
	}
	for k := 0; k <= 64; k++ {
		x := float64(k) * (math.Pi / 4)
		xs = append(xs, x, math.Nextafter(x, 0), math.Nextafter(x, math.Inf(1)))
		// The octant edge as the reduction sees it: x*(4/pi) at the
		// integer k, and one ulp either side.
		e := float64(k) / (4 / math.Pi)
		xs = append(xs, e, math.Nextafter(e, 0), math.Nextafter(e, math.Inf(1)))
	}
	for _, k := range []float64{1e3, 12345, 1 << 20, 1<<29/(math.Pi/4) - 1} {
		x := k * (math.Pi / 4)
		xs = append(xs, x, math.Nextafter(x, 0), math.Nextafter(x, math.Inf(1)))
	}
	out := xs
	for _, x := range xs {
		out = append(out, -x)
	}
	return out
}

// checkSincosLanes runs sincosLanes on xs in batches of length n, each
// fenced by canaries, and compares every result bitwise with
// math.Sincos.
func checkSincosLanes(t *testing.T, tier xmath.SIMDTier, xs []float64, n int) {
	t.Helper()
	const fence = 9
	canary := math.Float64frombits(0x7ff4dead0000beef)
	sin := make([]float64, n+2*fence)
	cos := make([]float64, n+2*fence)
	for lo := 0; lo < len(xs); lo += n {
		batch := xs[lo:min(lo+n, len(xs))]
		for i := range sin {
			sin[i], cos[i] = canary, canary
		}
		sincosLanes(tier, sin[fence:fence+len(batch)], cos[fence:fence+len(batch)], batch)
		for i := range sin {
			if k := i - fence; k < 0 || k >= len(batch) {
				if math.Float64bits(sin[i]) != math.Float64bits(canary) || math.Float64bits(cos[i]) != math.Float64bits(canary) {
					t.Fatalf("%v n=%d: write outside the batch at offset %d", tier, n, k)
				}
				continue
			}
			ws, wc := math.Sincos(batch[i-fence])
			if math.Float64bits(sin[i]) != math.Float64bits(ws) || math.Float64bits(cos[i]) != math.Float64bits(wc) {
				t.Fatalf("%v n=%d: Sincos(%v [%#x]) = (%v, %v), math.Sincos (%v, %v)",
					tier, n, batch[i-fence], math.Float64bits(batch[i-fence]), sin[i], cos[i], ws, wc)
			}
		}
	}
}

// TestSincosLanesBitwise pins the lane sincos to math.Sincos bit for
// bit at every executable tier: the edge arguments at every batch
// length 1..33 (so each sits in every lane and in the scalar tail), and
// 10^6 random |x| <= 1e4 in full-width groups.
func TestSincosLanesBitwise(t *testing.T) {
	edges := sincosEdgeArgs()
	random := make([]float64, 1_000_000)
	if testing.Short() {
		random = random[:100_000]
	}
	state := uint64(7)
	for i := range random {
		state = state*6364136223846793005 + 1442695040888963407
		random[i] = (float64(state>>11)/float64(1<<52) - 1) * 1e4
	}
	for _, tier := range tiers() {
		for n := 1; n <= 33; n++ {
			checkSincosLanes(t, tier, edges, n)
		}
		checkSincosLanes(t, tier, random, len(random))
	}
}

// TestPredictBatchMatchesPredict pins the batch predictor to
// Model.Predict bit for bit at every executable tier and batch length
// 1..33 (canary-fenced): the empty, one-source, polarised and
// phase-centre models, over random uvw mixed with the origin, signed
// zeros, huge and non-finite coordinates.
func TestPredictBatchMatchesPredict(t *testing.T) {
	models := map[string]Model{
		"empty":  nil,
		"one":    {{L: 0.01, M: -0.02, I: 1}},
		"centre": {{I: 2}, {L: 0.003, M: 0.001, I: 0.5}},
		"polarised": {{L: 0.013, M: -0.021, I: 1.5, Q: 0.2, U: -0.1, V: 0.05},
			{L: -0.2, M: 0.11, I: 0.3, Q: -0.3, U: 0.7, V: -0.9},
			{L: 0, M: 0, I: 2, V: 1}},
	}
	var us, vs, ws []float64
	state := uint64(11)
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return (float64(state>>11)/float64(1<<52) - 1) * 4000
	}
	negZero := math.Copysign(0, -1)
	for i := 0; i < 400; i++ {
		u, v, w := next(), next(), next()/10
		switch i % 37 {
		case 3:
			u, v, w = 0, 0, 0
		case 7:
			u, v, w = negZero, 0, negZero
		case 11:
			u, v, w = 1e12, -3e11, 7e9 // phases far beyond 2^29
		case 19:
			u = math.NaN()
		case 23:
			v = math.Inf(-1)
		case 29:
			u, v, w = 0, 1e-300, negZero
		}
		us, vs, ws = append(us, u), append(vs, v), append(ws, w)
	}
	const fence = 5
	canary := xmath.Matrix2{complex(math.Float64frombits(0x7ff4dead0000beef), -1), 3, 4, 5}
	for name, m := range models {
		p := m.Predictor()
		for _, tier := range tiers() {
			dst := make([]xmath.Matrix2, 33+2*fence)
			for n := 1; n <= 33; n++ {
				for lo := 0; lo < len(us); lo += n {
					hi := min(lo+n, len(us))
					for i := range dst {
						dst[i] = canary
					}
					p.predictBatchAt(tier, dst[fence:fence+hi-lo], us[lo:hi], vs[lo:hi], ws[lo:hi])
					for i := range dst {
						k := i - fence
						want := canary
						if k >= 0 && k < hi-lo {
							want = m.Predict(us[lo+k], vs[lo+k], ws[lo+k])
						}
						if matrixBits(dst[i]) != matrixBits(want) {
							t.Fatalf("%s %v n=%d sample %d: batch %x, want %x", name, tier, n, k, matrixBits(dst[i]), matrixBits(want))
						}
					}
				}
			}
		}
	}
}
