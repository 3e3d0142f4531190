package sky

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/xmath"
)

func TestBrightnessOfUnpolarizedSource(t *testing.T) {
	s := PointSource{I: 2}
	b := s.Brightness()
	want := xmath.Matrix2{2, 0, 0, 2}
	if b.MaxAbsDiff(want) != 0 {
		t.Fatalf("brightness = %v", b)
	}
}

func TestBrightnessStokesRoundtrip(t *testing.T) {
	s := PointSource{I: 3, Q: 0.5, U: -0.25, V: 0.125}
	b := s.Brightness()
	// I = (XX+YY)/2, Q = (XX-YY)/2, U = Re(XY), V = Im(XY).
	if i := real(b[0]+b[3]) / 2; math.Abs(i-3) > 1e-15 {
		t.Fatalf("I = %g", i)
	}
	if q := real(b[0]-b[3]) / 2; math.Abs(q-0.5) > 1e-15 {
		t.Fatalf("Q = %g", q)
	}
	if u := real(b[1]); math.Abs(u+0.25) > 1e-15 {
		t.Fatalf("U = %g", u)
	}
	if v := imag(b[1]); math.Abs(v-0.125) > 1e-15 {
		t.Fatalf("V = %g", v)
	}
	// Brightness matrices are Hermitian.
	if b.MaxAbsDiff(b.Hermitian()) != 0 {
		t.Fatal("brightness not Hermitian")
	}
}

func TestNCoordinate(t *testing.T) {
	if N(0, 0) != 0 {
		t.Fatal("n(0,0) != 0")
	}
	// n = 1 - sqrt(1 - l^2 - m^2)
	l, m := 0.3, -0.4
	want := 1 - math.Sqrt(1-l*l-m*m)
	if d := math.Abs(N(l, m) - want); d > 1e-15 {
		t.Fatalf("n differs by %g", d)
	}
	// Small-angle accuracy: n ~ (l^2+m^2)/2.
	if d := math.Abs(N(1e-8, 0) - 0.5e-16); d > 1e-24 {
		t.Fatalf("small-angle n inaccurate: %g", d)
	}
}

func TestNOutsideSpherePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	N(1, 1)
}

func TestPredictZeroBaseline(t *testing.T) {
	// At u=v=w=0 the visibility is the total brightness.
	m := Model{{L: 0.01, M: 0.02, I: 1}, {L: -0.03, M: 0, I: 2.5}}
	v := m.Predict(0, 0, 0)
	if d := cmplx.Abs(v[0] - 3.5); d > 1e-12 {
		t.Fatalf("XX at origin = %v", v[0])
	}
}

func TestPredictPhaseOfOffsetSource(t *testing.T) {
	m := Model{{L: 0.01, M: -0.005, I: 1}}
	u, v, w := 100.0, -50.0, 10.0
	vis := m.Predict(u, v, w)
	phase := -2 * math.Pi * (u*0.01 + v*(-0.005) + w*N(0.01, -0.005))
	want := cmplx.Exp(complex(0, phase))
	if d := cmplx.Abs(vis[0] - want); d > 1e-12 {
		t.Fatalf("vis = %v, want %v", vis[0], want)
	}
}

func TestPredictIsLinearInFlux(t *testing.T) {
	m1 := Model{{L: 0.01, M: 0.01, I: 1}}
	m2 := Model{{L: 0.01, M: 0.01, I: 3}}
	a := m1.Predict(123, -45, 6)
	b := m2.Predict(123, -45, 6)
	if d := b.MaxAbsDiff(a.Scale(3)); d > 1e-12 {
		t.Fatalf("flux scaling violated: %g", d)
	}
}

func TestPredictConjugateSymmetry(t *testing.T) {
	// For an unpolarized real sky, V(-u,-v,-w) = conj(V(u,v,w)).
	m := RandomField(10, 0.05, 3)
	a := m.Predict(250, 80, -30)
	b := m.Predict(-250, -80, 30)
	if d := b.MaxAbsDiff(a.Conj()); d > 1e-10 {
		t.Fatalf("conjugate symmetry violated: %g", d)
	}
}

func TestPredictWithIdentityATermsMatchesPlain(t *testing.T) {
	m := RandomField(5, 0.05, 4)
	id := func(l, mm float64) (xmath.Matrix2, xmath.Matrix2) {
		return xmath.Identity2(), xmath.Identity2()
	}
	a := m.Predict(10, 20, 0.5)
	b := m.PredictWithATerms(10, 20, 0.5, id)
	if d := a.MaxAbsDiff(b); d > 1e-12 {
		t.Fatalf("identity A-terms changed prediction by %g", d)
	}
}

func TestPredictWithScalarATerm(t *testing.T) {
	// A scalar gain g applied at both stations scales V by |g|^2 for
	// real g (g * V * g^H).
	m := Model{{L: 0.02, M: 0.01, I: 1}}
	g := xmath.Identity2().Scale(2)
	at := func(l, mm float64) (xmath.Matrix2, xmath.Matrix2) { return g, g }
	a := m.Predict(5, 5, 0)
	b := m.PredictWithATerms(5, 5, 0, at)
	if d := b.MaxAbsDiff(a.Scale(4)); d > 1e-12 {
		t.Fatalf("scalar gain mismatch: %g", d)
	}
}

func TestRandomFieldDeterministicAndBounded(t *testing.T) {
	a := RandomField(100, 0.08, 7)
	b := RandomField(100, 0.08, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("RandomField not deterministic")
		}
		if r := math.Hypot(a[i].L, a[i].M); r > 0.08 {
			t.Fatalf("source %d outside field: r=%g", i, r)
		}
		if a[i].I <= 0 {
			t.Fatalf("source %d has non-positive flux", i)
		}
	}
}

func TestRasterizeAndPixelMapping(t *testing.T) {
	n := 64
	imageSize := 0.1
	m := Model{{L: 0.02, M: -0.01, I: 2}}
	img := m.Rasterize(n, imageSize)
	x, y := LMToPixel(0.02, -0.01, n, imageSize)
	if got := real(img.At(0, y, x)); math.Abs(got-2) > 1e-12 {
		t.Fatalf("rasterized flux = %g at (%d,%d)", got, x, y)
	}
	// Pixel -> lm -> pixel roundtrip.
	l, mm := PixelToLM(x, y, n, imageSize)
	x2, y2 := LMToPixel(l, mm, n, imageSize)
	if x2 != x || y2 != y {
		t.Fatalf("pixel mapping roundtrip (%d,%d) -> (%d,%d)", x, y, x2, y2)
	}
}

func TestRasterizeDropsOutOfField(t *testing.T) {
	m := Model{{L: 0.2, M: 0, I: 1}} // outside a 0.1 field
	img := m.Rasterize(32, 0.1)
	if img.Norm2() != 0 {
		t.Fatal("out-of-field source rasterized")
	}
}

func TestStokesIExtraction(t *testing.T) {
	m := Model{{L: 0, M: 0, I: 4, Q: 1}}
	img := m.Rasterize(16, 0.1)
	si := StokesI(img)
	center := 8*16 + 8
	if math.Abs(si[center]-4) > 1e-12 {
		t.Fatalf("Stokes I = %g, want 4", si[center])
	}
}

func TestTotalFlux(t *testing.T) {
	m := Model{{I: 1}, {I: 2.5}}
	if m.TotalFlux() != 3.5 {
		t.Fatalf("total flux = %g", m.TotalFlux())
	}
}

// TestPredictorMatchesPredictBitwise pins the hoisted predictor to
// Model.Predict bit for bit — polarised sources, large and tiny uvw,
// and the empty model — which is what lets filled data sets keep
// their golden hashes.
func TestPredictorMatchesPredictBitwise(t *testing.T) {
	models := []Model{
		nil,
		{{L: 0.01, M: -0.02, I: 1}},
		{{L: 0.013, M: -0.021, I: 1.5, Q: 0.2, U: -0.1, V: 0.05},
			{L: -0.2, M: 0.11, I: 0.3, Q: -0.3, U: 0.7, V: -0.9},
			{L: 0, M: 0, I: 2, V: 1}},
	}
	bits := func(m xmath.Matrix2) (b [8]uint64) {
		for i, v := range m {
			b[2*i], b[2*i+1] = math.Float64bits(real(v)), math.Float64bits(imag(v))
		}
		return b
	}
	for mi, m := range models {
		p := m.Predictor()
		state := uint64(mi + 1)
		next := func() float64 {
			state = state*6364136223846793005 + 1442695040888963407
			return (float64(state>>11)/float64(1<<52) - 1) * 4000
		}
		for i := 0; i < 2000; i++ {
			u, v, w := next(), next(), next()/10
			if i%97 == 0 {
				u, v, w = 0, 1e-300, -0.0
			}
			if got, want := bits(p.Predict(u, v, w)), bits(m.Predict(u, v, w)); got != want {
				t.Fatalf("model %d at (%g, %g, %g): predictor %x, Predict %x", mi, u, v, w, got, want)
			}
		}
	}
}
