package wproj

import (
	"math"
	"testing"

	"repro/internal/fft"
	"repro/internal/grid"
	"repro/internal/sky"
	"repro/internal/taper"
	"repro/internal/xmath"
)

const (
	testGrid  = 256
	testImage = 0.25
)

func newTestGridder(t testing.TB, support int, wstep, maxW float64) *Gridder {
	t.Helper()
	g, err := NewGridder(Config{
		GridSize:     testGrid,
		ImageSize:    testImage,
		Support:      support,
		Oversampling: 8,
		WStepLambda:  wstep,
		MaxWLambda:   maxW,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func taperAt(l, m float64) float64 {
	half := testImage / 2
	return taper.Spheroidal(l/half) * taper.Spheroidal(m/half)
}

// modelGrid builds the uv grid of a rasterized model image.
func modelGrid(model sky.Model) *grid.Grid {
	img := model.Rasterize(testGrid, testImage)
	g := img.Clone()
	p := fft.NewPlan2D(testGrid, testGrid)
	for c := range g.Data {
		p.ForwardCentered(g.Data[c])
	}
	return g
}

func newRand(seed uint64) func() float64 {
	state := seed
	return func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11)/float64(1<<52) - 1
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{GridSize: 1, ImageSize: 0.1, Support: 8, Oversampling: 8},
		{GridSize: 64, ImageSize: 0, Support: 8, Oversampling: 8},
		{GridSize: 64, ImageSize: 0.1, Support: 7, Oversampling: 8},
		{GridSize: 64, ImageSize: 0.1, Support: 2, Oversampling: 8},
		{GridSize: 64, ImageSize: 0.1, Support: 8, Oversampling: 0},
		{GridSize: 64, ImageSize: 0.1, Support: 8, Oversampling: 8, WStepLambda: -1},
		{GridSize: 64, ImageSize: 0.1, Support: 8, Oversampling: 8, WStepLambda: 0.001, MaxWLambda: 1e6},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("config %d should fail", i)
		}
	}
}

func TestKernelBasicProperties(t *testing.T) {
	g := newTestGridder(t, 8, 50, 200)
	if g.NrWPlanes() != 6 { // planes 0..5 (maxW/step + 2)
		t.Fatalf("NrWPlanes = %d", g.NrWPlanes())
	}
	if g.KernelBytes() <= 0 {
		t.Fatal("KernelBytes must be positive")
	}
	if g.Support() != 8 {
		t.Fatal("Support mismatch")
	}
	// The w=0 kernel peak is at the center and (taper transform) is
	// concentrated: center tap dominates.
	k := g.kernels[0]
	center := k.data[k.center*k.fineN+k.center]
	if math.Abs(imag(center)) > 1e-6*math.Abs(real(center)) {
		t.Fatalf("w=0 kernel center not real: %v", center)
	}
	for dy := -2; dy <= 2; dy++ {
		for dx := -2; dx <= 2; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			v := k.tap(dx, dy, 0, 0, 8)
			if cAbs(v) > cAbs(center) {
				t.Fatalf("tap (%d,%d) exceeds center", dx, dy)
			}
		}
	}
}

func TestKernelSymmetry(t *testing.T) {
	g := newTestGridder(t, 8, 0, 0)
	k := g.kernels[0]
	for dy := -3; dy <= 3; dy++ {
		for dx := -3; dx <= 3; dx++ {
			a := k.tap(dx, dy, 0, 0, 8)
			b := k.tap(-dx, -dy, 0, 0, 8)
			if cAbs(a-b) > 1e-9*cAbs(a) {
				t.Fatalf("kernel not symmetric at (%d,%d)", dx, dy)
			}
		}
	}
}

func TestDegridMatchesMeasurementEquation(t *testing.T) {
	g := newTestGridder(t, 12, 0, 0)
	pix := testImage / testGrid
	model := sky.Model{{L: 18 * pix, M: -10 * pix, I: 1.5}}
	mg := modelGrid(model)

	rnd := newRand(7)
	tf := taperAt(model[0].L, model[0].M)
	var maxErr float64
	for i := 0; i < 500; i++ {
		u := 100 * rnd()
		v := 100 * rnd()
		got, ok := g.Degrid(u, v, 0, mg)
		if !ok {
			t.Fatal("visibility unexpectedly off grid")
		}
		want := (sky.Model{{L: model[0].L, M: model[0].M, I: model[0].I * tf}}).Predict(u, v, 0)
		if d := got.MaxAbsDiff(want) / (model[0].I * tf); d > maxErr {
			maxErr = d
		}
	}
	// A few percent is the expected accuracy of convolutional
	// degridding with 8x oversampling (kernel position quantization);
	// compare IDG's ~1e-5 in the core package tests — the paper's
	// Section IV notes IDG "exceeds the accuracy of traditional
	// gridding", which this pair of tests demonstrates.
	t.Logf("wproj degrid max rel err: %.3e", maxErr)
	if maxErr > 6e-2 {
		t.Fatalf("degrid error %.3e too large", maxErr)
	}
}

// gridAndImage grids nvis visibilities of the model and returns the
// normalized, taper-corrected dirty image.
func gridAndImage(t *testing.T, g *Gridder, model sky.Model, wAmp float64, nvis int) *grid.Grid {
	t.Helper()
	dst := grid.NewGrid(testGrid)
	rnd := newRand(13)
	count := 0
	for i := 0; i < nvis; i++ {
		u := 90 * rnd()
		v := 90 * rnd()
		w := wAmp * (rnd() + 1) / 2
		vis := model.Predict(u, v, w)
		if g.Grid(u, v, w, vis, dst) {
			count++
		}
	}
	if count < nvis*9/10 {
		t.Fatalf("too many visibilities off grid: %d of %d", count, nvis)
	}
	img := dst.Clone()
	p := fft.NewPlan2D(testGrid, testGrid)
	for c := range img.Data {
		p.InverseCentered(img.Data[c])
	}
	// Normalize: N^2/nvis, then taper correction.
	s := complex(float64(testGrid*testGrid)/float64(count), 0)
	w2d := taper.Window2D(testGrid, taper.Spheroidal)
	corr := taper.CorrectionMap(w2d, 1e-4)
	for c := range img.Data {
		for i := range img.Data[c] {
			img.Data[c][i] *= s * complex(corr[i], 0)
		}
	}
	return img
}

func peakI(img *grid.Grid) (int, int, float64) {
	si := sky.StokesI(img)
	best, bx, by := math.Inf(-1), 0, 0
	for i, v := range si {
		if v > best {
			best, bx, by = v, i%img.N, i/img.N
		}
	}
	return bx, by, best
}

func TestGriddingRecoversSource(t *testing.T) {
	g := newTestGridder(t, 12, 0, 0)
	pix := testImage / testGrid
	model := sky.Model{{L: 18 * pix, M: -10 * pix, I: 1}}
	img := gridAndImage(t, g, model, 0, 2000)
	x, y, peak := peakI(img)
	wantX, wantY := sky.LMToPixel(model[0].L, model[0].M, testGrid, testImage)
	if x != wantX || y != wantY {
		t.Fatalf("peak at (%d,%d), want (%d,%d)", x, y, wantX, wantY)
	}
	if math.Abs(peak-1) > 0.05 {
		t.Fatalf("peak %.4f, want ~1", peak)
	}
}

func TestWKernelsCorrectWTerm(t *testing.T) {
	pix := testImage / testGrid
	// An off-center source with substantial w: without w-kernels the
	// source smears; with them it is recovered.
	model := sky.Model{{L: 40 * pix, M: 28 * pix, I: 1}}
	const wAmp = 200

	corrected := gridAndImage(t, newTestGridder(t, 16, 25, wAmp), model, wAmp, 2000)
	_, _, peakC := peakI(corrected)

	uncorrected := gridAndImage(t, newTestGridder(t, 16, 0, 0), model, wAmp, 2000)
	_, _, peakU := peakI(uncorrected)

	t.Logf("w-projection: corrected peak %.4f, uncorrected %.4f", peakC, peakU)
	if math.Abs(peakC-1) > 0.08 {
		t.Fatalf("corrected peak %.4f, want ~1", peakC)
	}
	if peakU > 0.95*peakC {
		t.Fatalf("w-term did not degrade the uncorrected image (%.4f vs %.4f); test setup too weak", peakU, peakC)
	}
}

func TestGridDegridAdjoint(t *testing.T) {
	g := newTestGridder(t, 8, 50, 150)
	rnd := newRand(21)
	// Random vis at random (u, v, w).
	type visRec struct {
		u, v, w float64
		val     xmath.Matrix2
	}
	var recs []visRec
	for i := 0; i < 50; i++ {
		var m xmath.Matrix2
		for p := range m {
			m[p] = complex(rnd(), rnd())
		}
		recs = append(recs, visRec{u: 80 * rnd(), v: 80 * rnd(), w: 100 * rnd(), val: m})
	}
	gv := grid.NewGrid(testGrid)
	for _, r := range recs {
		g.Grid(r.u, r.v, r.w, r.val, gv)
	}
	// Random grid.
	h := grid.NewGrid(testGrid)
	for c := range h.Data {
		for i := range h.Data[c] {
			h.Data[c][i] = complex(rnd(), rnd())
		}
	}
	var lhs complex128
	for c := range gv.Data {
		for i := range gv.Data[c] {
			lhs += gv.Data[c][i] * cConj(h.Data[c][i])
		}
	}
	var rhs complex128
	for _, r := range recs {
		d, _ := g.Degrid(r.u, r.v, r.w, h)
		for p := 0; p < 4; p++ {
			rhs += r.val[p] * cConj(d[p])
		}
	}
	if d := cAbs(lhs-rhs) / cAbs(lhs); d > 1e-9 {
		t.Fatalf("adjoint violated: %v vs %v (rel %g)", lhs, rhs, d)
	}
}

func TestOffGridVisibilitiesRejected(t *testing.T) {
	g := newTestGridder(t, 8, 0, 0)
	dst := grid.NewGrid(testGrid)
	// u far outside the field.
	if g.Grid(1e6, 0, 0, xmath.Identity2(), dst) {
		t.Fatal("expected off-grid rejection")
	}
	if _, ok := g.Degrid(1e6, 0, 0, dst); ok {
		t.Fatal("expected off-grid rejection")
	}
}

func cAbs(c complex128) float64 { return math.Hypot(real(c), imag(c)) }

func cConj(c complex128) complex128 { return complex(real(c), -imag(c)) }
