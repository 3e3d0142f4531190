package clean

import (
	"errors"
	"math"
	"testing"
)

// gaussianPSF builds a normalized synthetic PSF with Gaussian main
// lobe and low sinc-like sidelobes.
func gaussianPSF(n int, sigma float64) []float64 {
	psf := make([]float64, n*n)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			dx, dy := float64(x-n/2), float64(y-n/2)
			r2 := dx*dx + dy*dy
			v := math.Exp(-r2 / (2 * sigma * sigma))
			// Small oscillatory sidelobes.
			r := math.Sqrt(r2)
			if r > 3*sigma {
				v += 0.02 * math.Sin(r) / (1 + 0.2*r)
			}
			psf[y*n+x] = v
		}
	}
	return psf
}

// dirtyFrom builds dirty = sum of flux * PSF shifted to the source
// positions.
func dirtyFrom(psf []float64, n int, comps []Component) []float64 {
	img := make([]float64, n*n)
	for _, c := range comps {
		subtractShiftedPSF(img, psf, n, c.X, c.Y, -c.Flux)
	}
	return img
}

func TestHogbomSingleSource(t *testing.T) {
	n := 64
	psf := gaussianPSF(n, 1.5)
	truth := []Component{{X: 40, Y: 25, Flux: 2.0}}
	dirty := dirtyFrom(psf, n, truth)

	res, err := Hogbom(dirty, psf, n, Params{Gain: 0.2, MaxIterations: 500, Threshold: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	// The model must concentrate the flux at the source pixel.
	got := res.Model[25*n+40]
	if math.Abs(got-2.0) > 0.05 {
		t.Fatalf("model flux at source = %.4f, want 2.0", got)
	}
	if res.FinalPeak > 1e-2 {
		t.Fatalf("residual peak %.4g too high", res.FinalPeak)
	}
}

func TestHogbomTwoSources(t *testing.T) {
	n := 64
	psf := gaussianPSF(n, 1.2)
	truth := []Component{{X: 20, Y: 20, Flux: 1.0}, {X: 45, Y: 38, Flux: 0.5}}
	dirty := dirtyFrom(psf, n, truth)
	res, err := Hogbom(dirty, psf, n, Params{Gain: 0.1, MaxIterations: 2000, Threshold: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range truth {
		got := res.Model[c.Y*n+c.X]
		if math.Abs(got-c.Flux) > 0.1*c.Flux {
			t.Fatalf("flux at (%d,%d) = %.4f, want %.4f", c.X, c.Y, got, c.Flux)
		}
	}
}

func TestThresholdStopsEarly(t *testing.T) {
	n := 32
	psf := gaussianPSF(n, 1.0)
	dirty := dirtyFrom(psf, n, []Component{{X: 16, Y: 16, Flux: 1}})
	res, err := Hogbom(dirty, psf, n, Params{Gain: 0.1, MaxIterations: 10000, Threshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalPeak > 0.5 {
		t.Fatalf("stopped above threshold: %g", res.FinalPeak)
	}
	if res.Iterations > 20 {
		t.Fatalf("too many iterations for a 0.5 threshold: %d", res.Iterations)
	}
}

func TestResidualPlusModelConservesFluxForDeltaPSF(t *testing.T) {
	// With a delta PSF, CLEAN is exact: model + residual == dirty and
	// the residual goes to ~0.
	n := 16
	psf := make([]float64, n*n)
	psf[(n/2)*n+n/2] = 1
	dirty := make([]float64, n*n)
	dirty[5*n+7] = 1.5
	dirty[9*n+3] = -0.7
	res, err := Hogbom(dirty, psf, n, Params{Gain: 0.5, MaxIterations: 1000, Threshold: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range dirty {
		if d := math.Abs(res.Model[i] + res.Residual[i] - dirty[i]); d > 1e-9 {
			t.Fatalf("model+residual != dirty at %d (%g)", i, d)
		}
	}
	if res.FinalPeak > 1e-8 {
		t.Fatalf("delta-PSF CLEAN did not converge: %g", res.FinalPeak)
	}
}

func TestIterationsReduceResidualMonotonically(t *testing.T) {
	n := 32
	psf := gaussianPSF(n, 1.0)
	dirty := dirtyFrom(psf, n, []Component{{X: 10, Y: 12, Flux: 1}})
	prev := math.Inf(1)
	for _, iters := range []int{1, 5, 25, 125} {
		res, err := Hogbom(dirty, psf, n, Params{Gain: 0.1, MaxIterations: iters, Threshold: 0})
		if err != nil {
			t.Fatal(err)
		}
		if res.FinalPeak > prev+1e-12 {
			t.Fatalf("residual grew at %d iterations: %g > %g", iters, res.FinalPeak, prev)
		}
		prev = res.FinalPeak
	}
}

func TestParamsValidation(t *testing.T) {
	bad := []Params{
		{Gain: 0, MaxIterations: 10},
		{Gain: 1.5, MaxIterations: 10},
		{Gain: 0.1, MaxIterations: 0},
		{Gain: 0.1, MaxIterations: 10, Threshold: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("params %d should fail", i)
		}
	}
}

func TestHogbomInputValidation(t *testing.T) {
	p := Params{Gain: 0.1, MaxIterations: 10}
	if _, err := Hogbom(make([]float64, 10), make([]float64, 16), 4, p); err == nil {
		t.Fatal("expected size mismatch error")
	}
	// Unnormalized PSF.
	psf := make([]float64, 16)
	psf[2*4+2] = 5
	if _, err := Hogbom(make([]float64, 16), psf, 4, p); err == nil {
		t.Fatal("expected PSF normalization error")
	}
}

// TestHogbomRefusesSidelobeAboveCentre: a pixel of |PSF| 4.08 against
// a centre of 1 (taper correction made one of an unstacked wide-field
// PSF's edge pixels that bright) makes the subtractions raise the
// residual peak instead of lowering it, so CLEAN refuses the PSF with
// ErrPSFSidelobe; a sidelobe equal to the centre is still accepted.
func TestHogbomRefusesSidelobeAboveCentre(t *testing.T) {
	const n = 64
	psf := gaussianPSF(n, 2)
	side := (n/2)*n + n/2 + 9
	psf[side] = -4.08
	dirty := dirtyFrom(gaussianPSF(n, 2), n, []Component{{X: 30, Y: 20, Flux: 1}})
	p := Params{Gain: 0.2, MaxIterations: 500, Threshold: 0.01}
	res, err := Hogbom(dirty, psf, n, p)
	if !errors.Is(err, ErrPSFSidelobe) {
		t.Fatalf("Hogbom returned %v (final peak %v), want ErrPSFSidelobe", err, finalPeak(res))
	}
	psf[side] = -psf[(n/2)*n+n/2]
	if _, err := Hogbom(dirty, psf, n, p); err != nil {
		t.Fatalf("a sidelobe equal to the centre: %v", err)
	}
}

func finalPeak(res *Result) any {
	if res == nil {
		return nil
	}
	return res.FinalPeak
}

func TestRestoreAddsBeam(t *testing.T) {
	n := 32
	res := &Result{
		Components: []Component{{X: 16, Y: 16, Flux: 1}},
		Residual:   make([]float64, n*n),
	}
	out := Restore(res, n, 2.0)
	if math.Abs(out[16*n+16]-1) > 1e-12 {
		t.Fatalf("restored peak %.4f, want 1", out[16*n+16])
	}
	// Beam falls off.
	if out[16*n+18] >= out[16*n+16] || out[16*n+18] <= 0 {
		t.Fatal("beam profile wrong")
	}
}

func TestRestorePanicsOnBadSigma(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Restore(&Result{Residual: make([]float64, 4)}, 2, 0)
}

func TestMergedComponents(t *testing.T) {
	r := &Result{Components: []Component{
		{X: 1, Y: 2, Flux: 0.5}, {X: 1, Y: 2, Flux: 0.25}, {X: 3, Y: 4, Flux: 1},
	}}
	merged := r.MergedComponents()
	if len(merged) != 2 {
		t.Fatalf("got %d merged components, want 2", len(merged))
	}
	for _, c := range merged {
		if c.X == 1 && c.Y == 2 && math.Abs(c.Flux-0.75) > 1e-12 {
			t.Fatalf("merged flux %.4f, want 0.75", c.Flux)
		}
	}
}
