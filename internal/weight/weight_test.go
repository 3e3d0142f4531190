package weight

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/faulttol"
	"repro/internal/layout"
	"repro/internal/uvwsim"
)

func testObservation(t *testing.T) ([][]uvwsim.UVW, []float64, []uvwsim.Baseline, float64, int) {
	t.Helper()
	cfg := layout.SKA1LowConfig()
	cfg.NrStations = 12
	sim := uvwsim.New(layout.Generate(cfg), uvwsim.DefaultOptions())
	const nt = 64
	tracks := sim.AllTracks(nt)
	freqs := []float64{150e6, 150.5e6}
	maxUV := sim.MaxUV(nt) * freqs[1] / uvwsim.SpeedOfLight
	gridSize := 256
	imageSize := float64(gridSize/2-16) / maxUV
	return tracks, freqs, sim.Baselines(), imageSize, gridSize
}

func computeScheme(t *testing.T, scheme Scheme, robust float64) (*Weights, [][]uvwsim.UVW, []float64) {
	t.Helper()
	tracks, freqs, _, imageSize, gridSize := testObservation(t)
	w, err := Compute(Config{
		Scheme: scheme, Robust: robust, GridSize: gridSize, ImageSize: imageSize,
	}, tracks, freqs)
	if err != nil {
		t.Fatal(err)
	}
	return w, tracks, freqs
}

func TestNaturalWeightsAreUnit(t *testing.T) {
	w, tracks, freqs := computeScheme(t, Natural, 0)
	for _, track := range tracks[:5] {
		for _, c := range track[:8] {
			if got := w.For(c, freqs[0]); got != 1 {
				t.Fatalf("natural weight = %g", got)
			}
		}
	}
}

func TestUniformDownweightsDenseCells(t *testing.T) {
	w, tracks, freqs := computeScheme(t, Uniform, 0)
	// Core baselines revisit the same uv cells over and over; their
	// weights must be below 1. All weights are in (0, 1].
	sawDense := false
	for _, track := range tracks {
		for _, c := range track {
			wt := w.For(c, freqs[0])
			if wt <= 0 || wt > 1 {
				t.Fatalf("uniform weight %g out of (0, 1]", wt)
			}
			if wt < 0.2 {
				sawDense = true
			}
		}
	}
	if !sawDense {
		t.Fatal("expected strongly downweighted dense cells in the core")
	}
}

func TestRobustInterpolates(t *testing.T) {
	wNat, tracks, freqs := computeScheme(t, Natural, 0)
	wUni, _, _ := computeScheme(t, Uniform, 0)
	wLo, _, _ := computeScheme(t, Robust, -2) // ~uniform
	wHi, _, _ := computeScheme(t, Robust, 2)  // ~natural

	// Compare normalized weight *shapes* on a dense cell vs a sparse
	// cell: robust(-2) should follow uniform's relative downweighting,
	// robust(+2) natural's flatness.
	var dense, sparse uvwsim.UVW
	denseFound, sparseFound := false, false
	for _, track := range tracks {
		for _, c := range track {
			if wUni.For(c, freqs[0]) < 0.05 && !denseFound {
				dense, denseFound = c, true
			}
			if wUni.For(c, freqs[0]) > 0.9 && !sparseFound {
				sparse, sparseFound = c, true
			}
		}
	}
	if !denseFound || !sparseFound {
		t.Skip("layout did not produce both dense and sparse cells")
	}
	ratio := func(w *Weights) float64 {
		return w.For(dense, freqs[0]) / w.For(sparse, freqs[0])
	}
	rNat, rUni, rLo, rHi := ratio(wNat), ratio(wUni), ratio(wLo), ratio(wHi)
	if rNat != 1 {
		t.Fatalf("natural ratio = %g", rNat)
	}
	// Robust(-2) close to uniform, robust(+2) much flatter.
	if rLo > 10*rUni {
		t.Fatalf("robust(-2) ratio %g too far from uniform %g", rLo, rUni)
	}
	if rHi < 10*rLo {
		t.Fatalf("robust(+2) ratio %g should be much flatter than robust(-2) %g", rHi, rLo)
	}
}

func TestApplyScalesVisibilitiesAndReturnsTotal(t *testing.T) {
	w, tracks, freqs := computeScheme(t, Uniform, 0)
	cfg := layout.SKA1LowConfig()
	cfg.NrStations = 12
	sim := uvwsim.New(layout.Generate(cfg), uvwsim.DefaultOptions())
	vs := core.MustNewVisibilitySet(sim.Baselines(), tracks, len(freqs))
	for b := range vs.Data {
		for i := range vs.Data[b] {
			vs.Data[b][i][0] = 1
		}
	}
	total := Apply(vs, w, freqs)
	if total <= 0 {
		t.Fatal("total weight must be positive")
	}
	// Each visibility equals its weight now; their sum equals total.
	var sum float64
	for b := range vs.Data {
		for i := range vs.Data[b] {
			sum += real(vs.Data[b][i][0])
		}
	}
	if math.Abs(sum-total) > 1e-6*total {
		t.Fatalf("applied weights sum %g != reported total %g", sum, total)
	}
}

func TestComputeValidation(t *testing.T) {
	tracks, freqs, _, imageSize, gridSize := testObservation(t)
	bad := []Config{
		{Scheme: Uniform, GridSize: 1, ImageSize: imageSize},
		{Scheme: Uniform, GridSize: gridSize, ImageSize: 0},
		{Scheme: Robust, Robust: 3, GridSize: gridSize, ImageSize: imageSize},
	}
	for i, cfg := range bad {
		if _, err := Compute(cfg, tracks, freqs); err == nil {
			t.Fatalf("config %d should fail", i)
		}
	}
	if _, err := Compute(Config{Scheme: Uniform, GridSize: gridSize, ImageSize: imageSize}, nil, freqs); err == nil {
		t.Fatal("empty tracks should fail")
	}
}

func TestSchemeString(t *testing.T) {
	if Natural.String() != "natural" || Uniform.String() != "uniform" || Robust.String() != "robust" {
		t.Fatal("scheme names wrong")
	}
	if Scheme(99).String() == "" {
		t.Fatal("unknown scheme must still format")
	}
}

// TestUniformWeightingSharpensPSF drives the full IDG pipeline: the
// uniformly-weighted PSF must have lower far sidelobes than the
// naturally-weighted one (the classic weighting trade-off).
func TestUniformWeightingSharpensPSF(t *testing.T) {
	tracks, freqs, baselines, imageSize, gridSize := testObservation(t)

	kernels, err := core.NewKernels(core.Params{
		GridSize: gridSize, SubgridSize: 24, ImageSize: imageSize, Frequencies: freqs,
	})
	if err != nil {
		t.Fatal(err)
	}
	pcfg := struct{}{}
	_ = pcfg

	psf := func(scheme Scheme) []float64 {
		vs := core.MustNewVisibilitySet(baselines, tracks, len(freqs))
		for b := range vs.Data {
			for i := range vs.Data[b] {
				vs.Data[b][i] = [4]complex128{1, 0, 0, 1}
			}
		}
		w, err := Compute(Config{Scheme: scheme, GridSize: gridSize, ImageSize: imageSize}, tracks, freqs)
		if err != nil {
			t.Fatal(err)
		}
		total := Apply(vs, w, freqs)

		p, err := planFor(gridSize, imageSize, freqs, tracks)
		if err != nil {
			t.Fatal(err)
		}
		g := coreNewGrid(gridSize)
		if _, _, err := kernels.GridVisibilities(context.Background(), p, vs, nil, kernels.NewShardedGrid(g), faulttol.Config{}, nil, 0); err != nil {
			t.Fatal(err)
		}
		img := core.GridToImage(g, 0)
		core.ScaleImage(img, float64(gridSize*gridSize)/total)
		core.ApplyTaperCorrection(img, kernels.TaperCorrection(gridSize))
		return stokesI(img)
	}

	nat := psf(Natural)
	uni := psf(Uniform)
	center := (gridSize/2)*gridSize + gridSize/2
	if math.Abs(nat[center]-1) > 0.05 || math.Abs(uni[center]-1) > 0.05 {
		t.Fatalf("PSF peaks wrong: natural %.3f, uniform %.3f", nat[center], uni[center])
	}
	// RMS of the PSF outside the main lobe.
	rms := func(img []float64) float64 {
		var s float64
		var n int
		for y := 0; y < gridSize; y++ {
			for x := 0; x < gridSize; x++ {
				dx, dy := x-gridSize/2, y-gridSize/2
				r2 := dx*dx + dy*dy
				if r2 > 100 && r2 < (gridSize/3)*(gridSize/3) {
					s += img[y*gridSize+x] * img[y*gridSize+x]
					n++
				}
			}
		}
		return math.Sqrt(s / float64(n))
	}
	rNat, rUni := rms(nat), rms(uni)
	t.Logf("PSF sidelobe rms: natural %.4f, uniform %.4f", rNat, rUni)
	if rUni >= rNat {
		t.Fatalf("uniform weighting should lower PSF sidelobes: %.4f vs %.4f", rUni, rNat)
	}
}
