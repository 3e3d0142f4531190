package noise

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/faulttol"
	"repro/internal/grid"
	"repro/internal/layout"
	"repro/internal/plan"
	"repro/internal/sky"
	"repro/internal/uvwsim"
)

// imageNoiseRMS grids pure-noise visibilities for nt time steps and
// returns the rms of the inner quarter of the dirty image.
func imageNoiseRMS(t *testing.T, nt int, seed int64) float64 {
	t.Helper()
	cfg := layout.SKA1LowConfig()
	cfg.NrStations = 12
	sim := uvwsim.New(layout.Generate(cfg), uvwsim.DefaultOptions())
	tracks := sim.AllTracks(nt)
	freqs := []float64{150e6, 150.5e6}
	maxUV := sim.MaxUV(nt) * freqs[1] / uvwsim.SpeedOfLight
	gridSize := 256
	imageSize := float64(gridSize/2-16) / maxUV

	p, err := plan.New(plan.Config{
		GridSize: gridSize, SubgridSize: 24, ImageSize: imageSize,
		Frequencies: freqs, KernelSupport: 6,
	}, tracks)
	if err != nil {
		t.Fatal(err)
	}
	k, err := core.NewKernels(core.Params{
		GridSize: gridSize, SubgridSize: 24, ImageSize: imageSize, Frequencies: freqs,
	})
	if err != nil {
		t.Fatal(err)
	}
	vs := core.MustNewVisibilitySet(sim.Baselines(), tracks, len(freqs))
	if err := AddGaussian(vs, 1.0, seed); err != nil {
		t.Fatal(err)
	}
	g := grid.NewGrid(gridSize)
	if _, _, err := k.GridVisibilities(context.Background(), p, vs, nil, k.NewShardedGrid(g), faulttol.Config{}, nil, 0); err != nil {
		t.Fatal(err)
	}
	img := core.GridToImage(g, 0)
	st := p.Stats()
	core.ScaleImage(img, float64(gridSize*gridSize)/float64(st.NrGriddedVisibilities))
	si := sky.StokesI(img)
	var s float64
	var n int
	for y := gridSize / 4; y < 3*gridSize/4; y++ {
		for x := gridSize / 4; x < 3*gridSize/4; x++ {
			v := si[y*gridSize+x]
			s += v * v
			n++
		}
	}
	return math.Sqrt(s / float64(n))
}

// TestImageNoiseAveragesDown: a 9x larger visibility count must
// reduce the image noise by ~sqrt(9) = 3 (the radiometer equation).
// A single realization's rms fluctuates strongly (the dense core
// cells dominate the noise power), so both points average 4 seeds.
func TestImageNoiseAveragesDown(t *testing.T) {
	avg := func(nt int) float64 {
		var s float64
		for seed := int64(1); seed <= 4; seed++ {
			r := imageNoiseRMS(t, nt, seed)
			s += r * r
		}
		return math.Sqrt(s / 4)
	}
	rSmall := avg(64)
	rLarge := avg(576)
	ratio := rSmall / rLarge
	t.Logf("image noise: nt=64 rms %.4g, nt=576 rms %.4g, ratio %.2f (expect ~3)", rSmall, rLarge, ratio)
	if ratio < 2.1 || ratio > 4.3 {
		t.Fatalf("noise should average down by ~sqrt(9)=3, got %.2f", ratio)
	}
}
