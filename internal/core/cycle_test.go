package core

import (
	"context"
	"math"
	"runtime"
	"testing"

	"repro/internal/clean"
	"repro/internal/grid"
	"repro/internal/sky"
)

// cyclePSF grids unit visibilities of the scenario to produce the
// normalized point spread function.
func cyclePSF(t *testing.T, s *scenario) []float64 {
	t.Helper()
	backup := make([][4]complex128, 0)
	for b := range s.vs.Data {
		for i := range s.vs.Data[b] {
			backup = append(backup, s.vs.Data[b][i])
		}
	}
	for b := range s.vs.Data {
		for i := range s.vs.Data[b] {
			s.vs.Data[b][i] = [4]complex128{1, 0, 0, 1}
		}
	}
	img := s.dirtyImage(t, nil)
	psf := sky.StokesI(img)
	j := 0
	for b := range s.vs.Data {
		for i := range s.vs.Data[b] {
			s.vs.Data[b][i] = backup[j]
			j++
		}
	}
	return psf
}

// TestImagingCycleTransformsInPlace: the cycle transforms the grid it
// imaged and the model image it predicts from in place, which gives the
// bits of the fresh-grid transforms and saves a grid each: a warm major
// cycle — the difference between a run of two and a run of one —
// allocates less than three grids (the grid it images into, the
// rasterized model, and everything else), where the two fresh
// transforms alone would take two.
func TestImagingCycleTransformsInPlace(t *testing.T) {
	const n = 64
	rnd := newTestRand(5)
	g := grid.NewGrid(n)
	for c := range g.Data {
		for i := range g.Data[c] {
			g.Data[c][i] = complex(rnd(), rnd())
		}
	}
	for _, inverse := range []bool{true, false} {
		in := grid.NewGrid(n)
		for c := range in.Data {
			copy(in.Data[c], g.Data[c])
		}
		var want, got *grid.Grid
		if inverse {
			want, got = GridToImage(g, 2), GridToImageInPlace(in, 2)
		} else {
			want, got = ImageToGrid(g, 2), ImageToGridInPlace(in, 2)
		}
		for c := range want.Data {
			for i, v := range want.Data[c] {
				if math.Float64bits(real(v)) != math.Float64bits(real(got.Data[c][i])) ||
					math.Float64bits(imag(v)) != math.Float64bits(imag(got.Data[c][i])) {
					t.Fatalf("inverse=%v: in-place transform differs at plane %d pixel %d", inverse, c, i)
				}
			}
		}
	}

	if raceEnabled {
		t.Skip("allocation counts: sync.Pool drops items at random under the race detector")
	}
	sc := defaultScenarioConfig()
	allocs := func(major int) uint64 {
		s := buildScenario(t, sc)
		s.fillFromModel(nil)
		psf := cyclePSF(t, s)
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		res, err := s.kernels.RunImagingCycle(context.Background(), s.plan, s.vs, psf, CycleConfig{
			MajorCycles: major,
			Clean:       clean.Params{Gain: 0.2, MaxIterations: 20, Threshold: 1e-9},
			CycleDepth:  0.3,
		})
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		if res.MajorCycles != major {
			t.Fatalf("ran %d major cycles, want %d", res.MajorCycles, major)
		}
		return m1.TotalAlloc - m0.TotalAlloc
	}
	// A GC that empties the kernels' pools mid-run only adds bytes: the
	// least of three runs is the cycle's own.
	one, two := allocs(1), allocs(2)
	for i := 0; i < 2; i++ {
		one, two = min(one, allocs(1)), min(two, allocs(2))
	}
	gridBytes := uint64(grid.NrCorrelations * sc.gridSize * sc.gridSize * 16)
	t.Logf("a major cycle allocates %d bytes, %.2f grids", two-one, float64(two-one)/float64(gridBytes))
	if two-one >= 3*gridBytes {
		t.Fatalf("a major cycle allocates %d bytes, %.2f grids; want under 3", two-one, float64(two-one)/float64(gridBytes))
	}
}

func TestImagingCycleConverges(t *testing.T) {
	sc := defaultScenarioConfig()
	sc.nrStations = 10
	sc.nt = 96
	sc.sources = 2
	s := buildScenario(t, sc)
	s.fillFromModel(nil)
	psf := cyclePSF(t, s)

	res, err := s.kernels.RunImagingCycle(context.Background(), s.plan, s.vs, psf, CycleConfig{
		MajorCycles: 3,
		Clean:       clean.Params{Gain: 0.2, MaxIterations: 200, Threshold: 0.02},
		CycleDepth:  0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MajorCycles < 2 {
		t.Fatalf("expected multiple major cycles, got %d", res.MajorCycles)
	}
	// The residual peak decreases monotonically across major cycles.
	for i := 1; i < len(res.PeakHistory); i++ {
		if res.PeakHistory[i] >= res.PeakHistory[i-1] {
			t.Fatalf("residual peak did not decrease: %v", res.PeakHistory)
		}
	}
	// Total recovered flux is near the truth.
	truth := s.model.TotalFlux()
	got := res.Model.TotalFlux()
	if math.Abs(got-truth) > 0.3*truth {
		t.Fatalf("recovered %.3f Jy, truth %.3f Jy", got, truth)
	}
	// Every true source has a nearby model component with reasonable
	// flux.
	n := s.plan.GridSize
	for _, src := range s.model {
		x, y := sky.LMToPixel(src.L, src.M, n, s.plan.ImageSize)
		var near float64
		for _, c := range res.Model {
			cx, cy := sky.LMToPixel(c.L, c.M, n, s.plan.ImageSize)
			if absInt(cx-x) <= 1 && absInt(cy-y) <= 1 {
				near += c.I
			}
		}
		if near < 0.5*src.I {
			t.Fatalf("source at (%d,%d) with %.2f Jy only recovered %.2f Jy", x, y, src.I, near)
		}
	}
	if res.Times.Gridder <= 0 || res.Times.Degridder <= 0 {
		t.Fatal("stage times not accumulated")
	}
}

func TestImagingCycleStopsAtThreshold(t *testing.T) {
	sc := defaultScenarioConfig()
	sc.nrStations = 6
	sc.nt = 32
	s := buildScenario(t, sc)
	s.fillFromModel(nil)
	psf := cyclePSF(t, s)

	// Absurdly high threshold: one cycle, no cleaning needed.
	res, err := s.kernels.RunImagingCycle(context.Background(), s.plan, s.vs, psf, CycleConfig{
		MajorCycles: 5,
		Clean:       clean.Params{Gain: 0.2, MaxIterations: 10, Threshold: 100},
		CycleDepth:  0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MajorCycles != 1 || len(res.Model) != 0 {
		t.Fatalf("expected immediate stop, got %d cycles, %d components",
			res.MajorCycles, len(res.Model))
	}
}

func TestImagingCycleValidation(t *testing.T) {
	sc := defaultScenarioConfig()
	sc.nrStations = 4
	sc.nt = 8
	s := buildScenario(t, sc)
	good := CycleConfig{
		MajorCycles: 1,
		Clean:       clean.Params{Gain: 0.1, MaxIterations: 1},
	}
	bad := []CycleConfig{
		{MajorCycles: 0, Clean: good.Clean},
		{MajorCycles: 1, Clean: clean.Params{Gain: 0, MaxIterations: 1}},
		{MajorCycles: 1, Clean: good.Clean, CycleDepth: 1.5},
	}
	psf := make([]float64, s.plan.GridSize*s.plan.GridSize)
	psf[(s.plan.GridSize/2)*s.plan.GridSize+s.plan.GridSize/2] = 1
	for i, cfg := range bad {
		if _, err := s.kernels.RunImagingCycle(context.Background(), s.plan, s.vs, psf, cfg); err == nil {
			t.Fatalf("config %d should fail", i)
		}
	}
	// Wrong PSF size.
	if _, err := s.kernels.RunImagingCycle(context.Background(), s.plan, s.vs, psf[:10], good); err == nil {
		t.Fatal("short PSF should fail")
	}
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
