package repro

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/aterm"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/xmath"
)

func TestATermProviderConstructors(t *testing.T) {
	id := aterm.Identity{}
	if d := id.Evaluate(0, 0, 0.01, 0.01).MaxAbsDiff(xmath.Identity2()); d != 0 {
		t.Fatal("identity provider wrong")
	}
	beam := GaussianBeamATerms(0.05, 0)
	center := beam.Evaluate(0, 0, 0, 0)
	edge := beam.Evaluate(0, 0, 0.05, 0)
	if real(edge[0]) >= real(center[0]) {
		t.Fatal("beam must fall off")
	}
	screen := aterm.PhaseScreen{Strength: 10}
	m := screen.Evaluate(1, 1, 0.01, 0.02)
	if math.Abs(real(m[0])*real(m[0])+imag(m[0])*imag(m[0])-1) > 1e-12 {
		t.Fatal("phase screen must be unimodular")
	}
}

func TestATermSchedulerAlias(t *testing.T) {
	s := ATermScheduler{UpdateInterval: 128}
	if s.Slot(129) != 1 {
		t.Fatal("scheduler alias broken")
	}
}

// TestCleanThroughFacade: Observation.ImagingCycle, the facade's one
// route to CLEAN, shrinks the residual peak cycle by cycle, recovers
// the source's flux at its pixel, and refuses an observation without
// visibilities.
func TestCleanThroughFacade(t *testing.T) {
	cfg := smallObservation()
	cfg.NrStations = 16
	obs, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	pix := obs.ImageSize / float64(cfg.GridSize)
	src := PointSource{L: 20 * pix, M: -12 * pix, I: 1}
	if err := obs.FillFromModel(SkyModel{src}); err != nil {
		t.Fatal(err)
	}
	cycle := CycleConfig{
		MajorCycles: 3,
		CycleDepth:  0.3,
		Clean:       CleanParams{Gain: 0.2, MaxIterations: 200, Threshold: 0.02},
	}
	res, err := obs.ImagingCycle(context.Background(), cycle)
	if err != nil {
		t.Fatal(err)
	}
	peaks := res.PeakHistory
	if len(peaks) < 2 || peaks[len(peaks)-1] > peaks[0]/2 {
		t.Fatalf("residual peaks %v did not halve", peaks)
	}
	x, y := LMToPixel(src.L, src.M, cfg.GridSize, obs.ImageSize)
	recovered := 0.0
	for _, c := range res.Model {
		if cx, cy := LMToPixel(c.L, c.M, cfg.GridSize, obs.ImageSize); math.Abs(float64(cx-x)) <= 1 && math.Abs(float64(cy-y)) <= 1 {
			recovered += c.I
		}
	}
	if math.Abs(recovered-src.I) > 0.2 {
		t.Fatalf("recovered %.3f Jy at the source, want %.1f", recovered, src.I)
	}
	bare, err := cfg.BuildPlan()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bare.ImagingCycle(context.Background(), cycle); err == nil {
		t.Fatal("imaging cycle ran without visibilities")
	}
}

func TestPixelLMHelpers(t *testing.T) {
	l, m := PixelToLM(140, 100, 256, 0.1)
	x, y := LMToPixel(l, m, 256, 0.1)
	if x != 140 || y != 100 {
		t.Fatalf("pixel roundtrip (%d,%d)", x, y)
	}
}

func TestScaleImageAndWScreen(t *testing.T) {
	img := grid.NewGrid(16)
	img.Set(0, 8, 8, 2)
	core.ScaleImage(img, 0.5)
	if img.At(0, 8, 8) != 1 {
		t.Fatal("ScaleImage wrong")
	}
	orig := img.Clone()
	core.ApplyWScreen(img, 0.2, 50, +1)
	core.ApplyWScreen(img, 0.2, 50, -1)
	if d := img.MaxAbsDiff(orig); d > 1e-9 {
		t.Fatalf("w screen roundtrip %g", d)
	}
}

func TestObservationPSF(t *testing.T) {
	cfg := smallObservation()
	obs, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Put data in; PSF must not clobber it.
	pix := obs.ImageSize / float64(cfg.GridSize)
	obs.FillFromModel(SkyModel{{L: 10 * pix, M: 0, I: 1}})
	before := obs.Vis.Data[0][0]
	psf, err := obs.psf(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if obs.Vis.Data[0][0] != before {
		t.Fatal("PSF computation clobbered the visibilities")
	}
	center := (cfg.GridSize/2)*cfg.GridSize + cfg.GridSize/2
	if math.Abs(psf[center]-1) > 0.02 {
		t.Fatalf("PSF peak %.3f, want 1", psf[center])
	}
	// PSF is symmetric about the center for conjugate-covered uv.
	off := psf[center+5]
	mirror := psf[center-5]
	if math.Abs(off-mirror) > 0.05 {
		t.Fatalf("PSF asymmetric: %g vs %g", off, mirror)
	}
}

// TestWStackedFacadeRoundtrip: a W-stacked observation runs through
// the facade's one gridding and one degridding entry point, and a grid
// of the wrong size is bad input there too.
func TestWStackedFacadeRoundtrip(t *testing.T) {
	cfg := smallObservation()
	cfg.SubgridSize = 16
	cfg.KernelSupport = 4
	cfg.CoreOnly = true
	cfg.HourAngleStartDeg = -60
	cfg.WStepLambda = 100
	obs, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	pix := obs.ImageSize / float64(cfg.GridSize)
	model := SkyModel{{L: 15 * pix, M: 10 * pix, I: 1}}
	obs.FillFromModel(model)
	g, times, err := obs.GridAll(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if times.Gridder <= 0 {
		t.Fatal("no gridder time recorded")
	}
	if g.Norm2() == 0 {
		t.Fatal("empty W-stacked grid")
	}
	modelGrid := ImageToGrid(model.Rasterize(cfg.GridSize, obs.ImageSize), 0)
	if _, err := obs.DegridAll(context.Background(), nil, modelGrid); err != nil {
		t.Fatal(err)
	}
	if obs.Vis.Data[0][0] == (Matrix2{}) {
		t.Fatal("degrid produced no data")
	}

	// A grid of the wrong size is bad input, returned before any work
	// rather than raised as a panic.
	half := grid.NewGrid(cfg.GridSize / 2)
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("DegridAll on a %d-pixel grid panicked: %v", half.N, r)
			}
		}()
		if _, err := obs.DegridAll(context.Background(), nil, half); !errors.Is(err, ErrBadInput) {
			t.Fatalf("DegridAll on a %d-pixel grid: error %v does not wrap ErrBadInput", half.N, err)
		}
	}()
}

// TestWideFieldOfViewIsConfigError: a configuration whose derived field
// of view puts image pixels outside the unit sphere is refused as an
// ErrInvalidConfig, not a panic.
func TestWideFieldOfViewIsConfigError(t *testing.T) {
	cfg := DefaultObservation()
	cfg.NrStations, cfg.CoreOnly = 3, true
	cfg.NrTimesteps, cfg.NrChannels, cfg.StartFrequency = 2, 1, 50e6
	cfg.GridSize, cfg.GridMargin = 4096, 16
	_, err := cfg.Build()
	if !errors.Is(err, ErrInvalidConfig) || !strings.Contains(err.Error(), "field of view") {
		t.Fatalf("Build: %v, want ErrInvalidConfig naming the field of view", err)
	}
}
