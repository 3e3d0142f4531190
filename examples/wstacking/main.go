// W-stacking: predict visibilities for a wide-field, low-elevation
// observation where the w terms are large. Plain IDG on a single w=0
// plane loses accuracy once the w-phase oscillates faster than the
// subgrid sampling; partitioning the visibilities into W-layers
// (Section IV: "larger subgrids can be used in connection with
// W-stacking") restores near-exact predictions. W-stacking is a
// property of the plan: the same DegridAll and DirtyImage run either
// plan. The example prints the degridding error of both plans against
// the analytic measurement equation, then images the W-stacked
// observation and checks the source comes back at its pixel.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"repro/internal/taper"

	"repro"
)

// buildObs creates a wide-field observation pointed far from transit
// (large w), with or without W-layers.
func buildObs(wstep float64) (*repro.Observation, repro.SkyModel, error) {
	cfg := repro.DefaultObservation()
	cfg.NrStations = 10
	cfg.NrTimesteps = 96
	cfg.NrChannels = 2
	cfg.GridSize = 256
	cfg.SubgridSize = 12
	cfg.KernelSupport = 3
	cfg.GridMargin = 32
	cfg.CoreOnly = true         // short baselines -> wide field of view
	cfg.HourAngleStartDeg = -82 // far from transit -> large w terms
	cfg.WStepLambda = wstep
	obs, err := cfg.BuildPlan()
	if err != nil {
		return nil, nil, err
	}
	if err := obs.AllocateVisibilities(); err != nil {
		return nil, nil, err
	}
	pixel := obs.ImageSize / float64(cfg.GridSize)
	// A source far from the phase center, where n(l,m) is largest.
	model := repro.SkyModel{{L: 85 * pixel, M: 62 * pixel, I: 1}}
	return obs, model, nil
}

// degridError predicts the model image through DegridAll and returns
// the maximum relative deviation from the analytic (taper-weighted)
// measurement equation.
func degridError(obs *repro.Observation, model repro.SkyModel) float64 {
	g := repro.ImageToGrid(model.Rasterize(obs.Config.GridSize, obs.ImageSize), 0)
	if _, err := obs.DegridAll(context.Background(), nil, g); err != nil {
		log.Fatal(err)
	}
	// Expected: the source flux is weighted by the taper at its
	// position.
	src := model[0]
	half := obs.ImageSize / 2
	flux := src.I * taper.Spheroidal(src.L/half) * taper.Spheroidal(src.M/half)
	expect := repro.SkyModel{{L: src.L, M: src.M, I: flux}}
	freqs := obs.Config.Frequencies()
	maxErr := 0.0
	for b := range obs.Vis.Data {
		for t := 0; t < obs.Vis.NrTimesteps; t++ {
			coord := obs.Vis.UVW[b][t]
			for c := 0; c < obs.Vis.NrChannels; c++ {
				sc := coord.Scale(freqs[c])
				want := expect.Predict(sc.U, sc.V, sc.W)
				got := obs.Vis.Data[b][t*obs.Vis.NrChannels+c]
				if d := got.MaxAbsDiff(want) / flux; d > maxErr {
					maxErr = d
				}
			}
		}
	}
	return maxErr
}

func main() {
	plain, model, err := buildObs(0)
	if err != nil {
		log.Fatal(err)
	}
	maxW := plain.Simulator.MaxW(plain.Config.NrTimesteps) *
		plain.Config.StartFrequency / 299792458.0
	fmt.Printf("field of view %.3f direction cosines, max |w| = %.0f wavelengths\n",
		plain.ImageSize, maxW)

	plainErr := degridError(plain, model)
	fmt.Printf("\nplain IDG (single w-plane)  : max relative error %.2e\n", plainErr)

	stacked, model2, err := buildObs(60)
	if err != nil {
		log.Fatal(err)
	}
	planes := 0
	seen := map[int]bool{}
	for _, it := range stacked.Plan.Items {
		if !seen[it.WPlane] {
			seen[it.WPlane] = true
			planes++
		}
	}
	stackErr := degridError(stacked, model2)
	fmt.Printf("w-stacked IDG (%2d layers)   : max relative error %.2e\n", planes, stackErr)

	if stackErr > plainErr/5 {
		log.Fatal("w-stacking should improve degridding accuracy substantially")
	}
	if stackErr > 1e-4 {
		log.Fatal("stacked error unexpectedly large")
	}
	fmt.Printf("\nw-stacking improved prediction accuracy by %.0fx\n", plainErr/stackErr)

	// The gridding direction: the dirty image of the W-stacked
	// observation must hold the source at its pixel.
	if err := stacked.FillFromModel(model2); err != nil {
		log.Fatal(err)
	}
	img, err := stacked.DirtyImage(context.Background(), nil)
	if err != nil {
		log.Fatal(err)
	}
	n := stacked.Config.GridSize
	dirty := repro.StokesI(img)
	peak := 0
	for i, v := range dirty {
		if math.Abs(v) > math.Abs(dirty[peak]) {
			peak = i
		}
	}
	x, y := repro.LMToPixel(model2[0].L, model2[0].M, n, stacked.ImageSize)
	got := dirty[y*n+x]
	fmt.Printf("w-stacked dirty image       : %.4f Jy at the source pixel (%d,%d), |peak| at (%d,%d)\n",
		got, x, y, peak%n, peak/n)
	if peak != y*n+x || got < 0.95*model2[0].I {
		log.Fatal("w-stacked gridding lost the source")
	}
}
