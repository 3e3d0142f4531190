// Imaging cycle: the full loop of Fig. 2 in the paper — image
// (gridding + inverse FFT), extract sources with CLEAN, predict
// (FFT + degridding), subtract, and show that the residual shrinks
// each major cycle. This is how IDG is used inside an imager such as
// WSClean; Observation.ImagingCycle runs the loop.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	cfg := repro.DefaultObservation()
	cfg.NrStations = 16
	cfg.NrTimesteps = 96
	cfg.NrChannels = 4
	cfg.GridSize = 512
	cfg.GridMargin = 32

	obs, err := cfg.Build()
	if err != nil {
		log.Fatal(err)
	}
	n := cfg.GridSize
	pixel := obs.ImageSize / float64(n)

	// The hidden sky the telescope observes.
	truth := repro.SkyModel{
		{L: 40 * pixel, M: -28 * pixel, I: 1.0},
		{L: -64 * pixel, M: 44 * pixel, I: 0.55},
	}
	if err := obs.FillFromModel(truth); err != nil {
		log.Fatal(err)
	}

	// Each major cycle cleans down to 30% of the residual peak; the
	// loop stops once the residual image peaks below 0.05 Jy.
	res, err := obs.ImagingCycle(context.Background(), repro.CycleConfig{
		MajorCycles: 3,
		CycleDepth:  0.3,
		Clean:       repro.CleanParams{Gain: 0.2, MaxIterations: 150, Threshold: 0.05},
	})
	if err != nil {
		log.Fatal(err)
	}
	for i, peak := range res.PeakHistory {
		fmt.Printf("major cycle %d: residual image peak %.4f Jy\n", i+1, peak)
	}

	fmt.Printf("\nfinal sky model (%d components, %.3f Jy; truth %.3f Jy):\n",
		len(res.Model), res.Model.TotalFlux(), truth.TotalFlux())
	for _, s := range truth {
		x, y := repro.LMToPixel(s.L, s.M, n, obs.ImageSize)
		recovered := 0.0
		for _, c := range res.Model {
			cx, cy := repro.LMToPixel(c.L, c.M, n, obs.ImageSize)
			if abs(cx-x) <= 1 && abs(cy-y) <= 1 {
				recovered += c.I
			}
		}
		fmt.Printf("  true %.2f Jy at (%d,%d): recovered %.3f Jy\n", s.I, x, y, recovered)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
