// Command uvcoverage renders the uv-plane coverage of a synthetic
// observation (Fig. 8 of the paper) as an ASCII density plot and,
// optionally, a PGM image.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"repro/internal/layout"
	"repro/internal/report"
	"repro/internal/uvwsim"
)

func main() {
	var (
		stations = flag.Int("stations", 150, "number of stations")
		steps    = flag.Int("steps", 512, "time steps to sample")
		width    = flag.Int("width", 96, "ASCII raster width")
		pgm      = flag.String("pgm", "", "optional PGM output path")
		pgmSize  = flag.Int("pgm-size", 512, "PGM raster size")
	)
	flag.Parse()
	switch {
	case *stations < 2:
		fail(fmt.Errorf("-stations must be >= 2, got %d", *stations))
	case *width < 4:
		fail(fmt.Errorf("-width must be >= 4, got %d", *width))
	case *pgmSize < 1:
		fail(fmt.Errorf("-pgm-size must be >= 1, got %d", *pgmSize))
	}

	cfg := layout.SKA1LowConfig()
	cfg.NrStations = *stations
	sim := uvwsim.New(layout.Generate(cfg), uvwsim.DefaultOptions())
	baselines := sim.Baselines()
	fmt.Printf("%d stations, %d baselines, %d time steps\n", *stations, len(baselines), *steps)

	var us, vs []float64
	for _, b := range baselines {
		for t := 0; t < *steps; t += 4 {
			c := sim.UVW(b.P, b.Q, t)
			us = append(us, c.U, -c.U)
			vs = append(vs, c.V, -c.V)
		}
	}
	fmt.Print(report.Scatter(us, vs, *width, *width/2))

	if *pgm != "" {
		n := *pgmSize
		img := make([]float64, n*n)
		max := 0.0
		for i := range us {
			if a := abs(us[i]); a > max {
				max = a
			}
			if a := abs(vs[i]); a > max {
				max = a
			}
		}
		for i := range us {
			x := int((us[i]/max + 1) / 2 * float64(n-1))
			y := int((vs[i]/max + 1) / 2 * float64(n-1))
			img[y*n+x]++
		}
		// Log compression for the dense core.
		for i, v := range img {
			if v > 0 {
				img[i] = 1 + math.Log(v)
			}
		}
		f, err := os.Create(*pgm)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := report.WritePGM(f, img, n, n); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s\n", *pgm)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "uvcoverage:", err)
	os.Exit(1)
}
