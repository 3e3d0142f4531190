// Command dataset generates, inspects and verifies observation files
// in the repository's binary format (internal/dataio) — the stand-in
// for the benchmark input data the paper intends to publish.
//
//	dataset -generate obs.idg -stations 20 -steps 128 -channels 8
//	dataset -info obs.idg
//	dataset -verify obs.idg
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/dataio"
	"repro/internal/noise"

	"repro"
)

func main() {
	var (
		generate = flag.String("generate", "", "write a synthetic observation to this path")
		info     = flag.String("info", "", "print the header of this file")
		verify   = flag.String("verify", "", "fully read this file, checking the checksum")

		stations = flag.Int("stations", 20, "stations (generate)")
		steps    = flag.Int("steps", 128, "time steps (generate)")
		channels = flag.Int("channels", 8, "channels (generate)")
		sources  = flag.Int("sources", 2, "sky sources (generate)")
		sigma    = flag.Float64("noise", 0.0, "visibility noise sigma (generate)")
		seed     = flag.Int64("seed", 1, "noise seed (generate)")
	)
	flag.Parse()

	switch {
	case *generate != "":
		runGenerate(*generate, *stations, *steps, *channels, *sources, *sigma, *seed)
	case *info != "":
		runInfo(*info)
	case *verify != "":
		runVerify(*verify)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func runGenerate(path string, stations, steps, channels, sources int, sigma float64, seed int64) {
	cfg := repro.DefaultObservation()
	cfg.NrStations = stations
	cfg.NrTimesteps = steps
	cfg.NrChannels = channels
	obs, err := cfg.Build()
	if err != nil {
		fail(err)
	}
	model, err := cfg.StandardSkyModel(sources)
	if err != nil {
		fail(err)
	}
	if err := obs.FillFromModel(model); err != nil {
		fail(err)
	}
	if sigma > 0 {
		if err := noise.AddGaussian(obs.Vis, sigma, seed); err != nil {
			fail(err)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	if err := dataio.Write(f, obs.Vis, cfg.Frequencies()); err != nil {
		fail(err)
	}
	st, err := f.Stat()
	if err != nil {
		fail(err)
	}
	fmt.Printf("wrote %s: %d baselines x %d steps x %d channels, %d sources, noise sigma %g (%.1f MB)\n",
		path, len(obs.Vis.Baselines), steps, channels, len(model), sigma,
		float64(st.Size())/1e6)
}

func runInfo(path string) {
	f, err := os.Open(path)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	h, err := dataio.ReadHeader(f)
	if err != nil {
		fail(err)
	}
	fmt.Printf("%s:\n  baselines:  %d\n  time steps: %d\n  channels:   %d\n  band:       %.3f - %.3f MHz\n  visibilities: %d\n",
		path, h.NrBaselines, h.NrTimesteps, h.NrChannels,
		h.Frequencies[0]/1e6, h.Frequencies[len(h.Frequencies)-1]/1e6,
		int64(h.NrBaselines)*int64(h.NrTimesteps)*int64(h.NrChannels))
}

func runVerify(path string) {
	f, err := os.Open(path)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	vs, freqs, err := dataio.Read(f)
	if err != nil {
		fail(err)
	}
	st := noise.Measure(vs)
	fmt.Printf("%s: OK (%d visibilities, %d channels, XX mean %.3g, std %.3g)\n",
		path, vs.NrVisibilities(), len(freqs), st.Mean, st.StdDev)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dataset:", err)
	os.Exit(1)
}
