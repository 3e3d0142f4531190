package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/fft"
	idgobs "repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/report"
	"repro/internal/sky"

	"repro"
)

// -trace / -metrics / -grid-shards / -max-inflight flags; the
// experiment table's fixed run(scale) signature means runMeasured
// picks them up from package scope.
var (
	traceFile   string
	showMetrics bool
	gridShards  int
	maxInflight int
)

// runMeasured executes the real Go IDG pipeline on a scaled-down copy
// of the paper dataset and reports wall-clock per-stage times and
// throughput — the measured companion to the modelled Fig. 9/10 rows
// (this machine is the fourth "platform" next to HASWELL, FIJI and
// PASCAL).
func runMeasured(scale float64) {
	cfg := repro.DefaultObservation()
	if scale != 1.0 {
		cfg.NrTimesteps = int(float64(cfg.NrTimesteps) * scale)
		if cfg.NrTimesteps < 16 {
			cfg.NrTimesteps = 16
		}
	}
	fmt.Printf("dataset: %d stations, %d steps, %d channels, %d-pixel subgrids on a %d-pixel grid (%d workers)\n",
		cfg.NrStations, cfg.NrTimesteps, cfg.NrChannels, cfg.SubgridSize, cfg.GridSize,
		runtime.GOMAXPROCS(0))

	// Observation is opt-in: the measured run is the one experiment
	// executing real kernels, so it is the one worth tracing.
	var observer *repro.Observer
	if traceFile != "" || showMetrics {
		observer = repro.NewObserver(0)
		cfg.Observer = observer
	}
	cfg.GridShards = gridShards
	cfg.MaxInflightChunks = maxInflight
	if cfg.GridShards > 0 || cfg.MaxInflightChunks > 0 {
		fmt.Printf("gridding pass: %d grid shards, %d in-flight chunks (0 = default)\n",
			cfg.GridShards, cfg.MaxInflightChunks)
	}

	obs, err := cfg.Build()
	if err != nil {
		fatal(err)
	}
	pix := obs.ImageSize / float64(cfg.GridSize)
	model := repro.SkyModel{
		{L: 40 * pix, M: -24 * pix, I: 1},
		{L: -80 * pix, M: 60 * pix, I: 0.5},
	}
	start := time.Now()
	if err := obs.FillFromModel(model); err != nil {
		fatal(err)
	}
	fillTime := time.Since(start)

	g, gridTimes, err := obs.GridAll(context.Background(), nil)
	if err != nil {
		fatal(err)
	}
	degridTimes, err := obs.DegridAll(context.Background(), nil, g)
	if err != nil {
		fatal(err)
	}

	st := obs.Plan.Stats()
	nvis := float64(st.NrGriddedVisibilities)
	t := report.NewTable("stage", "seconds", "share")
	cycle := gridTimes
	cycle.Add(degridTimes)
	add := func(name string, d time.Duration) {
		t.AddRow(name, d.Seconds(), fmt.Sprintf("%.1f%%", 100*d.Seconds()/cycle.Total().Seconds()))
	}
	add("gridder", gridTimes.Gridder)
	add("degridder", degridTimes.Degridder)
	add("subgrid FFT", gridTimes.SubgridFFT+degridTimes.SubgridFFT)
	add("adder", gridTimes.Adder)
	add("splitter", degridTimes.Splitter)
	t.Render(os.Stdout)

	fmt.Printf("\nvisibilities gridded: %.0f (workload generation took %.2fs)\n", nvis, fillTime.Seconds())
	gridMVis := nvis / gridTimes.Total().Seconds() / 1e6
	degridMVis := nvis / degridTimes.Total().Seconds() / 1e6

	// Roofline check: the same instruction-mix model that produces
	// Fig. 10, instantiated for a host-like CPU (arch.HostLike) and this
	// run's exact operation counts. Exceeding 100% means the kernels
	// beat the model's rho = 17 sincos assumption, which the phasor
	// recurrence is designed to do.
	simd := obs.Kernels.SIMDInfo()
	host := arch.HostLike(runtime.GOMAXPROCS(0), simd.Lanes)
	d := perfmodel.FromPlan("measured", obs.Plan, len(obs.Simulator.Baselines()), cfg.NrTimesteps)
	modelGrid, modelDegrid := perfmodel.ThroughputMVisPerSec(host, d)
	fmt.Printf("gridding   : %6.1f MVis/s (%.0f%% of the %s roofline, %.1f MVis/s)\n",
		gridMVis, 100*gridMVis/modelGrid, host.Name, modelGrid)
	fmt.Printf("degridding : %6.1f MVis/s (%.0f%% of the %s roofline, %.1f MVis/s)\n",
		degridMVis, 100*degridMVis/modelDegrid, host.Name, modelDegrid)
	// The dispatch actually measured: roofline percentages are only
	// interpretable next to the kernel code path that produced them, and
	// the roofline is stated for that path's lane width.
	fmt.Println(simd)
	fmt.Printf("roofline: %d cores x %.1f GHz x %d FMA/cycle x %d lanes = %.0f GFlop/s (%s tiles on the %s tier)\n",
		host.NrComputeUnits, host.ClockGHz, host.FPUInstrPerCyc, host.VectorSize, 1e3*host.PeakTFlops, cfg.Precision, simd.Active)
	fmt.Println("fft: " + fft.EngineInfo())
	frac := (gridTimes.Gridder + degridTimes.Degridder).Seconds() / cycle.Total().Seconds()
	fmt.Printf("gridder+degridder share: %.1f%% (paper: >93%%)\n", 100*frac)
	fftFrac := (gridTimes.SubgridFFT + degridTimes.SubgridFFT).Seconds() / cycle.Total().Seconds()
	fmt.Printf("subgrid FFT share: %.1f%% of the grid+degrid cycle\n", 100*fftFrac)

	runShortItems(cfg.NrTimesteps)

	// Sanity: the dirty image must recover the brighter source.
	img := core.GridToImage(g, 0)
	core.ScaleImage(img, float64(cfg.GridSize*cfg.GridSize)/nvis)
	core.ApplyTaperCorrection(img, obs.Kernels.TaperCorrection(cfg.GridSize))
	si := sky.StokesI(img)
	best, bi := -1.0, 0
	for i, v := range si {
		if v > best {
			best, bi = v, i
		}
	}
	x, y := sky.LMToPixel(model[0].L, model[0].M, cfg.GridSize, obs.ImageSize)
	fmt.Printf("image check: peak %.3f at (%d,%d), expected ~%.1f at (%d,%d)\n",
		best, bi%cfg.GridSize, bi/cfg.GridSize, model[0].I, x, y)

	// Measured metrics next to the modelled rooflines above.
	if showMetrics {
		fmt.Println("\nmeasured pipeline metrics:")
		observer.Metrics.Snapshot().Table().Render(os.Stdout)
	}
	if traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			fatal(err)
		}
		if err := observer.Tracer.WriteChromeTrace(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d spans, %d dropped) - load it in chrome://tracing or ui.perfetto.dev\n",
			traceFile, observer.Tracer.Len(), observer.Tracer.Dropped())
	}
}

// runShortItems grids and degrids the short-item regime — two channels,
// at most eight time steps per subgrid, Gaussian-beam A-terms: 16
// visibilities per work item, the shape of the benchmark's sparse
// workload — and prints its throughput next to what the kernels' own
// counters say the per-subgrid fixed cost is: the gridder's tile
// epilogue (lane fold, A-term sandwich, taper) and the degridder's
// prologue (its mirror) as shares of the items' busy time, and the
// subgrid FFT stage per four-plane subgrid transform.
func runShortItems(steps int) {
	cfg := repro.DefaultObservation()
	cfg.NrStations, cfg.NrTimesteps, cfg.NrChannels = 24, steps, 2
	cfg.MaxTimestepsPerSubgrid = 8
	cfg.ATermInterval = 16
	// Metrics only: one counter add per tile, no spans.
	observer := &repro.Observer{Metrics: idgobs.NewRegistry()}
	cfg.Observer = observer
	o, err := cfg.Build()
	if err != nil {
		fatal(err)
	}
	pix := o.ImageSize / float64(cfg.GridSize)
	if err := o.FillFromModel(repro.SkyModel{{L: 40 * pix, M: -24 * pix, I: 1}}); err != nil {
		fatal(err)
	}
	beam := repro.GaussianBeamATerms(0.5, 0.01)
	g, gridTimes, err := o.GridAll(context.Background(), beam)
	if err != nil {
		fatal(err)
	}
	gridSnap := observer.Metrics.Snapshot()
	degridTimes, err := o.DegridAll(context.Background(), beam, g)
	if err != nil {
		fatal(err)
	}
	snap := observer.Metrics.Snapshot()
	st := o.Plan.Stats()
	mvis := func(t repro.StageTimes) float64 {
		return float64(st.NrGriddedVisibilities) / t.Total().Seconds() / 1e6
	}
	gridBusy := gridSnap.Histograms[idgobs.HistItemSeconds].Sum
	degridBusy := snap.Histograms[idgobs.HistItemSeconds].Sum - gridBusy
	fmt.Printf("short items: %6.2f MVis/s gridding, %.2f degridding (%d items of %.0f vis); tile epilogue %.0f%% of the gridder's busy time, prologue %.0f%% of the degridder's; subgrid FFT %.1f us per transform\n",
		mvis(gridTimes), mvis(degridTimes),
		len(o.Plan.Items), float64(st.NrGriddedVisibilities)/float64(len(o.Plan.Items)),
		100*float64(snap.Counters[idgobs.MetricGridEpilogueNs])/1e9/gridBusy,
		100*float64(snap.Counters[idgobs.MetricDegridPrologueNs])/1e9/degridBusy,
		float64(snap.Counters[idgobs.StageNsMetric(idgobs.StageFFT)])/1e3/float64(snap.Counters[idgobs.MetricFFTSubgrids]))
}
