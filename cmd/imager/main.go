// Command imager runs the full imaging cycle of Fig. 2 on a synthetic
// observation: simulate visibilities for a hidden sky, grid them with
// IDG, inverse-FFT to a dirty image, extract sources with Högbom
// CLEAN, predict the model visibilities with IDG degridding, subtract,
// and image the residual. It writes dirty.pgm, restored.pgm and
// residual.pgm and prints the recovered source list.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"

	"repro/internal/clean"
	"repro/internal/core"
	"repro/internal/fft"
	"repro/internal/report"
	"repro/internal/sky"
	"repro/internal/weight"
	"repro/internal/xmath"

	"repro"
)

func main() {
	var (
		stations = flag.Int("stations", 20, "number of stations")
		steps    = flag.Int("steps", 128, "time steps")
		channels = flag.Int("channels", 8, "channels")
		gridSize = flag.Int("grid", 512, "grid size in pixels")
		sources  = flag.Int("sources", 3, "number of synthetic sources")
		iters    = flag.Int("clean-iterations", 300, "CLEAN minor cycles")
		outDir   = flag.String("out", ".", "output directory for PGM images")
		scheme   = flag.String("weighting", "natural", "imaging weighting: natural, uniform or robust")
		robust   = flag.Float64("robust", 0.0, "Briggs robustness parameter (weighting=robust)")
		policy   = flag.String("fault-policy", "fail-fast", "work-item failure policy of every IDG pass: fail-fast or skip-and-flag")
		flagClip = flag.Float64("flag-clip", 0, "flag visibilities with amplitude above this (0 disables)")
		timeout  = flag.Duration("timeout", 0, "abort the run after this duration (0 disables)")
		trace    = flag.String("trace", "", "write a chrome://tracing timeline of the pipeline stages to this file")
		metrics  = flag.Bool("metrics", false, "print the pipeline metrics registry at exit")
		shards   = flag.Int("grid-shards", 0, "shard the uv-grid into this many locked row bands for gridding (0: one per worker)")
		inflight = flag.Int("max-inflight", 0, "bound on in-flight chunks of the gridding and degridding passes, which caps peak subgrid memory (0: the worker count)")
		ckptDir  = flag.String("checkpoint-dir", "", "write durable checkpoints of the imaging gridding pass into this directory")
		ckptEach = flag.Int("checkpoint-every", 0, "checkpoint period in gridding chunks (0 with -checkpoint-dir: a default period)")
		resume   = flag.Bool("resume", false, "resume the imaging gridding pass from the newest valid checkpoint in -checkpoint-dir")
	)
	flag.Parse()

	// Mirror the facade's config validation so bad knobs fail here with
	// a usage-shaped message instead of deep inside Build.
	switch {
	case *shards < 0:
		fail(fmt.Errorf("-grid-shards must be >= 0, got %d", *shards))
	case *shards > *gridSize:
		fail(fmt.Errorf("-grid-shards %d exceeds the %d-row grid", *shards, *gridSize))
	case *inflight < 0:
		fail(fmt.Errorf("-max-inflight must be >= 0, got %d", *inflight))
	case *ckptEach < 0:
		fail(fmt.Errorf("-checkpoint-every must be >= 0, got %d", *ckptEach))
	case *ckptEach > 0 && *ckptDir == "":
		fail(fmt.Errorf("-checkpoint-every needs -checkpoint-dir"))
	case *resume && *ckptDir == "":
		fail(fmt.Errorf("-resume needs -checkpoint-dir"))
	}

	// The run is cancellable: Ctrl-C (or the -timeout deadline) aborts
	// the pipelines promptly with ErrCanceled instead of hanging.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	pol, err := repro.ParseFaultPolicy(*policy)
	if err != nil {
		fail(err)
	}
	ft := repro.FaultConfig{Policy: pol}

	cfg := repro.DefaultObservation()
	cfg.NrStations = *stations
	cfg.NrTimesteps = *steps
	cfg.NrChannels = *channels
	cfg.GridSize = *gridSize
	cfg.GridMargin = *gridSize / 16
	cfg.GridShards = *shards
	cfg.MaxInflightChunks = *inflight
	cfg.CheckpointDir = *ckptDir
	cfg.CheckpointEvery = *ckptEach

	// Observation is opt-in: every IDG pass below (imaging, PSF,
	// prediction, residual) reports into the same observer.
	var observer *repro.Observer
	if *trace != "" || *metrics {
		observer = repro.NewObserver(0)
		cfg.Observer = observer
	}

	obs, err := cfg.Build()
	if err != nil {
		fail(err)
	}
	// Log the resolved kernel dispatch once at startup when measuring:
	// metric numbers are only interpretable next to the SIMD tier and
	// sincos evaluator that produced them.
	if *metrics {
		fmt.Println(obs.Kernels.SIMDInfo())
		fmt.Println("fft: " + fft.EngineInfo())
	}
	n := cfg.GridSize
	pix := obs.ImageSize / float64(n)

	// Hidden sky: a few well-separated sources inside the clean beam
	// area.
	truth := make(repro.SkyModel, 0, *sources)
	offsets := [][3]float64{{40, -24, 1.0}, {-72, 52, 0.6}, {16, 88, 0.4}, {-30, -70, 0.3}, {95, 10, 0.25}}
	for i := 0; i < *sources && i < len(offsets); i++ {
		truth = append(truth, repro.PointSource{
			L: offsets[i][0] * pix, M: offsets[i][1] * pix, I: offsets[i][2],
		})
	}
	fmt.Printf("observing %d hidden sources with %d stations, %d steps, %d channels\n",
		len(truth), *stations, *steps, *channels)
	if err := obs.FillFromModel(truth); err != nil {
		fail(err)
	}

	// Flag corrupt samples (NaN/Inf always; amplitude clipping on
	// request) so they enter the gridder with zero weight.
	fstats, err := obs.FlagVisibilities(repro.FlaggingConfig{NonFinite: true, MaxAmplitude: *flagClip})
	if err != nil {
		fail(err)
	}
	if fstats.NewlyFlagged() > 0 {
		fmt.Println(fstats)
	}

	// Imaging weights (natural keeps unit weights).
	var schemeID weight.Scheme
	switch *scheme {
	case "natural":
		schemeID = weight.Natural
	case "uniform":
		schemeID = weight.Uniform
	case "robust":
		schemeID = weight.Robust
	default:
		fail(fmt.Errorf("unknown weighting %q", *scheme))
	}
	weights, err := weight.Compute(weight.Config{
		Scheme: schemeID, Robust: *robust,
		GridSize: *gridSize, ImageSize: obs.ImageSize,
	}, obs.Vis.UVW, cfg.Frequencies())
	if err != nil {
		fail(err)
	}
	totalWeight := weight.Apply(obs.Vis, weights, cfg.Frequencies())
	fmt.Printf("weighting: %s (total weight %.3g)\n", schemeID, totalWeight)

	// --- Imaging: gridding + inverse FFT (Fig. 2 left branch). With
	// -checkpoint-dir the pass writes durable snapshots as it streams;
	// -resume continues from the newest valid one instead of starting
	// over (a clean directory degrades to a full run with a note).
	var (
		g      *repro.Grid
		times  repro.StageTimes
		faults *repro.FaultReport
	)
	if *resume {
		g, times, faults, err = obs.ResumeStreamed(ctx, nil, ft)
	} else {
		g, times, faults, err = obs.GridAllStreamed(ctx, nil, ft)
	}
	if err != nil {
		fail(err)
	}
	if *ckptDir != "" {
		// Only the imaging pass checkpoints: the PSF and residual
		// passes below grid different visibilities over the same plan,
		// so letting them write into the same directory would leave
		// snapshots a later -resume could not tell apart.
		p := obs.Kernels.Params()
		p.CheckpointDir, p.CheckpointEvery = "", 0
		k, err := core.NewKernels(p)
		if err != nil {
			fail(err)
		}
		obs.Kernels = k
	}
	st := obs.Plan.Stats()
	norm := float64(n*n) / totalWeight
	dirty := core.GridToImageInPlace(g, 0)
	core.ScaleImage(dirty, norm)
	corr := obs.Kernels.TaperCorrection(n)
	core.ApplyTaperCorrection(dirty, corr)
	dirtyI := sky.StokesI(dirty)
	writePGM(*outDir, "dirty.pgm", dirtyI, n)
	fmt.Printf("gridded %d visibilities (gridder %.2fs, fft %.2fs [%.1f%% of pass], adder %.2fs)\n",
		st.NrGriddedVisibilities, times.Gridder.Seconds(), times.SubgridFFT.Seconds(),
		100*times.SubgridFFT.Seconds()/times.Total().Seconds(), times.Adder.Seconds())

	// --- PSF: grid unit visibilities.
	psfVis := obs.Vis
	unit := repro.SkyModel{{L: 0, M: 0, I: 1}}
	backup := cloneVis(psfVis)
	if err := obs.FillFromModel(unit); err != nil {
		fail(err)
	}
	weight.Apply(obs.Vis, weights, cfg.Frequencies())
	pg, _, psfFaults, err := obs.GridAllStreamed(ctx, nil, ft)
	if err != nil {
		fail(err)
	}
	faults.Merge(psfFaults)
	psfImg := core.GridToImageInPlace(pg, 0)
	core.ScaleImage(psfImg, norm)
	core.ApplyTaperCorrection(psfImg, corr)
	psf := sky.StokesI(psfImg)
	restoreVis(psfVis, backup)

	// --- CLEAN (Fig. 2: "source extraction").
	res, err := clean.Hogbom(dirtyI, psf, n, clean.Params{
		Gain: 0.15, MaxIterations: *iters, Threshold: 0.02,
	})
	if err != nil {
		fail(err)
	}
	fmt.Printf("CLEAN: %d iterations, residual peak %.4f\n", res.Iterations, res.FinalPeak)

	t := report.NewTable("x", "y", "flux(Jy)", "true flux")
	model := make(repro.SkyModel, 0, len(res.MergedComponents()))
	for _, c := range res.MergedComponents() {
		if c.Flux < 0.05 {
			continue
		}
		l, m := sky.PixelToLM(c.X, c.Y, n, obs.ImageSize)
		model = append(model, repro.PointSource{L: l, M: m, I: c.Flux})
		trueFlux := "-"
		for _, s := range truth {
			sx, sy := sky.LMToPixel(s.L, s.M, n, obs.ImageSize)
			if sx == c.X && sy == c.Y {
				trueFlux = fmt.Sprintf("%.3f", s.I)
			}
		}
		t.AddRow(c.X, c.Y, c.Flux, trueFlux)
	}
	t.Render(os.Stdout)

	// --- Predict (Fig. 2 right branch): FFT + degridding, subtract.
	modelImg := model.Rasterize(n, obs.ImageSize)
	mg := core.ImageToGridInPlace(modelImg, 0)
	predicted, err := core.NewVisibilitySet(obs.Vis.Baselines, obs.Vis.UVW, obs.Vis.NrChannels)
	if err != nil {
		fail(err)
	}
	_, predFaults, err := obs.Kernels.DegridVisibilities(ctx, obs.Plan, predicted, nil, mg, ft)
	if err != nil {
		fail(err)
	}
	faults.Merge(predFaults)
	weight.Apply(predicted, weights, cfg.Frequencies())
	for b := range obs.Vis.Data {
		for i := range obs.Vis.Data[b] {
			obs.Vis.Data[b][i] = obs.Vis.Data[b][i].Sub(predicted.Data[b][i])
		}
	}
	rg, _, resFaults, err := obs.GridAllStreamed(ctx, nil, ft)
	if err != nil {
		fail(err)
	}
	faults.Merge(resFaults)
	resImg := core.GridToImageInPlace(rg, 0)
	core.ScaleImage(resImg, norm)
	core.ApplyTaperCorrection(resImg, corr)
	resI := sky.StokesI(resImg)
	writePGM(*outDir, "residual.pgm", resI, n)

	peak := 0.0
	for _, v := range resI {
		if v > peak {
			peak = v
		}
	}
	fmt.Printf("residual image peak after model subtraction: %.4f (dirty peak was %.4f)\n",
		peak, maxOf(dirtyI))
	// One report for the four IDG passes (imaging, PSF, prediction,
	// residual), all run under -fault-policy.
	for _, note := range faults.Notes {
		fmt.Println("note:", note)
	}
	if faults.Degraded() {
		fmt.Println(faults)
	}

	restored := clean.Restore(res, n, 2.0)
	writePGM(*outDir, "restored.pgm", restored, n)
	fmt.Printf("wrote %s\n", filepath.Join(*outDir, "{dirty,residual,restored}.pgm"))

	if *metrics {
		fmt.Println("\npipeline metrics (all passes):")
		observer.Metrics.Snapshot().Table().Render(os.Stdout)
	}
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			fail(err)
		}
		if err := observer.Tracer.WriteChromeTrace(f); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s (%d spans, %d dropped) - load it in chrome://tracing or ui.perfetto.dev\n",
			*trace, observer.Tracer.Len(), observer.Tracer.Dropped())
	}
}

func cloneVis(vs *repro.VisibilitySet) [][]xmath.Matrix2 {
	out := make([][]xmath.Matrix2, len(vs.Data))
	for b := range vs.Data {
		out[b] = append([]xmath.Matrix2(nil), vs.Data[b]...)
	}
	return out
}

func restoreVis(vs *repro.VisibilitySet, backup [][]xmath.Matrix2) {
	for b := range vs.Data {
		copy(vs.Data[b], backup[b])
	}
}

func maxOf(img []float64) float64 {
	m := 0.0
	for _, v := range img {
		if v > m {
			m = v
		}
	}
	return m
}

func writePGM(dir, name string, img []float64, n int) {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		fail(err)
	}
	defer f.Close()
	if err := report.WritePGM(f, img, n, n); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "imager:", err)
	os.Exit(1)
}
