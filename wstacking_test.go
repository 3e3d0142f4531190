package repro

import (
	"context"
	"errors"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/clean"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/faultinject"
	"repro/internal/faulttol"
	"repro/internal/grid"
	"repro/internal/taper"
)

// W-stacking through every facade path. W-stacking is a property of
// the plan, so each path below runs the same two passes; on
// examples/wstacking's observation each must recover the source, give
// the same bits twice at one worker, and stay within 1e-12 of its peak
// across worker counts and both distributed axes.

// wstackConfig is examples/wstacking's W-stacked observation: a
// core-only layout 82 degrees from transit (max |w| ~360 wavelengths)
// on a 256-pixel grid with 12-pixel subgrids, in 60-wavelength layers.
func wstackConfig(workers int) ObservationConfig {
	cfg := DefaultObservation()
	cfg.NrStations = 10
	cfg.NrTimesteps = 96
	cfg.NrChannels = 2
	cfg.GridSize = 256
	cfg.SubgridSize = 12
	cfg.KernelSupport = 3
	cfg.GridMargin = 32
	cfg.CoreOnly = true
	cfg.HourAngleStartDeg = -82
	cfg.WStepLambda = 60
	cfg.Workers = workers
	return cfg
}

// wstackModel is the example's 1 Jy source far from the phase centre,
// where n(l,m) — and with it the w error of an unstacked pass — is
// largest.
func wstackModel(o *Observation) SkyModel {
	pix := o.ImageSize / float64(o.Config.GridSize)
	return SkyModel{{L: 85 * pix, M: 62 * pix, I: 1}}
}

// wstackObservation builds the observation at the given worker count
// and fills it with the model's exact visibilities.
func wstackObservation(t *testing.T, workers int) *Observation {
	t.Helper()
	o, err := wstackConfig(workers).Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := o.FillFromModel(wstackModel(o)); err != nil {
		t.Fatal(err)
	}
	return o
}

// wstackPath is one facade path: run returns its output (a grid, an
// image or visibilities, as real numbers) and check asserts that the
// output recovers the source.
type wstackPath struct {
	name  string
	run   func(t *testing.T, workers int) []float64
	check func(t *testing.T, out []float64)
}

func flatGrid(g *Grid) []float64 {
	out := make([]float64, 0, 2*grid.NrCorrelations*g.N*g.N)
	for c := range g.Data {
		for _, v := range g.Data[c] {
			out = append(out, real(v), imag(v))
		}
	}
	return out
}

// checkDirtyStokesI asserts that a Stokes I dirty image holds its
// |peak| at the source pixel, at >= 0.95 of the source's flux.
func checkDirtyStokesI(t *testing.T, dirty []float64) {
	t.Helper()
	o, err := wstackConfig(1).BuildPlan()
	if err != nil {
		t.Fatal(err)
	}
	src, n := wstackModel(o)[0], o.Config.GridSize
	x, y := LMToPixel(src.L, src.M, n, o.ImageSize)
	peak := 0
	for i, v := range dirty {
		if math.Abs(v) > math.Abs(dirty[peak]) {
			peak = i
		}
	}
	if got := dirty[y*n+x]; peak != y*n+x || got < 0.95*src.I {
		t.Fatalf("dirty image reads %.4f at the source pixel (%d,%d), |peak| %.4f at (%d,%d)",
			got, x, y, dirty[peak], peak%n, peak/n)
	}
}

// checkGridImage images a gridded uv grid as DirtyImage does and
// checks the source comes back.
func checkGridImage(t *testing.T, flat []float64) {
	t.Helper()
	o, err := wstackConfig(1).BuildPlan()
	if err != nil {
		t.Fatal(err)
	}
	n := o.Config.GridSize
	g := grid.NewGrid(n)
	for c := range g.Data {
		for i := range g.Data[c] {
			k := 2 * (c*n*n + i)
			g.Data[c][i] = complex(flat[k], flat[k+1])
		}
	}
	img := core.GridToImage(g, 1)
	core.ScaleImage(img, float64(n*n)/float64(o.Plan.Stats().NrGriddedVisibilities))
	core.ApplyTaperCorrection(img, o.Kernels.TaperCorrection(n))
	checkDirtyStokesI(t, StokesI(img))
}

// wstackDistributed runs RunDistributed on the W-stacked observation.
func wstackDistributed(t *testing.T, workers int, axis DistribAxis) []float64 {
	t.Helper()
	cfg := wstackConfig(1)
	o, err := cfg.BuildPlan()
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := RunDistributed(context.Background(), DistribOptions{
		Config: cfg, Model: wstackModel(o), Workers: workers, Axis: axis,
	})
	if err != nil {
		t.Fatal(err)
	}
	return flatGrid(g)
}

func wstackPaths() []wstackPath {
	gridPath := func(pass func(o *Observation) (*Grid, error)) func(t *testing.T, workers int) []float64 {
		return func(t *testing.T, workers int) []float64 {
			g, err := pass(wstackObservation(t, workers))
			if err != nil {
				t.Fatal(err)
			}
			return flatGrid(g)
		}
	}
	return []wstackPath{
		{"GridAll", gridPath(func(o *Observation) (*Grid, error) {
			g, _, err := o.GridAll(context.Background(), nil)
			return g, err
		}), checkGridImage},
		{"GridAllStreamed", gridPath(func(o *Observation) (*Grid, error) {
			g, _, _, err := o.GridAllStreamed(context.Background(), nil, FaultConfig{Policy: faulttol.SkipAndFlag})
			return g, err
		}), checkGridImage},
		{"ResumeStreamed", func(t *testing.T, workers int) []float64 {
			return flatGrid(wstackKilledAndResumed(t, workers))
		}, checkGridImage},
		{"DirtyImage", func(t *testing.T, workers int) []float64 {
			img, err := wstackObservation(t, workers).DirtyImage(context.Background(), nil)
			if err != nil {
				t.Fatal(err)
			}
			return StokesI(img)
		}, checkDirtyStokesI},
		{"DegridAll", func(t *testing.T, workers int) []float64 {
			o := wstackObservation(t, workers)
			g := ImageToGrid(wstackModel(o).Rasterize(o.Config.GridSize, o.ImageSize), 0)
			if _, err := o.DegridAll(context.Background(), nil, g); err != nil {
				t.Fatal(err)
			}
			if e := wstackDegridError(o); e > 1e-4 {
				t.Fatalf("DegridAll max relative error %.3e, want <= 1e-4", e)
			}
			var out []float64
			for b := range o.Vis.Data {
				for _, m := range o.Vis.Data[b] {
					for _, v := range m {
						out = append(out, real(v), imag(v))
					}
				}
			}
			return out
		}, func(*testing.T, []float64) {}},
		{"ImagingCycle", func(t *testing.T, workers int) []float64 {
			o := wstackObservation(t, workers)
			res, err := o.ImagingCycle(context.Background(), CycleConfig{
				MajorCycles: 3, CycleDepth: 0.3,
				Clean: CleanParams{Gain: 0.2, MaxIterations: 200, Threshold: 0.02},
			})
			if err != nil {
				t.Fatal(err)
			}
			// The model's flux at the source pixel, the residual's there,
			// then the whole residual image.
			n, src := o.Config.GridSize, wstackModel(o)[0]
			sx, sy := LMToPixel(src.L, src.M, n, o.ImageSize)
			flux := 0.0
			for _, c := range res.Model {
				if x, y := LMToPixel(c.L, c.M, n, o.ImageSize); x == sx && y == sy {
					flux += c.I
				}
			}
			return append([]float64{flux, res.Residual[sy*n+sx]}, res.Residual...)
		}, func(t *testing.T, out []float64) {
			// CLEAN stops at a depth, so the model holds most of the
			// source and the residual the rest.
			if model, rest := out[0], out[1]; model < 0.9 || math.Abs(model+rest-1) > 0.02 {
				t.Fatalf("imaging cycle holds %.4f Jy at the source pixel (model) + %.4f (residual), want 1", model, rest)
			}
		}},
		{"RunDistributed/rows", func(t *testing.T, workers int) []float64 {
			return wstackDistributed(t, workers, DistribRows)
		}, checkGridImage},
		{"RunDistributed/wplanes", func(t *testing.T, workers int) []float64 {
			return wstackDistributed(t, workers, distrib.AxisWPlanes)
		}, checkGridImage},
	}
}

// wstackKilledAndResumed runs a checkpointed GridAllStreamed that is
// killed at a snapshot rename past the plan's middle chunk, then
// finishes it with ResumeStreamed from the surviving snapshot.
func wstackKilledAndResumed(t *testing.T, workers int) *Grid {
	t.Helper()
	o := wstackObservation(t, workers)
	o.Config.CheckpointDir = t.TempDir()
	p := o.Kernels.Params()
	p.CheckpointDir = o.Config.CheckpointDir
	chunks := len(o.Plan.StreamChunks(o.Kernels.StreamChunkItems(len(o.Plan.Items))))
	p.CheckpointHook = faultinject.CrashHook(checkpoint.EventBeforeRename, chunks/2)
	killed, err := core.NewKernels(p)
	if err != nil {
		t.Fatal(err)
	}
	p.CheckpointHook = nil
	clean, err := core.NewKernels(p)
	if err != nil {
		t.Fatal(err)
	}
	o.Kernels = killed
	func() {
		defer func() {
			if _, ok := recover().(faultinject.Kill); !ok {
				t.Fatal("checkpointed pass was not killed")
			}
		}()
		o.GridAllStreamed(context.Background(), nil, FaultConfig{})
	}()
	if sn, _, _, err := checkpoint.LoadLatest(o.Config.CheckpointDir); err != nil || sn == nil || sn.NextChunk == 0 {
		t.Fatalf("no mid-plan snapshot to resume from (%v)", err)
	}
	o.Kernels = clean
	g, _, _, err := o.ResumeStreamed(context.Background(), nil, FaultConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// wstackDegridError is the max relative deviation of the predicted
// visibilities from the taper-weighted measurement equation
// (Model.Predict).
func wstackDegridError(o *Observation) float64 {
	src := wstackModel(o)[0]
	half := o.ImageSize / 2
	flux := src.I * taper.Spheroidal(src.L/half) * taper.Spheroidal(src.M/half)
	expect := SkyModel{{L: src.L, M: src.M, I: flux}}
	freqs := o.Config.Frequencies()
	maxErr := 0.0
	for b := range o.Vis.Data {
		for t := 0; t < o.Vis.NrTimesteps; t++ {
			for c := range freqs {
				sc := o.Vis.UVW[b][t].Scale(freqs[c])
				got := o.Vis.Data[b][t*o.Vis.NrChannels+c]
				maxErr = math.Max(maxErr, got.MaxAbsDiff(expect.Predict(sc.U, sc.V, sc.W))/flux)
			}
		}
	}
	return maxErr
}

// TestWStackedPaths: every facade path recovers the source of the
// W-stacked observation, repeats its bits at one worker, and agrees
// to 1e-12 of its peak at two workers — and for RunDistributed, at
// two and three workers on both axes, and bitwise at one with GridAll.
func TestWStackedPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("about fifty W-stacked passes in -short mode")
	}
	var gridAll []float64
	for _, p := range wstackPaths() {
		t.Run(p.name, func(t *testing.T) {
			ref := p.run(t, 1)
			p.check(t, ref)
			if again := p.run(t, 1); !sameBits(ref, again) {
				t.Fatalf("two runs at one worker differ by %g", maxDiff(ref, again))
			}
			switch p.name {
			case "GridAll":
				gridAll = ref
			case "RunDistributed/rows", "RunDistributed/wplanes":
				if gridAll != nil && !sameBits(ref, gridAll) {
					t.Fatalf("1-worker run differs from GridAll by %g", maxDiff(ref, gridAll))
				}
			}
			workers := []int{2}
			if p.name == "RunDistributed/rows" || p.name == "RunDistributed/wplanes" {
				workers = []int{2, 3}
			}
			peak := maxDiff(ref, make([]float64, len(ref)))
			for _, w := range workers {
				out := p.run(t, w)
				p.check(t, out)
				if d := maxDiff(ref, out); d > 1e-12*peak {
					t.Errorf("%d workers differ from one by %g (%.1e of peak)", w, d, d/peak)
				}
			}
		})
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func maxDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	d := 0.0
	for i := range a {
		d = math.Max(d, math.Abs(a[i]-b[i]))
	}
	return d
}

// TestWStackedResumeRefusesBaselineMajorSnapshot: a W-stacked plan now
// lists its items layer by layer, so a snapshot written for the same
// items in baseline-major order — the order W-stacked plans had before
// their passes ran layer by layer — is a different plan.
func TestWStackedResumeRefusesBaselineMajorSnapshot(t *testing.T) {
	cfg := wstackConfig(1)
	cfg.CheckpointDir = t.TempDir()
	o, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	old := *o.Plan
	old.Items = append([]WorkItem(nil), o.Plan.Items...)
	sort.SliceStable(old.Items, func(i, j int) bool {
		a, b := old.Items[i], old.Items[j]
		if a.Baseline != b.Baseline {
			return a.Baseline < b.Baseline
		}
		if a.Channel0 != b.Channel0 {
			return a.Channel0 < b.Channel0
		}
		return a.TimeStart < b.TimeStart
	})
	sn := &checkpoint.Snapshot{
		GridSize:   cfg.GridSize,
		NextChunk:  1,
		ChunkItems: o.Kernels.StreamChunkItems(len(o.Plan.Items)),
		PlanSum:    checkpoint.PlanFingerprint(&old),
		Grid:       grid.NewGrid(cfg.GridSize),
	}
	if _, _, err := checkpoint.Write(cfg.CheckpointDir, sn, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := o.ResumeStreamed(context.Background(), nil, FaultConfig{}); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("resume from a baseline-major snapshot: %v, want ErrCheckpointMismatch", err)
	}
}

// TestDistribWPlanesNeedsWStacking: more than one worker on the
// W-planes axis of an unstacked observation would leave every item to
// worker 0, so RunDistributed refuses it with a ConfigError naming
// WStepLambda.
func TestDistribWPlanesNeedsWStacking(t *testing.T) {
	opt := distribGoldenOptions(t, 2, distrib.AxisWPlanes)
	_, _, err := RunDistributed(context.Background(), opt)
	var ce *ConfigError
	if !errors.As(err, &ce) || ce.Field != "WStepLambda" {
		t.Fatalf("2-worker wplanes run without W-stacking: %v, want a WStepLambda ConfigError", err)
	}
	if !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("%v does not match ErrInvalidConfig", err)
	}
}

// TestImagingCycleRefusesSidelobePSF: without W-stacking, the
// example's PSF has an edge pixel far brighter than its centre (taper
// correction amplifies the edge), on which CLEAN would diverge to a NaN
// model; the cycle returns ErrPSFSidelobe instead.
func TestImagingCycleRefusesSidelobePSF(t *testing.T) {
	cfg := wstackConfig(1)
	cfg.WStepLambda = 0
	o, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := o.FillFromModel(wstackModel(o)); err != nil {
		t.Fatal(err)
	}
	_, err = o.ImagingCycle(context.Background(), CycleConfig{
		MajorCycles: 3, CycleDepth: 0.3,
		Clean: CleanParams{Gain: 0.2, MaxIterations: 200, Threshold: 0.02},
	})
	if !errors.Is(err, clean.ErrPSFSidelobe) {
		t.Fatalf("imaging cycle on the unstacked observation: %v, want ErrPSFSidelobe", err)
	}
}

// TestWStackedPassAllocations: a W-stacked pass transforms each layer
// in place and, degridding, rebuilds every layer's grid in one buffer
// from one image. With four or more layers GridAll allocates at most
// one grid more than the same pass unstacked, DegridAll at most two.
func TestWStackedPassAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers, so the pass allocates them again")
	}
	stacked := wstackObservation(t, 1)
	cfg := wstackConfig(1)
	cfg.WStepLambda = 0
	plain, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.FillFromModel(wstackModel(plain)); err != nil {
		t.Fatal(err)
	}
	layers := map[int]bool{}
	for _, it := range stacked.Plan.Items {
		layers[it.WPlane] = true
	}
	if len(layers) < 4 {
		t.Fatalf("%d W-layers, want at least 4", len(layers))
	}
	n := cfg.GridSize
	gridBytes := uint64(grid.NrCorrelations * n * n * 16)
	// No collection during the measurement: it would empty the
	// transform's scratch pools, whose refill is not a grid.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocated := func(f func()) uint64 {
		f() // warm plans and pools
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		f()
		runtime.ReadMemStats(&b)
		return b.TotalAlloc - a.TotalAlloc
	}
	ctx := context.Background()
	gridAll := func(o *Observation) func() {
		return func() {
			if _, _, err := o.GridAll(ctx, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	g, _, err := plain.GridAll(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	degridAll := func(o *Observation) func() {
		return func() {
			if _, err := o.DegridAll(ctx, nil, g); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Half a grid of slack covers the per-pass bookkeeping; a layer
	// that still allocated its own grids would exceed it many times.
	if s, p := allocated(gridAll(stacked)), allocated(gridAll(plain)); s > p+gridBytes+gridBytes/2 {
		t.Errorf("W-stacked GridAll allocates %d B against %d B unstacked: more than one %d-B grid beyond", s, p, gridBytes)
	}
	if s, p := allocated(degridAll(stacked)), allocated(degridAll(plain)); s > p+2*gridBytes+gridBytes/2 {
		t.Errorf("W-stacked DegridAll allocates %d B against %d B unstacked: more than two %d-B grids beyond", s, p, gridBytes)
	}
}
