package faultinject_test

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/faulttol"
	"repro/internal/flagging"
	"repro/internal/grid"
	"repro/internal/layout"
	"repro/internal/plan"
	"repro/internal/uvwsim"
)

// pipeline bundles a small but realistic observation for chaos runs.
type pipeline struct {
	plan    *plan.Plan
	kernels *core.Kernels
	vs      *core.VisibilitySet
}

func buildPipeline(tb testing.TB) *pipeline {
	tb.Helper()
	const (
		nrStations  = 8
		nt          = 64
		nc          = 4
		gridSize    = 256
		subgridSize = 32
	)
	lcfg := layout.SKA1LowConfig()
	lcfg.NrStations = nrStations
	sim := uvwsim.New(layout.Generate(lcfg), uvwsim.DefaultOptions())

	freqs := make([]float64, nc)
	for i := range freqs {
		freqs[i] = 150e6 + float64(i)*1e6
	}
	maxUV := sim.MaxUV(nt) * freqs[nc-1] / uvwsim.SpeedOfLight
	imageSize := float64(gridSize/2-subgridSize) / maxUV

	tracks := sim.AllTracks(nt)
	p, err := plan.New(plan.Config{
		GridSize:               gridSize,
		SubgridSize:            subgridSize,
		ImageSize:              imageSize,
		Frequencies:            freqs,
		KernelSupport:          8,
		MaxTimestepsPerSubgrid: 16,
		ATermUpdateInterval:    32,
	}, tracks)
	if err != nil {
		tb.Fatal(err)
	}
	k, err := core.NewKernels(core.Params{
		GridSize:    gridSize,
		SubgridSize: subgridSize,
		ImageSize:   imageSize,
		Frequencies: freqs,
	})
	if err != nil {
		tb.Fatal(err)
	}
	vs := core.MustNewVisibilitySet(sim.Baselines(), tracks, nc)
	for b := range vs.Data {
		for i := range vs.Data[b] {
			for p := 0; p < 4; p++ {
				vs.Data[b][i][p] = complex(1, 0.5)
			}
		}
	}
	return &pipeline{plan: p, kernels: k, vs: vs}
}

// covers reports whether a work item covers the corrupted sample.
func covers(it plan.WorkItem, c faultinject.Corruption) bool {
	return it.Baseline == c.Baseline &&
		c.Timestep >= it.TimeStart && c.Timestep < it.TimeStart+it.NrTimesteps &&
		c.Channel >= it.Channel0 && c.Channel < it.Channel0+it.NrChannels
}

func gridFinite(g *grid.Grid) bool {
	for c := range g.Data {
		for _, v := range g.Data[c] {
			re, im := real(v), imag(v)
			if math.IsNaN(re) || math.IsInf(re, 0) || math.IsNaN(im) || math.IsInf(im, 0) {
				return false
			}
		}
	}
	return true
}

func TestSelectorIsDeterministic(t *testing.T) {
	pl := buildPipeline(t)
	sel := faultinject.Selector{Fraction: 0.05, Seed: 7}
	n := sel.Count(pl.plan.Items)
	if n == 0 || n == len(pl.plan.Items) {
		t.Fatalf("selector hit %d of %d items; want a nontrivial subset", n, len(pl.plan.Items))
	}
	if again := sel.Count(pl.plan.Items); again != n {
		t.Fatalf("selection not deterministic: %d then %d", n, again)
	}
	other := faultinject.Selector{Fraction: 0.05, Seed: 8}
	if other.Count(pl.plan.Items) == n && other.SelectedVisibilities(pl.plan.Items) == sel.SelectedVisibilities(pl.plan.Items) {
		// Identical hit sets across seeds would make the harness useless.
		same := true
		for i := range pl.plan.Items {
			if sel.Selected(pl.plan.Items[i]) != other.Selected(pl.plan.Items[i]) {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds select identical victims")
		}
	}
}

func TestCorruptVisibilitiesIsDeterministic(t *testing.T) {
	a := buildPipeline(t)
	b := buildPipeline(t)
	ca := faultinject.CorruptVisibilities(a.vs, 0.02, 3)
	cb := faultinject.CorruptVisibilities(b.vs, 0.02, 3)
	if len(ca) == 0 {
		t.Fatal("no samples corrupted")
	}
	if len(ca) != len(cb) {
		t.Fatalf("corruption not deterministic: %d vs %d samples", len(ca), len(cb))
	}
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatalf("corruption %d differs: %+v vs %+v", i, ca[i], cb[i])
		}
	}
	c0 := ca[0]
	v := a.vs.Data[c0.Baseline][c0.Timestep*a.vs.NrChannels+c0.Channel]
	if !math.IsNaN(real(v[0])) {
		t.Fatalf("corrupted sample %+v still finite: %v", c0, v)
	}
}

// TestChaosSkipAndFlag is the acceptance chaos test: with NaNs
// injected into the visibilities and a kernel that panics on ~5% of
// the work items, a skip-and-flag gridding run must complete without
// crashing, report the EXACT number of dropped visibilities, and leave
// the grid finite everywhere.
func TestChaosSkipAndFlag(t *testing.T) {
	pl := buildPipeline(t)
	corrupted := faultinject.CorruptVisibilities(pl.vs, 0.01, 11)
	if len(corrupted) == 0 {
		t.Fatal("corruption selected nothing; lower the seed")
	}
	sel := faultinject.Selector{Fraction: 0.05, Seed: 42}
	if sel.Count(pl.plan.Items) == 0 {
		t.Fatal("panic selector selected nothing")
	}

	// Predict the exact degradation: an item is dropped iff the hook
	// panics in it or it covers an unflagged NaN sample (bad input).
	var wantSkipped int
	var wantDropped int64
	for _, it := range pl.plan.Items {
		doomed := sel.Selected(it)
		if !doomed {
			for _, c := range corrupted {
				if covers(it, c) {
					doomed = true
					break
				}
			}
		}
		if doomed {
			wantSkipped++
			wantDropped += int64(it.NrVisibilities())
		}
	}

	g := grid.NewGrid(pl.plan.GridSize)
	_, rep, err := pl.kernels.GridVisibilities(context.Background(), pl.plan, pl.vs, nil, pl.kernels.NewShardedGrid(g),
		faulttol.Config{Policy: faulttol.SkipAndFlag, Hook: faultinject.PanicHook(sel)}, nil, 0)
	if err != nil {
		t.Fatalf("skip-and-flag run failed: %v", err)
	}
	if !rep.Degraded() {
		t.Fatal("degraded run not reported as degraded")
	}
	if rep.ItemsSkipped != wantSkipped {
		t.Fatalf("skipped %d items, predicted %d", rep.ItemsSkipped, wantSkipped)
	}
	if rep.DroppedVisibilities != wantDropped {
		t.Fatalf("dropped %d visibilities, predicted %d", rep.DroppedVisibilities, wantDropped)
	}
	if rep.ItemsProcessed != len(pl.plan.Items)-wantSkipped {
		t.Fatalf("processed %d items, want %d", rep.ItemsProcessed, len(pl.plan.Items)-wantSkipped)
	}
	if len(rep.ItemErrors) == 0 {
		t.Fatal("no item errors sampled")
	}
	if !gridFinite(g) {
		t.Fatal("grid not finite after degraded run")
	}
}

// Flagged NaN samples enter the gridder with zero weight: nothing is
// dropped and even fail-fast succeeds.
func TestFlaggedCorruptionNeedsNoDegradation(t *testing.T) {
	pl := buildPipeline(t)
	if len(faultinject.CorruptVisibilities(pl.vs, 0.02, 5)) == 0 {
		t.Fatal("corruption selected nothing")
	}
	if flagging.FlagNonFinite(pl.vs) == 0 {
		t.Fatal("flagging found nothing")
	}
	g := grid.NewGrid(pl.plan.GridSize)
	_, rep, err := pl.kernels.GridVisibilities(context.Background(), pl.plan, pl.vs, nil, pl.kernels.NewShardedGrid(g),
		faulttol.Config{Policy: faulttol.FailFast}, nil, 0)
	if err != nil {
		t.Fatalf("fail-fast run over flagged data failed: %v", err)
	}
	if rep.Degraded() {
		t.Fatalf("flagged data degraded the run: %v", rep)
	}
	if !gridFinite(g) {
		t.Fatal("grid not finite")
	}
}

// Under fail-fast an injected panic aborts the run with a typed
// per-item error.
func TestFailFastAbortsOnInjectedPanic(t *testing.T) {
	pl := buildPipeline(t)
	sel := faultinject.Selector{Fraction: 0.05, Seed: 42}
	g := grid.NewGrid(pl.plan.GridSize)
	_, _, err := pl.kernels.GridVisibilities(context.Background(), pl.plan, pl.vs, nil, pl.kernels.NewShardedGrid(g),
		faulttol.Config{Policy: faulttol.FailFast, Hook: faultinject.PanicHook(sel)}, nil, 0)
	if err == nil {
		t.Fatal("fail-fast run succeeded despite injected panics")
	}
	if !errors.Is(err, faulttol.ErrKernelPanic) {
		t.Fatalf("error not typed as kernel panic: %v", err)
	}
	var ie *faulttol.ItemError
	if !errors.As(err, &ie) {
		t.Fatalf("error not an ItemError: %v", err)
	}
	if !sel.Selected(plan.WorkItem{Baseline: ie.Baseline, TimeStart: ie.TimeStart, Channel0: ie.Channel0}) {
		t.Fatalf("reported item %+v was not a victim", ie)
	}
}

// A canceled context aborts a long (straggler-delayed) gridding run
// promptly with ErrCanceled.
func TestCancellationAbortsPromptly(t *testing.T) {
	pl := buildPipeline(t)
	// Every item sleeps 2ms: the full run would take far longer than
	// the 15ms deadline.
	hook := faultinject.DelayHook(faultinject.Selector{Fraction: 1}, 2*time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	g := grid.NewGrid(pl.plan.GridSize)
	start := time.Now()
	_, _, err := pl.kernels.GridVisibilities(ctx, pl.plan, pl.vs, nil, pl.kernels.NewShardedGrid(g),
		faulttol.Config{Policy: faulttol.SkipAndFlag, Hook: hook}, nil, 0)
	elapsed := time.Since(start)
	if !errors.Is(err, faulttol.ErrCanceled) {
		t.Fatalf("expected ErrCanceled, got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("context cause lost: %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation not prompt: took %v", elapsed)
	}
}

// An already-canceled context aborts before any work happens.
func TestPreCanceledContext(t *testing.T) {
	pl := buildPipeline(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := grid.NewGrid(pl.plan.GridSize)
	if _, _, err := pl.kernels.GridVisibilities(ctx, pl.plan, pl.vs, nil, pl.kernels.NewShardedGrid(g), faulttol.Config{}, nil, 0); !errors.Is(err, faulttol.ErrCanceled) {
		t.Fatalf("gridding: expected ErrCanceled, got %v", err)
	}
	if _, _, err := pl.kernels.DegridVisibilities(ctx, pl.plan, pl.vs, nil, g, faulttol.Config{}); !errors.Is(err, faulttol.ErrCanceled) {
		t.Fatalf("degridding: expected ErrCanceled, got %v", err)
	}
}

// Degridding under skip-and-flag drops the same predicted items.
func TestChaosDegridSkipAndFlag(t *testing.T) {
	pl := buildPipeline(t)
	sel := faultinject.Selector{Fraction: 0.05, Seed: 21}
	want := sel.SelectedVisibilities(pl.plan.Items)
	if want == 0 {
		t.Fatal("selector selected nothing")
	}
	g := grid.NewGrid(pl.plan.GridSize)
	_, rep, err := pl.kernels.DegridVisibilities(context.Background(), pl.plan, pl.vs, nil, g,
		faulttol.Config{Policy: faulttol.SkipAndFlag, Hook: faultinject.PanicHook(sel)})
	if err != nil {
		t.Fatalf("degrid skip-and-flag failed: %v", err)
	}
	if rep.DroppedVisibilities != want {
		t.Fatalf("dropped %d visibilities, predicted %d", rep.DroppedVisibilities, want)
	}
}
