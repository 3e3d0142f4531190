package core

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/aterm"
	"repro/internal/faulttol"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/xmath"
)

// observedScenario rebuilds a scenario's kernels with an attached
// observer (buildScenario constructs unobserved kernels).
func observedScenario(tb testing.TB, sc scenarioConfig) (*scenario, *obs.Observer) {
	tb.Helper()
	s := buildScenario(tb, sc)
	ob := obs.New(0)
	p := s.kernels.Params()
	p.Observer = ob
	k, err := NewKernels(p)
	if err != nil {
		tb.Fatal(err)
	}
	s.kernels = k
	return s, ob
}

// TestObserverStageCountsMatchPlan is the acceptance-criteria check:
// with observation enabled, the per-stage visibility counters must
// exactly match the plan's totals, for both pipelines.
func TestObserverStageCountsMatchPlan(t *testing.T) {
	s, ob := observedScenario(t, defaultScenarioConfig())
	s.fillFromModel(nil)
	ctx := context.Background()
	g := grid.NewGrid(s.plan.GridSize)
	if _, err := s.kernels.GridVisibilities(ctx, s.plan, s.vs, nil, g); err != nil {
		t.Fatal(err)
	}
	if _, err := s.kernels.DegridVisibilities(ctx, s.plan, s.vs, nil, g); err != nil {
		t.Fatal(err)
	}

	st := s.plan.Stats()
	snap := ob.Metrics.Snapshot()
	nItems := int64(len(s.plan.Items))
	wantCounters := map[string]int64{
		obs.MetricGridVisibilities:   st.NrGriddedVisibilities,
		obs.MetricDegridVisibilities: st.NrGriddedVisibilities,
		obs.MetricGridSubgrids:       nItems,
		obs.MetricDegridSubgrids:     nItems,
		obs.MetricFFTSubgrids:        2 * nItems, // forward + inverse
		obs.MetricAddedSubgrids:      nItems,
		obs.MetricSplitSubgrids:      nItems,
	}
	for name, want := range wantCounters {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	for _, name := range []string{
		obs.MetricFlaggedVisibilities,
		obs.MetricItemRetries,
		obs.MetricItemSkips,
		obs.MetricKernelPanics,
		obs.MetricDroppedVisibilities,
	} {
		if got := snap.Counters[name]; got != 0 {
			t.Errorf("%s = %d, want 0 on a clean run", name, got)
		}
	}
	// Kernel dispatch-path counters must add up to one invocation per
	// item per pipeline.
	paths := snap.Counters[obs.MetricKernelPathReference] +
		snap.Counters[obs.MetricKernelPathVector] +
		snap.Counters[obs.MetricKernelPathVector32]
	if paths != 2*nItems {
		t.Errorf("kernel path counters sum to %d, want %d", paths, 2*nItems)
	}
	// Per-stage wall time was recorded for all five pipeline stages.
	for _, stage := range []obs.Stage{obs.StageGrid, obs.StageDegrid,
		obs.StageFFT, obs.StageAdd, obs.StageSplit} {
		if got := snap.Counters[obs.StageNsMetric(stage)]; got <= 0 {
			t.Errorf("%s = %d, want > 0", obs.StageNsMetric(stage), got)
		}
	}
	// The latency histogram saw every item of both passes.
	if got := snap.Histograms[obs.HistItemSeconds].Count; got != 2*nItems {
		t.Errorf("item latency count = %d, want %d", got, 2*nItems)
	}
}

// TestObserverGridEpilogueCounter: an observed gridding pass reports
// the tiles' epilogue busy time (lane fold, A-term sandwich, taper,
// store), and a degridding pass its mirror, the prologue — each a
// positive part of, and less than, its pass's item time.
func TestObserverGridEpilogueCounter(t *testing.T) {
	s, ob := observedScenario(t, defaultScenarioConfig())
	s.fillFromModel(nil)
	g := grid.NewGrid(s.plan.GridSize)
	if _, err := s.kernels.GridVisibilities(context.Background(), s.plan, s.vs, aterm.Identity{}, g); err != nil {
		t.Fatal(err)
	}
	snap := ob.Metrics.Snapshot()
	gridItems := snap.Histograms[obs.HistItemSeconds].Sum
	if _, err := s.kernels.DegridVisibilities(context.Background(), s.plan, s.vs, aterm.Identity{}, g); err != nil {
		t.Fatal(err)
	}
	snap = ob.Metrics.Snapshot()
	for _, c := range []struct {
		metric string
		items  float64
	}{
		{obs.MetricGridEpilogueNs, gridItems},
		{obs.MetricDegridPrologueNs, snap.Histograms[obs.HistItemSeconds].Sum - gridItems},
	} {
		busy := float64(snap.Counters[c.metric]) / 1e9
		if busy <= 0 || busy >= c.items {
			t.Errorf("%s = %g s against %g s of item time, want a positive part of it", c.metric, busy, c.items)
		}
	}
}

// TestObserverTraceRoundTrip runs an observed pass and pushes the
// recorded trace through the JSON encoder and the new decoder
// (acceptance criteria), checking span structure along the way.
func TestObserverTraceRoundTrip(t *testing.T) {
	s, ob := observedScenario(t, defaultScenarioConfig())
	s.fillFromModel(nil)
	g := grid.NewGrid(s.plan.GridSize)
	if _, err := s.kernels.GridVisibilities(context.Background(), s.plan, s.vs, nil, g); err != nil {
		t.Fatal(err)
	}

	spans := ob.Tracer.Spans()
	stageSpans := map[obs.Stage]int{}
	itemSpans := 0
	for _, sp := range spans {
		if sp.Item < 0 {
			stageSpans[sp.Stage]++
			continue
		}
		itemSpans++
		if sp.Stage != obs.StageGrid {
			t.Fatalf("item span with stage %q, want grid", sp.Stage)
		}
		if sp.Worker < 0 || sp.Baseline < 0 {
			t.Fatalf("item span missing attribution: %+v", sp)
		}
	}
	for _, stage := range []obs.Stage{obs.StageGrid, obs.StageFFT, obs.StageAdd} {
		if stageSpans[stage] == 0 {
			t.Errorf("no stage-level span for %q", stage)
		}
	}
	if itemSpans != len(s.plan.Items) {
		t.Errorf("item spans = %d, want %d", itemSpans, len(s.plan.Items))
	}

	var buf bytes.Buffer
	if err := ob.Tracer.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err := obs.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr.Spans, spans) {
		t.Fatal("trace JSON round trip changed the spans")
	}
	var chrome bytes.Buffer
	if err := ob.Tracer.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	if chrome.Len() == 0 {
		t.Fatal("empty chrome trace")
	}
}

// TestObserverFlaggedAndFaultCounts checks the degradation-side
// metrics: flagged samples, recovered panics, retries, skips and
// dropped visibilities must mirror the faulttol report exactly.
func TestObserverFlaggedAndFaultCounts(t *testing.T) {
	s, ob := observedScenario(t, defaultScenarioConfig())
	s.fillFromModel(nil)
	// Flag one full timestep of baseline 0.
	for c := 0; c < s.vs.NrChannels; c++ {
		s.vs.FlagSample(0, 3, c)
	}

	// Panic on every attempt for one specific item: under SkipAndFlag
	// with one retry that is 2 recovered panics, 1 skip.
	var target plan.WorkItem
	for _, it := range s.plan.Items {
		if it.Baseline == 1 {
			target = it
			break
		}
	}
	ft := faulttol.Config{
		Policy:     faulttol.SkipAndFlag,
		MaxRetries: 1,
		Hook: func(item plan.WorkItem, attempt int) {
			if item.Baseline == target.Baseline && item.TimeStart == target.TimeStart &&
				item.Channel0 == target.Channel0 && item.X0 == target.X0 && item.Y0 == target.Y0 {
				panic("injected")
			}
		},
	}
	g := grid.NewGrid(s.plan.GridSize)
	_, rep, err := s.kernels.GridVisibilitiesFT(context.Background(), s.plan, s.vs, nil, g, ft)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ItemsSkipped != 1 {
		t.Fatalf("report skips = %d, want 1", rep.ItemsSkipped)
	}

	snap := ob.Metrics.Snapshot()
	if got := snap.Counters[obs.MetricKernelPanics]; got != 2 {
		t.Errorf("panics = %d, want 2 (initial attempt + retry)", got)
	}
	if got := snap.Counters[obs.MetricItemSkips]; got != int64(rep.ItemsSkipped) {
		t.Errorf("skips = %d, want %d", got, rep.ItemsSkipped)
	}
	if got := snap.Counters[obs.MetricDroppedVisibilities]; got != rep.DroppedVisibilities {
		t.Errorf("dropped = %d, want %d", got, rep.DroppedVisibilities)
	}
	if got := snap.Counters[obs.MetricItemRetries]; got != int64(rep.ItemsRetried) {
		t.Errorf("retries = %d, want %d", got, rep.ItemsRetried)
	}
	// The flagged timestep is seen once per plan item covering
	// (baseline 0, timestep 3): count those.
	var wantFlagged int64
	for _, it := range s.plan.Items {
		if it.Baseline == 0 && it.TimeStart <= 3 && 3 < it.TimeStart+it.NrTimesteps {
			wantFlagged += int64(it.NrChannels)
		}
	}
	if wantFlagged == 0 {
		t.Fatal("test bug: no plan item covers the flagged timestep")
	}
	if got := snap.Counters[obs.MetricFlaggedVisibilities]; got != wantFlagged {
		t.Errorf("flagged = %d, want %d", got, wantFlagged)
	}
	// Successful visibilities = plan total minus the dropped item.
	want := s.plan.Stats().NrGriddedVisibilities - rep.DroppedVisibilities
	if got := snap.Counters[obs.MetricGridVisibilities]; got != want {
		t.Errorf("gridded vis = %d, want %d", got, want)
	}
}

// TestObserverDisabledZeroCost pins the contract that makes a nil
// observer free: no allocations on the kernel hot path (the benchmark
// acceptance bar) and no instruments materialized anywhere.
func TestObserverDisabledZeroCost(t *testing.T) {
	s := buildScenario(t, defaultScenarioConfig())
	if s.kernels.ob != nil {
		t.Fatal("kernels without Params.Observer must carry a nil kernelObs")
	}
	s.fillFromModel(nil)
	item := s.plan.Items[0]
	sgr := grid.NewSubgrid(s.plan.SubgridSize, item.X0, item.Y0)
	visBuf := s.vs.Data[item.Baseline][:item.NrVisibilities()]
	// Warm the scratch pool, then demand zero allocations per call.
	s.kernels.GridSubgrid(item, s.vs.itemUVW(item), visBuf, nil, nil, sgr)
	if raceEnabled {
		// The instrumented sync.Pool drops items at random, so scratch
		// reuse is not guaranteed per call; the benchmarks and the
		// non-race run of this test pin the 0 allocs/op contract.
		t.Skip("allocation counts are unreliable under the race detector")
	}
	allocs := testing.AllocsPerRun(10, func() {
		s.kernels.GridSubgrid(item, s.vs.itemUVW(item), visBuf, nil, nil, sgr)
	})
	if allocs != 0 {
		t.Errorf("GridSubgrid with nil observer: %v allocs/op, want 0", allocs)
	}
}

// TestKernelsZeroAllocs is the deterministic half of the kernels'
// performance contract: once warm, one worker's GridSubgrid and
// DegridSubgrid allocate nothing, in both precisions, for the dense
// item (128 steps of 16 channels, no A-terms) and the short one (8
// steps of 2 channels, Gaussian A-terms), on every tier the host has.
// A tile that allocates fails here whatever the host's timing does.
func TestKernelsZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	const sg = 24
	atermP, atermQ := gaussianJones(sg)
	for _, sh := range []struct {
		name   string
		nt, nc int
		aterms bool
	}{{"dense", 128, 16, false}, {"short", 8, 2, true}} {
		item, uvw, vis, _ := tilingItem(89, sh.nt, sh.nc)
		in, _ := randomSubgrid(sg, item, 97)
		p, q := atermP, atermQ
		if !sh.aterms {
			p, q = nil, nil
		}
		for _, tier := range coreHostTiers() {
			for _, prec := range []Precision{Float64, Float32} {
				k := tilingKernels(t, sg, sh.nc, func(pr *Params) {
					pr.Precision, pr.Workers = prec, 1
					forceTier(tier)(pr)
				})
				out := grid.NewSubgrid(sg, item.X0, item.Y0)
				dst := make([]xmath.Matrix2, len(vis))
				for name, call := range map[string]func(){
					"GridSubgrid":   func() { k.GridSubgrid(item, uvw, vis, p, q, out) },
					"DegridSubgrid": func() { k.DegridSubgrid(item, in, uvw, p, q, dst) },
				} {
					call() // warm the scratch pool
					if allocs := testing.AllocsPerRun(5, call); allocs != 0 {
						t.Errorf("%s %s %v %v: %v allocs/op, want 0", name, sh.name, tier, prec, allocs)
					}
				}
			}
		}
	}
}
