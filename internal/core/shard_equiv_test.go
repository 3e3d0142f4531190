package core

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/faulttol"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/plan"
)

// shardCounts is the equivalence matrix of the issue: one shard (the
// bitwise-deterministic degenerate case), powers of two, a prime that
// does not divide any test grid size, and the machine's core count.
func shardCounts() []int {
	counts := []int{1, 2, 4, 7, runtime.NumCPU()}
	seen := map[int]bool{}
	out := counts[:0]
	for _, c := range counts {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// randomShardSubgrids builds a batch of random uv-domain subgrids
// scattered over a gridSize grid, tagged with W-layers.
func randomShardSubgrids(n, gridSize, sgSize int, seed uint64) []*grid.Subgrid {
	rnd := newTestRand(seed)
	pos := func() int { return int((rnd() + 1) / 2 * float64(gridSize-sgSize)) }
	subgrids := make([]*grid.Subgrid, n)
	for i := range subgrids {
		s := grid.NewSubgrid(sgSize, pos(), pos())
		s.WPlane = i % 3
		for c := range s.Data {
			for j := range s.Data[c] {
				s.Data[c][j] = complex(rnd(), rnd())
			}
		}
		subgrids[i] = s
	}
	return subgrids
}

// relMaxDiff returns the largest per-pixel difference between two
// grids relative to b's peak magnitude.
func relMaxDiff(a, b *grid.Grid) float64 {
	peak := 0.0
	for c := range b.Data {
		for _, v := range b.Data[c] {
			if m := cAbs(v); m > peak {
				peak = m
			}
		}
	}
	if peak == 0 {
		peak = 1
	}
	return a.MaxAbsDiff(b) / peak
}

// TestAdderShardedMatchesReference checks the sharded adder against
// the row-band reference Adder across the shard matrix — bit-for-bit
// at one shard (serial in-order accumulation), within 1e-12 relative
// otherwise — on a grid size no shard count in the matrix divides
// evenly.
func TestAdderShardedMatchesReference(t *testing.T) {
	const gridSize, sgSize, batch = 250, 24, 40
	k, err := NewKernels(Params{
		GridSize: gridSize, SubgridSize: sgSize, ImageSize: 0.1,
		Frequencies: []float64{150e6}, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	subgrids := randomShardSubgrids(batch, gridSize, sgSize, 101)
	ref := grid.NewGrid(gridSize)
	k.Adder(subgrids, ref)

	for _, shards := range shardCounts() {
		sh := grid.NewSharded(grid.NewGrid(gridSize), shards)
		k.AdderSharded(subgrids, sh)
		got := sh.Master()
		if shards == 1 {
			if d := got.MaxAbsDiff(ref); d != 0 {
				t.Errorf("shards=1: sharded adder differs bitwise from reference (max diff %g)", d)
			}
			continue
		}
		if d := relMaxDiff(got, ref); d > 1e-12 {
			t.Errorf("shards=%d: relative diff %g exceeds 1e-12", shards, d)
		}
	}
}

// TestSplitterShardedMatchesReference: extraction is a pure copy, so
// the sharded splitter must match the reference bitwise at every shard
// count.
func TestSplitterShardedMatchesReference(t *testing.T) {
	const gridSize, sgSize, batch = 250, 24, 30
	k, err := NewKernels(Params{
		GridSize: gridSize, SubgridSize: sgSize, ImageSize: 0.1,
		Frequencies: []float64{150e6}, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := grid.NewGrid(gridSize)
	rnd := newTestRand(7)
	for c := range g.Data {
		for i := range g.Data[c] {
			g.Data[c][i] = complex(rnd(), rnd())
		}
	}
	anchors := randomShardSubgrids(batch, gridSize, sgSize, 19)
	ref := make([]*grid.Subgrid, batch)
	for i := range ref {
		ref[i] = grid.NewSubgrid(sgSize, anchors[i].X0, anchors[i].Y0)
	}
	k.Splitter(g, ref)

	for _, shards := range shardCounts() {
		sh := grid.NewSharded(g, shards)
		got := make([]*grid.Subgrid, batch)
		for i := range got {
			got[i] = grid.NewSubgrid(sgSize, anchors[i].X0, anchors[i].Y0)
		}
		k.SplitterSharded(sh, got)
		for i := range got {
			if d := got[i].MaxAbsDiff(ref[i]); d != 0 {
				t.Fatalf("shards=%d: subgrid %d differs from reference splitter by %g", shards, i, d)
			}
		}
	}
}

// TestGriddingPassMatchesStageOracle runs the gridding pass (chunk
// scheduler + sharded adder) against the stage-primitive oracle over
// the shard matrix, for the derived chunk size and for pinned ones that
// split the plan unevenly: bit-for-bit with one worker whatever the
// shard count, within 1e-12 relative with four. The degridding pass on
// the same scheduler predicts every visibility from the grid and its
// own item alone, so from the oracle grid it must give the one-worker
// bits for every worker count, chunk size and in-flight bound, in both
// precisions.
func TestGriddingPassMatchesStageOracle(t *testing.T) {
	sc := buildScenario(t, defaultScenarioConfig())
	sc.fillFromModel(nil)
	ref := sc.oracleGrid(t)

	for _, workers := range []int{1, 4} {
		for _, shards := range shardCounts() {
			for _, chunkItems := range []int{0, 5, 64} {
				params := sc.kernels.Params()
				params.Workers = workers
				params.GridShards = shards
				params.StreamChunkItems = chunkItems
				k, err := NewKernels(params)
				if err != nil {
					t.Fatal(err)
				}
				g := grid.NewGrid(params.GridSize)
				if _, err := k.GridVisibilities(context.Background(), sc.plan, sc.vs, nil, g); err != nil {
					t.Fatal(err)
				}
				if workers == 1 {
					if d := g.MaxAbsDiff(ref); d != 0 {
						t.Errorf("workers=1 shards=%d chunk=%d: grid differs bitwise from the oracle (max diff %g)", shards, chunkItems, d)
					}
				} else if d := relMaxDiff(g, ref); d > 1e-12 {
					t.Errorf("workers=%d shards=%d chunk=%d: relative diff %g exceeds 1e-12", workers, shards, chunkItems, d)
				}
			}
		}
	}

	for _, prec := range []Precision{Float64, Float32} {
		want := ""
		for _, workers := range []int{1, 4} {
			for _, chunkItems := range []int{0, 8} {
				for _, inflight := range []int{0, 1} {
					params := sc.kernels.Params()
					params.Workers, params.Precision = workers, prec
					params.StreamChunkItems, params.MaxInflightChunks = chunkItems, inflight
					k, err := NewKernels(params)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := k.DegridVisibilities(context.Background(), sc.plan, sc.vs, nil, ref); err != nil {
						t.Fatal(err)
					}
					if got := hashVisibilities(sc.vs); want == "" {
						want = got
					} else if got != want {
						t.Errorf("%v degrid workers=%d chunk=%d inflight=%d: visibilities differ from one worker's", prec, workers, chunkItems, inflight)
					}
				}
			}
		}
	}
}

// TestSmallPlanFansOutPixelTiles: a plan with fewer items than workers
// cannot fill the pool with chunks, so the pass must hand the spare
// workers pixel tiles of the in-flight items — visible as tile spans,
// which only the parallel tile path records.
func TestSmallPlanFansOutPixelTiles(t *testing.T) {
	sc := buildScenario(t, defaultScenarioConfig())
	sc.fillFromModel(nil)
	small := *sc.plan
	small.Items = sc.plan.Items[:2]
	observer := obs.New(0)
	params := sc.kernels.Params()
	params.Workers = 4
	params.Observer = observer
	k, err := NewKernels(params)
	if err != nil {
		t.Fatal(err)
	}
	g := grid.NewGrid(params.GridSize)
	if _, err := k.GridVisibilities(context.Background(), &small, sc.vs, nil, g); err != nil {
		t.Fatal(err)
	}
	tiles := 0
	for _, span := range observer.Tracer.Spans() {
		if span.Stage == obs.StageTile {
			tiles++
		}
	}
	if tiles == 0 {
		t.Fatal("2 items on 4 workers recorded no parallel pixel-tile spans (par stayed 1)")
	}
}

// TestStreamedInflightMemoryBound checks the streaming promise: peak
// simultaneously-alive subgrids never exceed
// min(workers, MaxInflightChunks) x StreamChunkItems.
func TestStreamedInflightMemoryBound(t *testing.T) {
	sc := buildScenario(t, defaultScenarioConfig())
	sc.fillFromModel(nil)
	observer := obs.New(0)
	params := sc.kernels.Params()
	params.GridShards = 4
	params.MaxInflightChunks = 2
	params.StreamChunkItems = 8
	params.Workers = 4
	params.Observer = observer
	k, err := NewKernels(params)
	if err != nil {
		t.Fatal(err)
	}
	g := grid.NewGrid(params.GridSize)
	if _, err := k.GridVisibilities(context.Background(), sc.plan, sc.vs, nil, g); err != nil {
		t.Fatal(err)
	}
	peak := PeakInflightSubgrids(observer)
	if peak == 0 {
		t.Fatal("streamed pass recorded no peak in-flight subgrids")
	}
	bound := int64(params.MaxInflightChunks * params.StreamChunkItems)
	if peak > bound {
		t.Fatalf("peak in-flight subgrids %d exceeds MaxInflightChunks x chunk = %d", peak, bound)
	}
	if n := observer.Metrics.Counter(obs.MetricStreamChunks).Value(); n == 0 {
		t.Fatal("no stream chunks counted")
	}
	if locks := observer.Metrics.Counter(obs.MetricShardLocks).Value(); locks == 0 {
		t.Fatal("no shard locks counted")
	}

	// Degridding runs on the same scheduler under the same bound.
	peakGauge := observer.Metrics.Gauge(obs.GaugeStreamPeakSubgrids)
	peakGauge.Set(0)
	if _, err := k.DegridVisibilities(context.Background(), sc.plan, sc.vs, nil, g); err != nil {
		t.Fatal(err)
	}
	if peak := PeakInflightSubgrids(observer); peak == 0 || peak > bound {
		t.Fatalf("degridding peak in-flight subgrids %d, want in (0, %d]", peak, bound)
	}
}

// TestStreamedSkipAndFlag: a kernel panic injected into one work item
// must degrade the pass (skip + flag) instead of failing it.
func TestStreamedSkipAndFlag(t *testing.T) {
	sc := buildScenario(t, defaultScenarioConfig())
	sc.fillFromModel(nil)
	params := sc.kernels.Params()
	params.GridShards = 2
	params.StreamChunkItems = 4
	params.Workers = 2
	k, err := NewKernels(params)
	if err != nil {
		t.Fatal(err)
	}
	victim := sc.plan.Items[len(sc.plan.Items)/2]
	ft := faulttol.Config{
		Policy: faulttol.SkipAndFlag,
		Hook: func(item plan.WorkItem, attempt int) {
			if item.Baseline == victim.Baseline &&
				item.TimeStart == victim.TimeStart &&
				item.Channel0 == victim.Channel0 {
				panic("injected streamed-chunk fault")
			}
		},
	}
	sh := grid.NewSharded(grid.NewGrid(params.GridSize), params.GridShards)
	_, rep, err := k.GridVisibilitiesStreamed(context.Background(), sc.plan, sc.vs, nil, sh, ft)
	if err != nil {
		t.Fatalf("streamed pass failed instead of degrading: %v", err)
	}
	if !rep.Degraded() || rep.ItemsSkipped != 1 {
		t.Fatalf("report = %s, want exactly 1 skipped item", rep)
	}
	if rep.DroppedVisibilities != int64(victim.NrVisibilities()) {
		t.Fatalf("dropped %d visibilities, victim carried %d",
			rep.DroppedVisibilities, victim.NrVisibilities())
	}
	if sh.Master().Norm2() == 0 {
		t.Fatal("degraded streamed pass produced an empty grid")
	}

	// Fail-fast is the other side of the policy: the same fault without
	// SkipAndFlag must surface as an error.
	ft.Policy = faulttol.FailFast
	sh2 := grid.NewSharded(grid.NewGrid(params.GridSize), params.GridShards)
	if _, _, err := k.GridVisibilitiesStreamed(context.Background(), sc.plan, sc.vs, nil, sh2, ft); err == nil {
		t.Fatal("fail-fast streamed pass swallowed the injected fault")
	}
}

// TestShardSpansCarryWPlane drives the sharded adder with a tracer
// attached and W-tagged subgrids: every shard span must carry a valid
// shard index and the W-layer of its subgrid — the stage attribution
// the batch adder never had (satellite fix).
func TestShardSpansCarryWPlane(t *testing.T) {
	const gridSize, sgSize = 128, 16
	observer := obs.New(0)
	k, err := NewKernels(Params{
		GridSize: gridSize, SubgridSize: sgSize, ImageSize: 0.1,
		Frequencies: []float64{150e6}, Workers: 2, Observer: observer,
	})
	if err != nil {
		t.Fatal(err)
	}
	subgrids := randomShardSubgrids(12, gridSize, sgSize, 31)
	sh := grid.NewSharded(grid.NewGrid(gridSize), 4)
	k.AdderSharded(subgrids, sh)

	shardSpans := 0
	for _, span := range observer.Tracer.Spans() {
		if span.Stage != obs.StageShard {
			continue
		}
		shardSpans++
		if span.Shard < 0 || span.Shard >= sh.NumShards() {
			t.Fatalf("shard span has shard index %d outside [0,%d)", span.Shard, sh.NumShards())
		}
		if span.WPlane < 0 || span.WPlane > 2 {
			t.Fatalf("shard span carries W-layer %d, want one of the tagged layers 0..2", span.WPlane)
		}
	}
	if shardSpans == 0 {
		t.Fatal("sharded adder recorded no per-shard spans with a tracer attached")
	}
	// Counters must agree with the spans: one span per lock.
	if locks := observer.Metrics.Counter(obs.MetricShardLocks).Value(); locks != int64(shardSpans) {
		t.Fatalf("%d shard-lock counts but %d shard spans", locks, shardSpans)
	}
}

// TestStreamedWStackedPlaneAttribution runs the gridding pass on a
// W-stacked plan and checks that adder stage spans inherit each
// layer's index, so a trace can attribute add time per W-layer, and
// that every layer ends in one W-layer span.
func TestStreamedWStackedPlaneAttribution(t *testing.T) {
	cfg := defaultScenarioConfig()
	cfg.wstep = 40
	sc := buildScenario(t, cfg)
	sc.fillFromModel(nil)
	observer := obs.New(0)
	params := sc.kernels.Params()
	params.GridShards = 2
	params.Workers = 2
	params.Observer = observer
	k, err := NewKernels(params)
	if err != nil {
		t.Fatal(err)
	}
	planes := wLayers(sc.plan)
	if len(planes) < 2 {
		t.Fatalf("scenario produced %d W-layers, need >= 2", len(planes))
	}
	if _, err := k.GridVisibilities(context.Background(), sc.plan, sc.vs, nil, grid.NewGrid(params.GridSize)); err != nil {
		t.Fatal(err)
	}
	valid := map[int]bool{}
	for _, w := range planes {
		valid[w] = true
	}
	attributed := map[int]bool{}
	var layerSpans []int
	for _, span := range observer.Tracer.Spans() {
		if span.Stage == obs.StageWPlane {
			layerSpans = append(layerSpans, span.WPlane)
		}
		if span.Stage != obs.StageAdd && span.Stage != obs.StageShard {
			continue
		}
		if !valid[span.WPlane] {
			t.Fatalf("%s span carries W-layer %d, not one of the plan's layers %v",
				span.Stage, span.WPlane, planes)
		}
		attributed[span.WPlane] = true
	}
	if len(attributed) != len(planes) {
		t.Fatalf("adder spans attributed to %d W-layers, want all of %v", len(attributed), planes)
	}
	if fmt.Sprint(layerSpans) != fmt.Sprint(planes) {
		t.Fatalf("W-layer spans %v, want one per layer %v", layerSpans, planes)
	}
	if n := observer.Metrics.Counter(obs.MetricWPlanes).Value(); n != int64(len(planes)) {
		t.Fatalf("%s = %d, want %d", obs.MetricWPlanes, n, len(planes))
	}
}
