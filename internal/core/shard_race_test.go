package core

import (
	"context"
	"sync"
	"testing"

	"repro/internal/faulttol"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/plan"
)

// TestShardedAddSplitRaceSoak hammers one shared sharded grid with
// concurrent sharded adders and splitters — the mixed workload the
// shard locks exist for. Under -race this is the data-race soak; in
// any mode the integer-valued adds must sum exactly (a lost update
// cannot hide behind float reassociation) and every concurrent
// splitter copy must be coherent (integer pixels only, never a torn
// half-written row).
func TestShardedAddSplitRaceSoak(t *testing.T) {
	const gridSize, sgSize, adders, splitters = 128, 32, 4, 3
	rounds := 40
	if testing.Short() {
		rounds = 8
	}
	k, err := NewKernels(Params{
		GridSize: gridSize, SubgridSize: sgSize, ImageSize: 0.1,
		Frequencies: []float64{150e6}, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	sh := grid.NewSharded(grid.NewGrid(gridSize), 5)

	makeBatch := func(worker, value int) []*grid.Subgrid {
		batch := make([]*grid.Subgrid, 6)
		for i := range batch {
			s := grid.NewSubgrid(sgSize,
				(worker*17+i*13)%(gridSize-sgSize), (worker*29+i*7)%(gridSize-sgSize))
			for c := range s.Data {
				for j := range s.Data[c] {
					s.Data[c][j] = complex(float64(value), 0)
				}
			}
			batch[i] = s
		}
		return batch
	}

	var wg sync.WaitGroup
	for w := 0; w < adders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			batch := makeBatch(w, 1)
			for r := 0; r < rounds; r++ {
				k.AdderSharded(batch, sh)
			}
		}(w)
	}
	bad := make(chan string, splitters)
	for w := 0; w < splitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dst := make([]*grid.Subgrid, 4)
			for i := range dst {
				dst[i] = grid.NewSubgrid(sgSize,
					(w*11+i*19)%(gridSize-sgSize), (w*23+i*5)%(gridSize-sgSize))
			}
			for r := 0; r < rounds; r++ {
				k.SplitterSharded(sh, dst)
				for _, s := range dst {
					for c := range s.Data {
						for _, v := range s.Data[c] {
							if real(v) != float64(int(real(v))) || imag(v) != 0 {
								select {
								case bad <- "splitter read a non-integer pixel (torn write)":
								default:
								}
								return
							}
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(bad)
	if msg, ok := <-bad; ok {
		t.Fatal(msg)
	}

	var total complex128
	for c := 0; c < grid.NrCorrelations; c++ {
		for _, v := range sh.Master().Data[c] {
			total += v
		}
	}
	want := complex(float64(grid.NrCorrelations*adders*rounds*6*sgSize*sgSize), 0)
	if total != want {
		t.Fatalf("concurrent sharded adds summed to %v, want %v (lost update)", total, want)
	}
	locks, contended := sh.LockStats()
	for i := range locks {
		if contended[i] > locks[i] {
			t.Fatalf("shard %d accounting: contended %d > locks %d", i, contended[i], locks[i])
		}
	}
}

// TestStreamedRaceSoakWithFaults runs the streaming scheduler with an
// observer attached and a deterministic panic hook corrupting a slice
// of the plan, twice concurrently onto independent sharded grids. It
// soaks every shared structure of the streamed path at once — chunk
// dispatch atomics, shard locks, the fault report, metric counters and
// the tracer ring — and then checks the degradation accounting still
// balances item-for-item.
func TestStreamedRaceSoakWithFaults(t *testing.T) {
	cfg := defaultScenarioConfig()
	if testing.Short() {
		cfg.nt = 32
	}
	sc := buildScenario(t, cfg)
	sc.fillFromModel(nil)

	victim := func(item plan.WorkItem) bool {
		return (item.Baseline*31+item.TimeStart*7+item.Channel0)%11 == 0
	}
	nVictims := 0
	for _, item := range sc.plan.Items {
		if victim(item) {
			nVictims++
		}
	}
	if nVictims == 0 {
		t.Fatal("fault selector hit no items; soak would be vacuous")
	}

	params := sc.kernels.Params()
	params.GridShards = 3
	params.MaxInflightChunks = 3
	params.StreamChunkItems = 4
	params.Workers = 4
	params.Observer = obs.New(0)
	k, err := NewKernels(params)
	if err != nil {
		t.Fatal(err)
	}
	ft := faulttol.Config{
		Policy: faulttol.SkipAndFlag,
		Hook: func(item plan.WorkItem) {
			if victim(item) {
				panic("soak: injected kernel panic")
			}
		},
	}

	const passes = 2
	var wg sync.WaitGroup
	reports := make([]*faulttol.Report, passes)
	errs := make([]error, passes)
	for i := 0; i < passes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sh := k.NewShardedGrid(grid.NewGrid(params.GridSize))
			_, reports[i], errs[i] = k.GridVisibilities(
				context.Background(), sc.plan, sc.vs, nil, sh, ft, nil, 0)
		}(i)
	}
	wg.Wait()

	for i := 0; i < passes; i++ {
		if errs[i] != nil {
			t.Fatalf("pass %d failed instead of degrading: %v", i, errs[i])
		}
		rep := reports[i]
		if rep.ItemsSkipped != nVictims {
			t.Fatalf("pass %d skipped %d items, selector hit %d", i, rep.ItemsSkipped, nVictims)
		}
		if rep.ItemsProcessed+rep.ItemsSkipped != len(sc.plan.Items) {
			t.Fatalf("pass %d accounting: %d processed + %d skipped != %d plan items",
				i, rep.ItemsProcessed, rep.ItemsSkipped, len(sc.plan.Items))
		}
	}
}
