// Benchmarks for the sharded uv-grid accumulation path: the classic
// row-band adder vs the lock-sharded adder/splitter, the worker
// scaling of the sharded adder, and the full streamed gridding pass.
// scripts/bench.sh records the kernel-style entries in
// BENCH_kernels.json.
package repro

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
)

const (
	benchShardGridSize = 512
	benchShardSgSize   = 32
	benchShardBatch    = 64
)

// benchShardSubgrids builds a deterministic batch of filled subgrids
// scattered over the benchmark grid.
func benchShardSubgrids(seed uint64) []*grid.Subgrid {
	rnd := newTestRand(seed)
	pos := func() int {
		return int((rnd() + 1) / 2 * float64(benchShardGridSize-benchShardSgSize))
	}
	subgrids := make([]*grid.Subgrid, benchShardBatch)
	for i := range subgrids {
		s := grid.NewSubgrid(benchShardSgSize, pos(), pos())
		for c := range s.Data {
			for j := range s.Data[c] {
				s.Data[c][j] = complex(rnd(), rnd())
			}
		}
		subgrids[i] = s
	}
	return subgrids
}

func benchShardKernels(tb testing.TB, workers int) *Kernels {
	tb.Helper()
	k, err := NewKernels(Params{
		GridSize: benchShardGridSize, SubgridSize: benchShardSgSize,
		ImageSize: 0.1, Frequencies: []float64{150e6}, Workers: workers,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return k
}

// reportShardPixRate attaches the adder/splitter throughput metric:
// subgrid pixels moved per second across all correlations.
func reportShardPixRate(b *testing.B) {
	pix := float64(b.N) * benchShardBatch * benchShardSgSize * benchShardSgSize * grid.NrCorrelations
	b.ReportMetric(pix/b.Elapsed().Seconds()/1e6, "Mpix/s")
}

// BenchmarkAdderKernel is the classic row-band adder (each worker
// scans every subgrid for its band) on the shared benchmark batch.
func BenchmarkAdderKernel(b *testing.B) {
	k := benchShardKernels(b, 0)
	subgrids := benchShardSubgrids(11)
	g := grid.NewGrid(benchShardGridSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Adder(subgrids, g)
	}
	reportShardPixRate(b)
}

// BenchmarkAdderSharded is the lock-sharded adder at the default shard
// count (one shard per worker) on the same batch.
func BenchmarkAdderSharded(b *testing.B) {
	k := benchShardKernels(b, 0)
	subgrids := benchShardSubgrids(11)
	sh := k.NewShardedGrid(grid.NewGrid(benchShardGridSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.AdderSharded(subgrids, sh)
	}
	reportShardPixRate(b)
}

// BenchmarkAdderShardedScaling sweeps the worker count at a fixed
// 16-shard grid — the tentpole's scaling claim (adder throughput grows
// with cores because workers parallelize over subgrids and only
// contend on shared row bands). On a single-core host the sweep still
// measures the goroutine overhead of the fan-out path.
func BenchmarkAdderShardedScaling(b *testing.B) {
	subgrids := benchShardSubgrids(11)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			k := benchShardKernels(b, w)
			sh := grid.NewSharded(grid.NewGrid(benchShardGridSize), 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.AdderSharded(subgrids, sh)
			}
			reportShardPixRate(b)
		})
	}
}

// BenchmarkSplitterSharded extracts the benchmark batch from a sharded
// grid under the shard locks.
func BenchmarkSplitterSharded(b *testing.B) {
	k := benchShardKernels(b, 0)
	subgrids := benchShardSubgrids(13)
	sh := k.NewShardedGrid(grid.NewGrid(benchShardGridSize))
	k.AdderSharded(subgrids, sh)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.SplitterSharded(sh, subgrids)
	}
	reportShardPixRate(b)
}

// BenchmarkStreamedGriddingPass is the streaming companion of
// BenchmarkFullGriddingPass: the same warm observation pumped through
// the chunk scheduler and the sharded adder.
func BenchmarkStreamedGriddingPass(b *testing.B) {
	obs := mustBenchObs(b)
	p := obs.Kernels.Params()
	p.GridShards = 4
	p.StreamChunkItems = 32
	k, err := core.NewKernels(p)
	if err != nil {
		b.Fatal(err)
	}
	g := grid.NewGrid(obs.Config.GridSize)
	sh := k.NewShardedGrid(g)
	// Warm-up pass fills the scratch/subgrid pools.
	if _, _, err := k.GridVisibilitiesStreamed(context.Background(), obs.Plan, obs.Vis, nil, sh, FaultConfig{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var times StageTimes
	for i := 0; i < b.N; i++ {
		g.Zero()
		t, _, err := k.GridVisibilitiesStreamed(context.Background(), obs.Plan, obs.Vis, nil, sh, FaultConfig{})
		if err != nil {
			b.Fatal(err)
		}
		times = t
	}
	st := obs.Plan.Stats()
	b.ReportMetric(float64(st.NrGriddedVisibilities)/times.Total().Seconds()/1e6, "MVis/s")
}

// TestShardedAdderNoAllocs pins the nil-observer hot path: the serial
// sharded adder and splitter must not allocate, like the classic
// kernels (the benchmark baseline records 0 allocs/op; this guards it
// without needing -benchmem).
func TestShardedAdderNoAllocs(t *testing.T) {
	k := benchShardKernels(t, 1)
	subgrids := benchShardSubgrids(17)
	sh := grid.NewSharded(grid.NewGrid(benchShardGridSize), 8)
	if n := testing.AllocsPerRun(10, func() { k.AdderSharded(subgrids, sh) }); n != 0 {
		t.Fatalf("serial sharded adder allocates %.1f per run, want 0", n)
	}
	if n := testing.AllocsPerRun(10, func() { k.SplitterSharded(sh, subgrids) }); n != 0 {
		t.Fatalf("serial sharded splitter allocates %.1f per run, want 0", n)
	}
}
