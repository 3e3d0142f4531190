// Ablation benchmarks for the design choices DESIGN.md calls out: the
// kernel precision, the row-parallel adder vs a lock-serialized one,
// the subgrid size and the work-item time bound. The sweeps that set
// unexported seams (batching, the phasor recurrence against the
// channel count, pixel tiles, visibility blocks) sit beside them, in
// internal/core (tiling_bench_test.go).
package repro

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/plan"
	"repro/internal/uvwsim"
	"repro/internal/xmath"
)

// ablationKernels builds kernels with the given options for a single
// work item microbench.
func ablationKernels(b *testing.B, params Params) (*Kernels, plan.WorkItem, []uvwsim.UVW, []xmath.Matrix2) {
	b.Helper()
	if params.GridSize == 0 {
		params.GridSize = 512
	}
	if params.ImageSize == 0 {
		params.ImageSize = 0.1
	}
	if params.Frequencies == nil {
		freqs := make([]float64, 8)
		for i := range freqs {
			freqs[i] = 150e6 + float64(i)*200e3
		}
		params.Frequencies = freqs
	}
	if params.SubgridSize == 0 {
		params.SubgridSize = 24
	}
	k, err := NewKernels(params)
	if err != nil {
		b.Fatal(err)
	}
	const nt = 64
	nc := len(params.Frequencies)
	item := plan.WorkItem{NrTimesteps: nt, NrChannels: nc, X0: 200, Y0: 200}
	rnd := newTestRand(11)
	uvw := make([]uvwsim.UVW, nt)
	for t := range uvw {
		uvw[t] = uvwsim.UVW{U: 50 * rnd(), V: 50 * rnd(), W: 5 * rnd()}
	}
	vis := make([]xmath.Matrix2, nt*nc)
	for i := range vis {
		vis[i] = xmath.Matrix2{1, 0, 0, 1}
	}
	return k, item, uvw, vis
}

func runGridderAblation(b *testing.B, params Params) {
	k, item, uvw, vis := ablationKernels(b, params)
	out := grid.NewSubgrid(k.Params().SubgridSize, item.X0, item.Y0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.GridSubgrid(item, uvw, vis, nil, nil, out)
	}
	b.ReportMetric(float64(b.N)*float64(item.NrVisibilities())/b.Elapsed().Seconds()/1e6, "MVis/s")
}

// BenchmarkAblationPrecision compares the float64 and float32 compute
// paths of the batch-blocked gridder (same uvw/vis workload).
func BenchmarkAblationPrecision(b *testing.B) {
	b.Run("float64", func(b *testing.B) {
		runGridderAblation(b, Params{})
	})
	b.Run("float32", func(b *testing.B) {
		runGridderAblation(b, Params{Precision: Float32})
	})
}

// BenchmarkAblationSubgridSize sweeps N~; per-visibility cost scales
// with N~^2 (the trade-off of Fig. 16: larger subgrids buy W-coverage
// at quadratic cost).
func BenchmarkAblationSubgridSize(b *testing.B) {
	for _, n := range []int{16, 24, 32, 48} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			runGridderAblation(b, Params{SubgridSize: n})
		})
	}
}

// BenchmarkAblationAdder compares the paper's row-parallel adder
// against the mutex-serialized subgrid-parallel alternative it
// rejects for its "prohibitive synchronization costs".
func BenchmarkAblationAdder(b *testing.B) {
	k, err := NewKernels(Params{
		GridSize: 1024, SubgridSize: 24, ImageSize: 0.1,
		Frequencies: []float64{150e6},
	})
	if err != nil {
		b.Fatal(err)
	}
	rnd := newTestRand(12)
	subgrids := make([]*grid.Subgrid, 512)
	for i := range subgrids {
		x0 := int(480 * (rnd() + 1) / 2)
		y0 := int(480 * (rnd() + 1) / 2)
		s := grid.NewSubgrid(24, x0, y0)
		for c := range s.Data {
			for j := range s.Data[c] {
				s.Data[c][j] = complex(rnd(), rnd())
			}
		}
		subgrids[i] = s
	}
	g := grid.NewGrid(1024)
	b.Run("row-parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k.Adder(subgrids, g)
		}
		b.ReportMetric(float64(b.N)*float64(len(subgrids))/b.Elapsed().Seconds(), "subgrids/s")
	})
	b.Run("mutex-serialized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k.AdderSerialLocked(subgrids, g)
		}
		b.ReportMetric(float64(b.N)*float64(len(subgrids))/b.Elapsed().Seconds(), "subgrids/s")
	})
}

// BenchmarkAblationTmax sweeps the work-item time bound: small T~max
// creates more subgrids (more FFT/adder work per visibility), large
// T~max risks load imbalance; the plan statistics quantify the trade.
func BenchmarkAblationTmax(b *testing.B) {
	for _, tmax := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("tmax=%d", tmax), func(b *testing.B) {
			cfg := DefaultObservation()
			cfg.NrStations = 12
			cfg.NrTimesteps = 128
			cfg.NrChannels = 4
			cfg.GridSize = 512
			cfg.GridMargin = 32
			cfg.MaxTimestepsPerSubgrid = tmax
			obs, err := cfg.Build()
			if err != nil {
				b.Fatal(err)
			}
			pix := obs.ImageSize / float64(cfg.GridSize)
			obs.FillFromModel(SkyModel{{L: 20 * pix, M: 10 * pix, I: 1}})
			st := obs.Plan.Stats()
			b.ResetTimer()
			var times StageTimes
			for i := 0; i < b.N; i++ {
				g := grid.NewGrid(cfg.GridSize)
				t, _, err := obs.Kernels.GridVisibilities(context.Background(), obs.Plan, obs.Vis, nil, obs.Kernels.NewShardedGrid(g), FaultConfig{}, nil, 0)
				if err != nil {
					b.Fatal(err)
				}
				times = t
			}
			b.ReportMetric(float64(st.NrSubgrids), "subgrids")
			b.ReportMetric(float64(st.NrGriddedVisibilities)/times.Total().Seconds()/1e6, "MVis/s")
		})
	}
}

// BenchmarkSubgridFFTStage measures the batched subgrid FFT stage:
// one batch of paper-sized (24-pixel, 4-correlation) subgrids through
// the centered forward and inverse transforms — the unit of work every
// chunk performs between gridder and adder (and splitter and
// degridder). Workers is 1 so the number is the per-core stage cost
// with no scheduling noise, and allocs/op is the steady state of the
// pooled transform scratch.
func BenchmarkSubgridFFTStage(b *testing.B) {
	k, err := NewKernels(Params{
		GridSize: 512, SubgridSize: 24, ImageSize: 0.1,
		Frequencies: []float64{150e6}, Workers: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	rnd := newTestRand(13)
	batch := make([]*grid.Subgrid, 256)
	for i := range batch {
		s := grid.NewSubgrid(24, 0, 0)
		for c := range s.Data {
			for j := range s.Data[c] {
				s.Data[c][j] = complex(rnd(), rnd())
			}
		}
		batch[i] = s
	}
	k.FFTSubgrids(batch) // warm the transform scratch pools
	k.InverseFFTSubgrids(batch)
	// Both stage directions normalize by 1/n², so one round trip scales
	// the data by exactly 1/n² (the unnormalized pair contributes n²).
	// Left alone, long -benchtime runs decay the pixels into the
	// denormal range, where the FPU is several times slower, and the
	// measurement starts depending on b.N. Periodically undo the decay
	// outside the timer, well before the values leave the normal range.
	regain := math.Pow(float64(24*24), 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.FFTSubgrids(batch)
		k.InverseFFTSubgrids(batch)
		if i%64 == 63 {
			b.StopTimer()
			for _, s := range batch {
				for c := range s.Data {
					for j := range s.Data[c] {
						s.Data[c][j] *= complex(regain, 0)
					}
				}
			}
			b.StartTimer()
		}
	}
	b.ReportMetric(float64(b.N)*2*float64(len(batch))/b.Elapsed().Seconds(), "subgrids/s")
}

// BenchmarkSplitterStage measures the splitter.
func BenchmarkSplitterStage(b *testing.B) {
	k, err := NewKernels(Params{
		GridSize: 1024, SubgridSize: 24, ImageSize: 0.1,
		Frequencies: []float64{150e6},
	})
	if err != nil {
		b.Fatal(err)
	}
	g := grid.NewGrid(1024)
	rnd := newTestRand(14)
	subgrids := make([]*grid.Subgrid, 512)
	for i := range subgrids {
		subgrids[i] = grid.NewSubgrid(24, int(480*(rnd()+1)/2), int(480*(rnd()+1)/2))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Splitter(g, subgrids)
	}
	b.ReportMetric(float64(b.N)*float64(len(subgrids))/b.Elapsed().Seconds(), "subgrids/s")
}

// BenchmarkPlanConstruction measures the greedy execution planner.
func BenchmarkPlanConstruction(b *testing.B) {
	obs := mustBenchObs(b)
	cfg := obs.Plan.Config
	tracks := obs.Vis.UVW
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.New(cfg, tracks); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tracks))*float64(obs.Config.NrTimesteps)*float64(b.N)/
		b.Elapsed().Seconds()/1e6, "Msamples/s")
}
