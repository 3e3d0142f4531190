// Benchmarks that regenerate the paper's evaluation. Each table and
// figure of Section VI has a benchmark that prints/reports the same
// rows or series:
//
//	Table I  -> BenchmarkTable1Platforms
//	Fig. 7   -> BenchmarkFig7TripleBuffering
//	Fig. 8   -> BenchmarkFig8UVCoverage
//	Fig. 9   -> BenchmarkFig9RuntimeDistribution
//	Fig. 10  -> BenchmarkFig10Throughput
//	Fig. 11  -> BenchmarkFig11Roofline
//	Fig. 12  -> BenchmarkFig12SincosMix (model + measured on this host)
//	Fig. 13  -> BenchmarkFig13SharedRoofline
//	Fig. 14  -> BenchmarkFig14EnergyDistribution
//	Fig. 15  -> BenchmarkFig15EnergyEfficiency
//	Fig. 16  -> BenchmarkFig16WprojComparison (model + measured WPG/IDG)
//
// Modelled platform numbers are attached via b.ReportMetric; the
// *measured* benchmarks run the real Go kernels on this machine.
// Ablation benchmarks for the design choices called out in DESIGN.md
// are in ablation_bench_test.go.
package repro

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/fft"
	"repro/internal/grid"
	"repro/internal/perfmodel"
	"repro/internal/plan"
	"repro/internal/report"
	"repro/internal/uvwsim"
	"repro/internal/wproj"
	"repro/internal/xmath"
)

// benchObs lazily builds the shared scaled-down benchmark observation.
var benchObs = sync.OnceValues(func() (*Observation, error) {
	cfg := DefaultObservation()
	cfg.NrStations = 16
	cfg.NrTimesteps = 128
	cfg.NrChannels = 8
	cfg.GridSize = 512
	cfg.GridMargin = 32
	obs, err := cfg.Build()
	if err != nil {
		return nil, err
	}
	pix := obs.ImageSize / float64(cfg.GridSize)
	obs.FillFromModel(SkyModel{{L: 30 * pix, M: -20 * pix, I: 1}})
	return obs, nil
})

func mustBenchObs(b *testing.B) *Observation {
	b.Helper()
	obs, err := benchObs()
	if err != nil {
		b.Fatal(err)
	}
	return obs
}

func BenchmarkTable1Platforms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, p := range arch.Platforms() {
			if p.NrFPUs() == 0 {
				b.Fatal("bad platform")
			}
		}
	}
	for _, p := range arch.Platforms() {
		b.ReportMetric(p.PeakTFlops, p.Name+"-peak-TFlops")
	}
}

func BenchmarkFig7TripleBuffering(b *testing.B) {
	var res perfmodel.PipelineResult
	for i := 0; i < b.N; i++ {
		res = perfmodel.SimulateTripleBuffer(256, 3, 1, 4, 1)
	}
	serial := perfmodel.SerialTime(256, 1, 4, 1)
	b.ReportMetric(serial/res.Makespan, "overlap-speedup")
	b.ReportMetric(100*res.KernelBusy, "kernel-busy-%")
}

func BenchmarkFig8UVCoverage(b *testing.B) {
	obs := mustBenchObs(b)
	baselines := obs.Simulator.Baselines()
	var out string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var us, vs []float64
		for _, bl := range baselines {
			for t := 0; t < obs.Config.NrTimesteps; t += 8 {
				c := obs.Simulator.UVW(bl.P, bl.Q, t)
				us = append(us, c.U, -c.U)
				vs = append(vs, c.V, -c.V)
			}
		}
		out = report.Scatter(us, vs, 64, 32)
	}
	if len(out) == 0 {
		b.Fatal("empty plot")
	}
}

func BenchmarkFig9RuntimeDistribution(b *testing.B) {
	d := perfmodel.PaperDataset()
	var total float64
	for i := 0; i < b.N; i++ {
		for _, p := range arch.Platforms() {
			c := perfmodel.ImagingCycle(p, d)
			total = c.Total()
		}
	}
	for _, p := range arch.Platforms() {
		c := perfmodel.ImagingCycle(p, d)
		b.ReportMetric(c.Total(), p.Name+"-cycle-s")
	}
	_ = total
}

func BenchmarkFig10Throughput(b *testing.B) {
	d := perfmodel.PaperDataset()
	for i := 0; i < b.N; i++ {
		for _, p := range arch.Platforms() {
			perfmodel.ThroughputMVisPerSec(p, d)
		}
	}
	for _, p := range arch.Platforms() {
		g, dg := perfmodel.ThroughputMVisPerSec(p, d)
		b.ReportMetric(g, p.Name+"-grid-MVis/s")
		b.ReportMetric(dg, p.Name+"-degrid-MVis/s")
	}
}

func BenchmarkFig11Roofline(b *testing.B) {
	d := perfmodel.PaperDataset()
	var pts []perfmodel.RooflinePoint
	for i := 0; i < b.N; i++ {
		pts = perfmodel.DeviceRoofline(d)
	}
	for _, pt := range pts {
		b.ReportMetric(pt.TOpsPerSec, pt.Platform+"-"+pt.Kernel+"-TOps")
	}
}

// BenchmarkFig12SincosMix measures the actual FMA/sincos mix
// throughput of this machine (the Go analogue of Fig. 12) and reports
// the modelled platform points at rho = 17.
func BenchmarkFig12SincosMix(b *testing.B) {
	for _, rho := range []int{1, 4, 17, 64, 256} {
		b.Run(fmt.Sprintf("rho=%d", rho), func(b *testing.B) {
			x, s, c := 1.1, 0.0, 0.0
			acc := 0.0
			for i := 0; i < b.N; i++ {
				s, c = xmath.SincosFast(x)
				for j := 0; j < rho; j++ {
					acc = acc*s + c // one FMA
				}
				x += 1e-3
			}
			sinkBench = acc
			ops := float64(rho)*2 + 2
			b.ReportMetric(float64(b.N)*ops/b.Elapsed().Seconds()/1e9, "GOps/s")
		})
	}
	for _, p := range arch.Platforms() {
		b.ReportMetric(p.MixOpsPerSec(arch.KernelRho)/1e12, p.Name+"-rho17-TOps")
	}
}

var sinkBench float64

func BenchmarkFig13SharedRoofline(b *testing.B) {
	d := perfmodel.PaperDataset()
	var pts []perfmodel.RooflinePoint
	for i := 0; i < b.N; i++ {
		pts = perfmodel.SharedRoofline(d)
	}
	for _, pt := range pts {
		b.ReportMetric(100*pt.TOpsPerSec/pt.CeilingTOps, pt.Platform+"-"+pt.Kernel+"-%ceiling")
	}
}

func BenchmarkFig14EnergyDistribution(b *testing.B) {
	d := perfmodel.PaperDataset()
	for i := 0; i < b.N; i++ {
		for _, p := range arch.Platforms() {
			if _, err := energy.Cycle(p, d); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, p := range arch.Platforms() {
		c, _ := energy.Cycle(p, d)
		b.ReportMetric(c.Total()/1e3, p.Name+"-cycle-kJ")
	}
}

func BenchmarkFig15EnergyEfficiency(b *testing.B) {
	d := perfmodel.PaperDataset()
	for i := 0; i < b.N; i++ {
		for _, p := range arch.Platforms() {
			energy.Efficiency(p, perfmodel.GridderCounts(d))
		}
	}
	for _, p := range arch.Platforms() {
		g := energy.Efficiency(p, perfmodel.GridderCounts(d))
		dg := energy.Efficiency(p, perfmodel.DegridderCounts(d))
		b.ReportMetric(g.GFlopsPerWatt, p.Name+"-gridder-GF/W")
		b.ReportMetric(dg.GFlopsPerWatt, p.Name+"-degridder-GF/W")
	}
}

// BenchmarkFig16WprojComparison runs the *real* Go W-projection and
// IDG gridders over a range of kernel sizes and reports measured
// MVis/s, next to the modelled PASCAL numbers.
func BenchmarkFig16WprojComparison(b *testing.B) {
	const gridSize = 512
	const imageSize = 0.1
	rnd := newTestRand(3)
	for _, nw := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("WPG/NW=%d", nw), func(b *testing.B) {
			g, err := wproj.NewGridder(wproj.Config{
				GridSize: gridSize, ImageSize: imageSize,
				Support: nw, Oversampling: 8,
			})
			if err != nil {
				b.Fatal(err)
			}
			dst := grid.NewGrid(gridSize)
			vis := xmath.Matrix2{1, 0, 0, 1}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Grid(800*rnd(), 800*rnd(), 0, vis, dst)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "MVis/s")
		})
	}
	for _, sg := range []int{16, 24, 32} {
		b.Run(fmt.Sprintf("IDG/subgrid=%d", sg), func(b *testing.B) {
			benchGridderKernel(b, sg, 64, 8)
		})
	}
	d := perfmodel.PaperDataset()
	for _, r := range perfmodel.Fig16(arch.Pascal(), d, []int{16}, []int{24}) {
		b.ReportMetric(r.WPG, "model-PASCAL-WPG16-MVis/s")
		b.ReportMetric(r.IDG[24], "model-PASCAL-IDG24-MVis/s")
	}
}

// benchGridderKernel measures the real gridder kernel in MVis/s for
// one work item of nt x nc visibilities on an n-pixel subgrid.
func benchGridderKernel(b *testing.B, n, nt, nc int) {
	b.Helper()
	benchGridderKernelPrec(b, n, nt, nc, core.Float64)
}

func benchGridderKernelPrec(b *testing.B, n, nt, nc int, prec Precision) {
	b.Helper()
	benchGridderKernelATerms(b, n, nt, nc, prec, false)
}

// benchGridderKernelATerms is benchGridderKernelPrec with optional
// per-pixel A-terms (a smooth non-identity Jones field for both
// stations), so the kernel's epilogue does the full A-term sandwich.
func benchGridderKernelATerms(b *testing.B, n, nt, nc int, prec Precision, aterms bool) {
	b.Helper()
	freqs := make([]float64, nc)
	for i := range freqs {
		freqs[i] = 150e6 + float64(i)*200e3
	}
	k, err := NewKernels(Params{
		GridSize: 512, SubgridSize: n, ImageSize: 0.1, Frequencies: freqs,
		Precision: prec,
	})
	if err != nil {
		b.Fatal(err)
	}
	item := plan.WorkItem{NrTimesteps: nt, Channel0: 0, NrChannels: nc, X0: 200, Y0: 200}
	rnd := newTestRand(7)
	uvw := make([]uvwsim.UVW, nt)
	for t := range uvw {
		uvw[t] = uvwsim.UVW{U: 50 * rnd(), V: 50 * rnd(), W: 5 * rnd()}
	}
	vis := make([]xmath.Matrix2, nt*nc)
	for i := range vis {
		vis[i] = xmath.Matrix2{1, 0, 0, 1}
	}
	var atermP, atermQ []xmath.Matrix2
	if aterms {
		atermP, atermQ = benchJones(n, rnd)
	}
	out := grid.NewSubgrid(n, item.X0, item.Y0)
	// Warm-up call: fills the scratch pool so the timed iterations
	// measure the steady state (and allocs/op stays at zero).
	k.GridSubgrid(item, uvw, vis, atermP, atermQ, out)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.GridSubgrid(item, uvw, vis, atermP, atermQ, out)
	}
	visPerCall := float64(nt * nc)
	b.ReportMetric(float64(b.N)*visPerCall/b.Elapsed().Seconds()/1e6, "MVis/s")
}

// benchJones returns a smooth non-identity Jones field for two
// stations over an n-pixel subgrid.
func benchJones(n int, rnd func() float64) (atermP, atermQ []xmath.Matrix2) {
	atermP = make([]xmath.Matrix2, n*n)
	atermQ = make([]xmath.Matrix2, n*n)
	for i := range atermP {
		g := complex(1-0.3*float64(i)/float64(n*n), 0.1*rnd())
		atermP[i] = xmath.Matrix2{g, 0.02, -0.02, g}
		atermQ[i] = xmath.Matrix2{g, -0.01, 0.01, g}
	}
	return atermP, atermQ
}

func benchDegridderKernelPrec(b *testing.B, prec Precision) {
	b.Helper()
	benchDegridderKernelATerms(b, 24, 128, 16, prec, false)
}

// benchDegridderKernelATerms measures the degridder kernel in MVis/s for
// one work item of nt x nc visibilities on an n-pixel subgrid, with
// optional per-pixel A-terms (benchJones) for the kernel's prologue.
func benchDegridderKernelATerms(b *testing.B, n, nt, nc int, prec Precision, aterms bool) {
	b.Helper()
	freqs := make([]float64, nc)
	for i := range freqs {
		freqs[i] = 150e6 + float64(i)*200e3
	}
	k, err := NewKernels(Params{
		GridSize: 512, SubgridSize: n, ImageSize: 0.1, Frequencies: freqs,
		Precision: prec,
	})
	if err != nil {
		b.Fatal(err)
	}
	item := plan.WorkItem{NrTimesteps: nt, Channel0: 0, NrChannels: nc, X0: 200, Y0: 200}
	rnd := newTestRand(8)
	uvw := make([]uvwsim.UVW, nt)
	for t := range uvw {
		uvw[t] = uvwsim.UVW{U: 50 * rnd(), V: 50 * rnd(), W: 5 * rnd()}
	}
	in := grid.NewSubgrid(n, item.X0, item.Y0)
	for c := range in.Data {
		for i := range in.Data[c] {
			in.Data[c][i] = complex(rnd(), rnd())
		}
	}
	var atermP, atermQ []xmath.Matrix2
	if aterms {
		atermP, atermQ = benchJones(n, rnd)
	}
	vis := make([]xmath.Matrix2, nt*nc)
	k.DegridSubgrid(item, in, uvw, atermP, atermQ, vis) // warm up scratch pool
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.DegridSubgrid(item, in, uvw, atermP, atermQ, vis)
	}
	b.ReportMetric(float64(b.N)*float64(nt*nc)/b.Elapsed().Seconds()/1e6, "MVis/s")
}

// Measured wall-clock kernel benchmarks (the Go "fourth platform").

func BenchmarkGridderKernel(b *testing.B) {
	benchGridderKernel(b, 24, 128, 16)
}

func BenchmarkGridderKernelFloat32(b *testing.B) {
	benchGridderKernelPrec(b, 24, 128, 16, Float32)
}

// BenchmarkGridderKernelShortItems is the short-item regime of the
// benchmark's sparse workload: 16 visibilities per subgrid (8 time
// steps of 2 channels, below the recurrence threshold) and per-pixel
// A-terms, where the per-subgrid fixed cost is as large as the
// visibility loop.
func BenchmarkGridderKernelShortItems(b *testing.B) {
	benchGridderKernelATerms(b, 24, 8, 2, core.Float64, true)
}

// BenchmarkGridderKernelShortItemsFloat32 is the same item in float32.
func BenchmarkGridderKernelShortItemsFloat32(b *testing.B) {
	benchGridderKernelATerms(b, 24, 8, 2, Float32, true)
}

func BenchmarkDegridderKernel(b *testing.B) {
	benchDegridderKernelPrec(b, core.Float64)
}

func BenchmarkDegridderKernelFloat32(b *testing.B) {
	benchDegridderKernelPrec(b, Float32)
}

// BenchmarkDegridderKernelShortItems is the mirror of
// BenchmarkGridderKernelShortItems: the sparse workload's item shape
// with per-pixel A-terms, where the prologue (A-term sandwich, taper,
// plane split) weighs as much as the 16-visibility loop.
func BenchmarkDegridderKernelShortItems(b *testing.B) {
	benchDegridderKernelATerms(b, 24, 8, 2, core.Float64, true)
}

func BenchmarkDegridderKernelShortItemsFloat32(b *testing.B) {
	benchDegridderKernelATerms(b, 24, 8, 2, Float32, true)
}

func BenchmarkFullGriddingPass(b *testing.B) {
	obs := mustBenchObs(b)
	// Steady-state measurement: the grid is allocated once and zeroed
	// per pass, and one warm-up pass fills the kernel scratch/subgrid
	// pools, so allocs/op reflects the warm pipeline hot path.
	g := grid.NewGrid(obs.Config.GridSize)
	if _, err := obs.Kernels.GridVisibilities(context.Background(), obs.Plan, obs.Vis, nil, g); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var times StageTimes
	for i := 0; i < b.N; i++ {
		g.Zero()
		t, err := obs.Kernels.GridVisibilities(context.Background(), obs.Plan, obs.Vis, nil, g)
		if err != nil {
			b.Fatal(err)
		}
		times = t
	}
	st := obs.Plan.Stats()
	b.ReportMetric(float64(st.NrGriddedVisibilities)/times.Total().Seconds()/1e6, "MVis/s")
	b.ReportMetric(100*times.Gridder.Seconds()/times.Total().Seconds(), "gridder-%")
}

func BenchmarkFullDegriddingPass(b *testing.B) {
	obs := mustBenchObs(b)
	g := grid.NewGrid(obs.Config.GridSize)
	if _, err := obs.Kernels.GridVisibilities(context.Background(), obs.Plan, obs.Vis, nil, g); err != nil {
		b.Fatal(err)
	}
	out := core.MustNewVisibilitySet(obs.Vis.Baselines, obs.Vis.UVW, obs.Vis.NrChannels)
	// Warm-up pass: fills the kernel scratch/subgrid pools so the timed
	// iterations measure the steady state.
	if _, err := obs.Kernels.DegridVisibilities(context.Background(), obs.Plan, out, nil, g); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var times StageTimes
	for i := 0; i < b.N; i++ {
		t, err := obs.Kernels.DegridVisibilities(context.Background(), obs.Plan, out, nil, g)
		if err != nil {
			b.Fatal(err)
		}
		times = t
	}
	st := obs.Plan.Stats()
	b.ReportMetric(float64(st.NrGriddedVisibilities)/times.Total().Seconds()/1e6, "MVis/s")
}

// BenchmarkGridFFT2048 measures the serial centered transform of one
// full-size (2048-pixel) grid plane, the final FFT of an imaging pass
// at the paper's grid size. Forward+inverse per op keeps the data
// bounded across iterations.
func BenchmarkGridFFT2048(b *testing.B) {
	const n = 2048
	p := fft.CachedPlan2D(n, n)
	rnd := newTestRand(18)
	x := make([]complex128, n*n)
	for i := range x {
		x[i] = complex(rnd(), rnd())
	}
	p.ForwardCentered(x) // warm the plan's pooled scratch
	p.InverseCentered(x)
	b.SetBytes(2 * n * n * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ForwardCentered(x)
		p.InverseCentered(x)
	}
}

// BenchmarkGridImagePair measures the grid-FFT step of an imaging
// cycle: GridToImage then ImageToGrid of a 1024-pixel gridded partial
// (four planes each way) at GOMAXPROCS workers, allocations included.
func BenchmarkGridImagePair(b *testing.B) {
	g := benchPartialGrid()
	ImageToGrid(GridToImage(g, 0), 0) // warm the plan and its scratch pools
	b.SetBytes(2 * grid.NrCorrelations * 1024 * 1024 * 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ImageToGrid(GridToImage(g, 0), 0)
	}
}

// benchPartialGrid is a 1024-pixel grid shaped like a gridded partial:
// a centred disc of nonzero cells on a zero background.
func benchPartialGrid() *Grid {
	const n = 1024
	g := grid.NewGrid(n)
	rnd := newTestRand(19)
	for c := range g.Data {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				if dx, dy := x-n/2, y-n/2; dx*dx+dy*dy < 400*400 {
					g.Data[c][y*n+x] = complex(rnd(), rnd())
				}
			}
		}
	}
	return g
}

// BenchmarkGridFingerprint measures the one-pass grid fingerprint
// (SHA-256 over the cell memory, which on a little-endian host is the
// canonical encoding, + diagnostics) of a 1024-pixel grid — the hash a
// served session takes at finalize; a distributed run takes it of each
// partial's band on both ends of the wire. MB/s is over the 64 MiB of
// canonical bytes; the SHA-NI block function alone runs near 1.2 GB/s
// here.
func BenchmarkGridFingerprint(b *testing.B) {
	g := benchPartialGrid()
	g.Fingerprint() // fills the codec's buffer pool
	b.SetBytes(int64(grid.NrCorrelations * g.N * g.N * grid.CellBytes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchFingerprint = g.Fingerprint()
	}
}

var benchFingerprint grid.Fingerprint

// BenchmarkWriteGridBinary measures the grid fetch path (a served
// session's /grid, idgdistrib -out) for one 512-pixel grid, into a sink
// that copies every write as a socket or bufio.Writer does: io.Discard
// would time nothing where the writer hands over cell memory itself.
func BenchmarkWriteGridBinary(b *testing.B) {
	g := grid.NewGrid(512)
	rnd := newTestRand(20)
	for c := range g.Data {
		for i := range g.Data[c] {
			g.Data[c][i] = complex(rnd(), rnd())
		}
	}
	var sink copySink
	b.SetBytes(int64(grid.NrCorrelations * g.N * g.N * grid.CellBytes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteGridBinary(&sink, g); err != nil {
			b.Fatal(err)
		}
	}
}

// copySink copies each write into one reused 64 KB buffer.
type copySink struct{ buf [64 << 10]byte }

func (s *copySink) Write(p []byte) (int, error) {
	for q := p; len(q) > 0; q = q[copy(s.buf[:], q):] {
	}
	return len(p), nil
}

// BenchmarkFillFromModelPlan measures the distributed worker's
// visibility fill on the benchmark's dense shape (30 stations x 256
// steps x 16 channels, four sources) at one and two fill goroutines;
// MVis/s counts predicted samples.
func BenchmarkFillFromModelPlan(b *testing.B) {
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := DefaultObservation()
			cfg.Workers = workers
			o, err := cfg.Build()
			if err != nil {
				b.Fatal(err)
			}
			model, err := cfg.StandardSkyModel(4)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := o.FillFromModelPlan(model); err != nil {
					b.Fatal(err)
				}
			}
			vis := o.Plan.Stats().NrGriddedVisibilities
			b.ReportMetric(float64(b.N)*float64(vis)/b.Elapsed().Seconds()/1e6, "MVis/s")
		})
	}
}

// newTestRand returns a tiny deterministic uniform(-1,1) generator
// (mirrors the one in the core tests).
func newTestRand(seed uint64) func() float64 {
	state := seed
	return func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11)/float64(1<<52) - 1
	}
}
