package main

import (
	"fmt"
	"runtime"
	"time"

	"repro"
)

// plainShape describes one of the three plain-pass workloads.
type plainShape struct {
	name string
	cfg  func(smoke bool, nproc int) repro.ObservationConfig
	prov repro.ATermProvider
	// rmsTol is the pass/fail bound on degrid_rel_rms: twice the first
	// value measured for this shape (README.md, "Correctness gates").
	rmsTol float64
	// noise is the per-component sigma of the Gaussian noise added to
	// the gridding input.
	noise float64
}

func denseConfig(smoke bool, nproc int) repro.ObservationConfig {
	cfg := repro.DefaultObservation() // 30 x 256 x 16, grid 1024, subgrid 24
	cfg.Workers = nproc
	if smoke {
		cfg.NrStations, cfg.NrTimesteps, cfg.NrChannels = 8, 32, 4
		cfg.GridSize, cfg.GridMargin, cfg.ATermInterval = 256, 16, 16
	}
	return cfg
}

var plainShapes = map[string]plainShape{
	"dense": {name: "dense", cfg: denseConfig, rmsTol: 2 * denseRMS, noise: 0.01},
	"dense-f32": {name: "dense-f32", rmsTol: 2 * denseF32RMS, noise: 0.01,
		cfg: func(smoke bool, nproc int) repro.ObservationConfig {
			cfg := denseConfig(smoke, nproc)
			cfg.Precision = repro.Float32
			return cfg
		}},
	"sparse": {name: "sparse", rmsTol: 2 * sparseRMS, noise: 0.01,
		prov: repro.GaussianBeamATerms(0.5, 0.01),
		cfg: func(smoke bool, nproc int) repro.ObservationConfig {
			cfg := denseConfig(smoke, nproc)
			cfg.MaxTimestepsPerSubgrid = 8
			cfg.ATermInterval = 16
			if !smoke {
				cfg.NrStations, cfg.NrTimesteps, cfg.NrChannels = 24, 512, 2
			}
			return cfg
		}},
}

// First measured degrid_rel_rms per shape (seed 1); the gates are at
// twice these. Over seeds 101-110 and 201-210 the value stays between
// 0.6e-5 and 1.65e-5.
const (
	denseRMS    = 1.638e-05
	denseF32RMS = 1.639e-05
	sparseRMS   = 1.660e-05
)

// cycleTimes are the wall times of one plain op and the stage times
// the two passes returned.
type cycleTimes struct {
	traced                   bool
	grid, fft, degrid, cycle time.Duration
	gridStages, degridStages repro.StageTimes
}

// plainOp is the timed operation of the plain workloads: grid every
// visibility, transform the grid to an image and back, and degrid it.
// Spans (when tr is not nil) wrap the calls from outside.
func plainOp(e *env, tr *tracer, og, od *repro.Observation, prov repro.ATermProvider) (cycleTimes, error) {
	ct := cycleTimes{traced: tr != nil}
	var err error
	w := og.Config.Workers
	var g, img, g2 *repro.Grid
	ct.cycle = tr.run(noSpan, "op.cycle", func(id int) {
		ct.grid = tr.run(id, "core.pass.grid", func(int) {
			g, ct.gridStages, err = og.GridAll(e.ctx, prov)
		})
		if err != nil {
			return
		}
		ct.fft = tr.run(id, "fft.grid", func(int) {
			img = repro.GridToImage(g, w)
			g2 = repro.ImageToGrid(img, w)
		})
		ct.degrid = tr.run(id, "core.pass.degrid", func(int) {
			ct.degridStages, err = od.DegridAll(e.ctx, prov, g2)
		})
	})
	if err == nil {
		err = checkFinite("GridAll", g)
	}
	return ct, err
}

// runPlain is the dense / dense-f32 / sparse workload.
func runPlain(e *env, sh plainShape) error {
	cfg := sh.cfg(e.smoke, e.nproc)

	og, setupS, err := e.buildSetup(cfg)
	if err != nil {
		return err
	}
	e.e2e.set("setup_s", setupS)

	// Load generation (untimed): the seeded sky model's direct
	// predictions, which the accuracy gate compares against before
	// seeded noise is added to them as the gridding input.
	model := seededModel(og, e.seed, 4)
	if err := fillModel(og, model, sh.prov); err != nil {
		return err
	}
	od, err := withVis(og)
	if err != nil {
		return err
	}
	rms, err := degridAccuracy(e.ctx, og, od, model, sh.prov)
	if err == nil && !(rms <= sh.rmsTol) {
		err = fmt.Errorf("degrid_rel_rms %.3e exceeds the gate %.3e", rms, sh.rmsTol)
	}
	e.op(err)
	e.layer.set("degrid_rel_rms", rms)
	if err := og.AddNoise(sh.noise, e.seed); err != nil {
		return err
	}

	// One untimed warm-up op, then timed ops until the budget is used.
	// The traced run leaves the spans off every other op, which is
	// what trace.overhead_frac compares.
	// The warm-up op starts from a collected heap and the peak RSS is
	// read right after it: set-up, load generation and one whole op.
	// Later ops only add 64 MB steps that depend on when the collector
	// reaches the previous op's three discarded grids. The timed ops
	// are not preceded by collections: a collection empties the
	// kernels' scratch and subgrid pools, and on sparse the placement
	// of the re-allocated scratch makes one pass in three 3x slower.
	runtime.GC()
	warm, err := plainOp(e, e.trace, og, od, sh.prov)
	e.op(err)
	e.e2e.set("peak_rss_mb", peakRSSMB())
	var ops []cycleTimes
	for start := time.Now(); len(ops) < e.minOps() || time.Since(start) < e.budget(); {
		tr := e.trace
		if len(ops)%2 == 1 {
			tr = nil
		}
		ct, err := plainOp(e, tr, og, od, sh.prov)
		if e.op(err) {
			ops = append(ops, ct)
		}

		if e.giveUp() {
			break
		}
	}
	if len(ops) == 0 {
		return fmt.Errorf("%s: no operation succeeded", sh.name)
	}

	nvis := float64(og.Plan.Stats().NrGriddedVisibilities)
	gridS := medianOf(ops, func(c cycleTimes) time.Duration { return c.grid })
	degridS := medianOf(ops, func(c cycleTimes) time.Duration { return c.degrid })
	cycleS := medianOf(ops, func(c cycleTimes) time.Duration { return c.cycle })
	e.e2e.set("grid_mvis_s", nvis/gridS/1e6)
	e.e2e.set("cycle_s", cycleS)
	e.layer.set("degrid_mvis_s", nvis/degridS/1e6)
	fmt.Printf("%s: %d timed ops; grid %.3fs  grid-fft %.3fs  degrid %.3fs  cycle %.3fs (medians); degrid %.3f MVis/s; degrid_rel_rms %.3e\n",
		sh.name, len(ops), gridS, medianOf(ops, func(c cycleTimes) time.Duration { return c.fft }), degridS, cycleS, nvis/degridS/1e6, rms)

	if e.trace == nil {
		return nil
	}
	return plainLayers(e, sh, og, od, warm, ops)
}
