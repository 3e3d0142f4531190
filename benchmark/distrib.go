package main

import (
	"fmt"
	"runtime"
	"time"

	"repro"
	"repro/internal/checkpoint"
	"repro/internal/distrib"
	"repro/internal/server"
)

// distribRun is one RunDistributed call at a worker count. It starts
// from a collected heap, so its wall and the peak RSS do not depend on
// when the collector gets to the previous run's observations and
// grids.
func distribRun(e *env, tr *tracer, cfg repro.ObservationConfig, model repro.SkyModel, workers int) (*repro.Grid, *repro.DistribSummary, time.Duration, error) {
	// Each in-process worker gets its share of the host's cores.
	cfg.Workers = max(1, e.nproc/workers)
	var g *repro.Grid
	var sum *repro.DistribSummary
	var err error
	runtime.GC()
	d := tr.run(noSpan, fmt.Sprintf("distrib.run.w%d", workers), func(int) {
		g, sum, err = repro.RunDistributed(e.ctx, repro.DistribOptions{
			Config: cfg, Model: model, Workers: workers, Axis: repro.DistribRows,
		})
	})
	if err == nil {
		err = checkFinite(fmt.Sprintf("RunDistributed W=%d", workers), g)
	}
	return g, sum, d, err
}

// runDistrib is the distrib workload: the dense observation through
// RunDistributed (row partition, in-process launcher). One op is a
// round of two runs on the same data, at 1 and at 2 workers; the
// 2-worker grid must match the 1-worker grid to 1e-12 of its peak.
func runDistrib(e *env) error {
	cfg := denseConfig(e.smoke, e.nproc)

	o, setupS, err := e.buildSetup(cfg)
	if err != nil {
		return err
	}
	e.e2e.set("setup_s", setupS)
	// The workers fill their own visibilities from the model, so the
	// seed reaches them as source positions and fluxes.
	model := seededModel(o, e.seed, 4)
	nvis := float64(o.Plan.Stats().NrGriddedVisibilities)

	// Untimed warm-up at 2 workers: every code path of a round.
	_, _, _, err = distribRun(e, e.trace, cfg, model, 2)
	e.op(err)

	var t1, t2, rounds, tracedRounds, untracedRounds []time.Duration
	restarts := 0
	for start := time.Now(); len(rounds) < e.minOps() || time.Since(start) < e.budget(); {
		tr := e.trace
		if len(rounds)%2 == 1 {
			tr = nil
		}
		var g2 *repro.Grid
		var s2 *repro.DistribSummary
		var d2 time.Duration
		g1, s1, d1, err := distribRun(e, tr, cfg, model, 1)
		if err == nil {
			g2, s2, d2, err = distribRun(e, tr, cfg, model, 2)
		}
		round := d1 + d2
		if err == nil {
			if d, peak := maxAbsDiff(g1, g2), gridPeak(g1); !(d <= 1e-12*peak) {
				err = fmt.Errorf("W=2 grid differs from W=1 by %.3e of peak (gate 1e-12)", d/peak)
			}
		}
		if e.op(err) {
			t1, t2, rounds = append(t1, d1), append(t2, d2), append(rounds, round)
			restarts += s1.Restarts + s2.Restarts
			if tr != nil {
				tracedRounds = append(tracedRounds, round)
			} else {
				untracedRounds = append(untracedRounds, round)
			}
		}
		if e.giveUp() {
			break
		}
	}
	if len(rounds) == 0 {
		return fmt.Errorf("distrib: no round succeeded")
	}

	w1, w2 := medianDur(t1), medianDur(t2)
	e.e2e.set("grid_mvis_s", nvis/w2/1e6)
	e.e2e.set("cycle_s", medianDur(rounds))
	e.e2e.set("peak_rss_mb", peakRSSMB())
	e.layer.set("w1_mvis_s", nvis/w1/1e6)
	e.layer.set("w2_mvis_s", nvis/w2/1e6)
	e.layer.set("eff_w2", w1/(2*w2))
	e.layer.set("distrib.run_s", w2)
	e.layer.set("distrib.restarts", float64(restarts))
	fmt.Printf("distrib: %d timed rounds; W=1 %.3fs (%.3f MVis/s)  W=2 %.3fs (%.3f MVis/s)  eff_w2 %.3f  round %.3fs (medians)\n",
		len(rounds), w1, nvis/w1/1e6, w2, nvis/w2/1e6, w1/(2*w2), medianDur(rounds))

	if e.trace == nil {
		return nil
	}
	if len(untracedRounds) > 0 {
		e.layer.set("trace.overhead_frac", medianDur(tracedRounds)/medianDur(untracedRounds)-1)
	}
	return distribLayers(e, cfg, model, nvis, w1, w2)
}

// distribLayers drives the pieces of a 2-worker run one at a time on
// the same data: a worker's plan work, its fill, its streamed pass,
// its band encoding and hashing, and the coordinator's reduction.
func distribLayers(e *env, cfg repro.ObservationConfig, model repro.SkyModel, nvis, w1, w2 float64) error {
	const workers = 2
	wcfg := cfg
	wcfg.Workers = max(1, e.nproc/workers)

	// What every worker (and once more the coordinator) does before it
	// can grid: build the full plan, filter it, fingerprint the part.
	parts := make([]*repro.Observation, workers)
	var planS time.Duration
	for i := range parts {
		var err error
		planS += e.trace.run(noSpan, "distrib.plan", func(int) {
			var o *repro.Observation
			if o, err = wcfg.BuildPlan(); err != nil {
				return
			}
			if o.Plan, err = distrib.FilterPlan(o.Plan, repro.DistribRows, workers, i); err != nil {
				return
			}
			checkpoint.PlanFingerprint(o.Plan)
			parts[i] = o
		})
		if err != nil {
			return err
		}
	}
	e.layer.set("distrib.plan_s", planS.Seconds())

	var err error
	fillS := e.trace.run(noSpan, "distrib.fill", func(int) { err = parts[0].FillFromModelPlan(model) })
	if err != nil {
		return err
	}
	if err := parts[1].FillFromModelPlan(model); err != nil {
		return err
	}
	e.layer.set("distrib.fill_s", fillS.Seconds())

	grids := make([]*repro.Grid, workers)
	var gridS time.Duration
	for i, o := range parts {
		d := e.trace.run(noSpan, "distrib.grid", func(int) {
			grids[i], _, _, err = o.GridAllStreamed(e.ctx, nil, repro.FaultConfig{})
		})
		if err != nil {
			return err
		}
		if i == 0 {
			gridS = d
		}
	}
	e.layer.set("distrib.grid_s", gridS.Seconds())

	// Delivery: the touched row span in band frames under the payload
	// cap, plus the fingerprint of the whole partial grid.
	var bandBytes countingWriter
	encodeS := e.trace.run(noSpan, "distrib.band_encode", func(int) {
		g := grids[0]
		lo, hi := distrib.NonzeroRowSpan(g)
		step := distrib.BandRowsPerFrame(g.N, 0)
		for y := lo; y < hi && err == nil; y += step {
			var f server.Frame
			if f, err = distrib.EncodeBand(g, y, min(y+step, hi)); err == nil {
				err = server.WriteFrame(&bandBytes, f)
			}
		}
		distrib.FingerprintOf(g)
	})
	if err != nil {
		return err
	}
	e.layer.set("distrib.band_encode_s", encodeS.Seconds())
	e.layer.set("distrib.band_bytes", float64(bandBytes.n))

	var reduced *repro.Grid
	reduceS := e.trace.run(noSpan, "distrib.reduce", func(int) { reduced = distrib.TreeReduce(grids) })
	if err := checkFinite("TreeReduce", reduced); err != nil {
		return err
	}
	e.layer.set("distrib.reduce_s", reduceS.Seconds())

	// With one core per worker the two workers run side by side, so the
	// critical path of a run is one worker's chain plus the
	// coordinator's own plan work before launch and the reduction.
	perWorker := planS.Seconds() / workers
	critical := perWorker + (perWorker + fillS.Seconds() + gridS.Seconds() + encodeS.Seconds()) + reduceS.Seconds()
	e.layer.set("distrib.unaccounted_s", w2-critical)

	if err := planLayer(e, cfg); err != nil {
		return err
	}
	rows := []ledgerRow{
		{"distrib.plan (build+filter+fingerprint, x2)", planS.Seconds(), "", 0, perWorker * 2 / w2},
		{"distrib.fill (one partition)", fillS.Seconds(), "", 0, fillS.Seconds() / w2},
		{"distrib.grid (one partition, streamed)", gridS.Seconds(), mvis(nvis/workers, gridS.Seconds()), 0, gridS.Seconds() / w2},
		{"distrib.band_encode (+SHA-256)", encodeS.Seconds(), fmt.Sprintf("%.1f MB/s", float64(bandBytes.n)/encodeS.Seconds()/1e6), 0, encodeS.Seconds() / w2},
		{"distrib.reduce (tree, 2 grids)", reduceS.Seconds(), "", 0, reduceS.Seconds() / w2},
		{"distrib.unaccounted", w2 - critical, "", 0, (w2 - critical) / w2},
		{"RunDistributed W=2", w2, mvis(nvis, w2), w1 / w2, 1},
		{"RunDistributed W=1", w1, mvis(nvis, w1), 0, 0},
	}
	printLedger("distrib", "RunDistributed at 2 workers", w2, rows)
	fmt.Printf("eff_w2 %.3f; restarts %.0f; trace.overhead_frac %.4f\n",
		e.layer.get("eff_w2"), e.layer.get("distrib.restarts"), e.layer.get("trace.overhead_frac"))
	return nil
}
