package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/aterm"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/perfmodel"
	"repro/internal/xmath"
)

// The per-layer drivers of the traced run. Each layer is called
// directly on the workload's own plan and visibilities, on one thread
// unless noted, inside a span; a layer's busy time is the summed self
// time of its spans. The program under test keeps a nil observer.

// planLayer times a fresh plan build of the workload's configuration.
func planLayer(e *env, cfg repro.ObservationConfig) error {
	var o *repro.Observation
	var err error
	d := e.trace.run(noSpan, "plan.build", func(int) { o, err = cfg.BuildPlan() })
	if err != nil {
		return err
	}
	st := o.Plan.Stats()
	e.layer.set("plan.build_s", d.Seconds())
	e.layer.set("plan.items", float64(st.NrSubgrids))
	e.layer.set("plan.vis_per_item", float64(st.NrGriddedVisibilities)/float64(st.NrSubgrids))
	return nil
}

// sincosLayer measures the vectorized sincos on the batch size the
// float32 kernels feed it (192 lanes: 8 rows of a 24-pixel subgrid).
func sincosLayer(e *env) {
	const lanes = 192
	x, s, c := make([]float64, lanes), make([]float64, lanes), make([]float64, lanes)
	for i := range x {
		x[i] = 0.37 * float64(i-lanes/2)
	}
	calls := 0
	d := e.trace.run(noSpan, "xmath.sincos", func(int) {
		for start := time.Now(); time.Since(start) < 200*time.Millisecond; {
			for i := 0; i < 256; i++ {
				xmath.SincosVec(s, c, x)
			}
			calls += 256
		}
	})
	e.layer.set("xmath.sincos.mevals_s", float64(calls)*lanes/d.Seconds()/1e6)
}

// atermLayer evaluates the provider over every station, slot and
// subgrid pixel, which is what a pass's A-term cache fill costs.
func atermLayer(e *env, o *repro.Observation, prov repro.ATermProvider) {
	if prov == nil {
		return // identity fast path: the passes never evaluate A-terms
	}
	n := o.Config.SubgridSize
	slots := repro.ATermScheduler{UpdateInterval: o.Config.ATermInterval}.NrSlots(o.Config.NrTimesteps)
	evals := 0
	var sink repro.Matrix2
	d := e.trace.run(noSpan, "aterm.eval", func(int) {
		for st := 0; st < o.Config.NrStations; st++ {
			for sl := 0; sl < slots; sl++ {
				for y := 0; y < n; y++ {
					for x := 0; x < n; x++ {
						l, m := repro.PixelToLM(x, y, n, o.ImageSize)
						sink = prov.Evaluate(st, sl, l, m)
						evals++
					}
				}
			}
		}
	})
	_ = sink
	e.layer.set("aterm.eval_s", d.Seconds())
	e.layer.set("aterm.evals", float64(evals))
}

// kernelLedger walks the plan group by group on one thread the way the
// passes do on many: gridder kernel, subgrid FFT, adder (classic and
// sharded) for every group, then splitter, inverse subgrid FFT and
// degridder kernel. dst receives the degridded visibilities; the grid
// the classic adder built is returned.
func kernelLedger(e *env, o, dst *repro.Observation, prov repro.ATermProvider) (*repro.Grid, error) {
	p := o.Kernels.Params()
	p.Workers = 1
	k, err := core.NewKernels(p)
	if err != nil {
		return nil, err
	}
	n, gs := o.Config.SubgridSize, o.Config.GridSize
	var cache *aterm.Cache
	if prov != nil {
		cache = aterm.NewCache(prov, n, o.ImageSize)
	}
	aterms := func(it repro.WorkItem) (ap, aq []repro.Matrix2) {
		if cache == nil {
			return nil, nil
		}
		b := o.Vis.Baselines[it.Baseline]
		return cache.Get(b.P, it.ATermSlot), cache.Get(b.Q, it.ATermSlot)
	}
	groups := o.Plan.WorkGroups(core.DefaultWorkGroupSize)
	subgrids := make([]*grid.Subgrid, core.DefaultWorkGroupSize)
	for i := range subgrids {
		subgrids[i] = grid.NewSubgrid(n, 0, 0)
	}
	var vis []repro.Matrix2
	g, gSharded := grid.NewGrid(gs), grid.NewGrid(gs)
	sh := grid.NewSharded(gSharded, 4)

	e.trace.run(noSpan, "ledger.grid", func(id int) {
		for _, group := range groups {
			batch := subgrids[:len(group)]
			// A-term maps are filled outside the kernel span, as the
			// passes' prefill does; aterm.eval_s prices them.
			for _, it := range group {
				aterms(it)
			}
			e.trace.run(id, "core.gridder", func(int) {
				for i, it := range group {
					vis = sized(vis, it.NrVisibilities())
					gatherItem(o.Vis, it, vis)
					ap, aq := aterms(it)
					k.GridSubgrid(it, itemUVW(o.Vis, it), vis, ap, aq, batch[i])
				}
			})
			e.trace.run(id, "core.subgrid_fft", func(int) { k.FFTSubgrids(batch) })
			e.trace.run(id, "core.adder", func(int) { k.Adder(batch, g) })
			e.trace.run(id, "core.adder_sharded", func(int) { k.AdderSharded(batch, sh) })
		}
	})
	if err := checkFinite("ledger adder", g); err != nil {
		return nil, err
	}
	if d, peak := maxAbsDiff(g, gSharded), gridPeak(g); d > 1e-12*peak {
		return nil, fmt.Errorf("sharded adder grid differs from the classic adder by %.3e of peak", d/peak)
	}

	e.trace.run(noSpan, "ledger.degrid", func(id int) {
		for _, group := range groups {
			batch := subgrids[:len(group)]
			for i, it := range group {
				batch[i].X0, batch[i].Y0, batch[i].WOffset = it.X0, it.Y0, it.WOffset
			}
			e.trace.run(id, "core.splitter_sharded", func(int) { k.SplitterSharded(sh, batch) })
			e.trace.run(id, "core.splitter", func(int) { k.Splitter(g, batch) })
			e.trace.run(id, "core.subgrid_fft", func(int) { k.InverseFFTSubgrids(batch) })
			e.trace.run(id, "core.degridder", func(int) {
				for i, it := range group {
					vis = sized(vis, it.NrVisibilities())
					ap, aq := aterms(it)
					k.DegridSubgrid(it, batch[i], itemUVW(o.Vis, it), ap, aq, vis)
					scatterItem(dst.Vis, it, vis)
				}
			})
		}
	})

	self := e.trace.selfByName()
	st := o.Plan.Stats()
	nvis := float64(st.NrGriddedVisibilities)
	ds := perfmodel.FromPlan(e.trace.workload, o.Plan, len(o.Vis.Baselines), o.Config.NrTimesteps)
	kernel := func(name string, counts perfmodel.KernelCounts) {
		busy := self[name].Seconds()
		e.layer.set(name+".busy_s", busy)
		e.layer.set(name+".mvis_s", nvis/busy/1e6)
		e.layer.set(name+".ops_per_vis", counts.Ops/nvis)
		e.layer.set(name+".gops_s", counts.Ops/busy/1e9)
	}
	kernel("core.gridder", perfmodel.GridderCounts(ds))
	kernel("core.degridder", perfmodel.DegridderCounts(ds))

	fftBusy := self["core.subgrid_fft"].Seconds()
	e.layer.set("core.subgrid_fft.busy_s", fftBusy)
	e.layer.set("core.subgrid_fft.subgrids_s", 2*float64(st.NrSubgrids)/fftBusy)
	mpix := float64(st.NrSubgrids) * float64(n*n) * grid.NrCorrelations / 1e6
	for _, name := range []string{"core.adder", "core.adder_sharded", "core.splitter", "core.splitter_sharded"} {
		busy := self[name].Seconds()
		e.layer.set(name+".busy_s", busy)
		e.layer.set(name+".mpix_s", mpix/busy)
	}
	return g, nil
}

// sized returns buf resliced (or regrown) to n elements.
func sized(buf []repro.Matrix2, n int) []repro.Matrix2 {
	if cap(buf) < n {
		return make([]repro.Matrix2, n)
	}
	return buf[:n]
}

func itemUVW(vs *repro.VisibilitySet, it repro.WorkItem) []repro.UVW {
	return vs.UVW[it.Baseline][it.TimeStart : it.TimeStart+it.NrTimesteps]
}

// gatherItem copies an item's visibilities into dst, laid out
// [t*item.NrChannels + c] as the kernels expect.
func gatherItem(vs *repro.VisibilitySet, it repro.WorkItem, dst []repro.Matrix2) {
	src := vs.Data[it.Baseline]
	for t := 0; t < it.NrTimesteps; t++ {
		row := (it.TimeStart+t)*vs.NrChannels + it.Channel0
		copy(dst[t*it.NrChannels:(t+1)*it.NrChannels], src[row:row+it.NrChannels])
	}
}

func scatterItem(vs *repro.VisibilitySet, it repro.WorkItem, src []repro.Matrix2) {
	dst := vs.Data[it.Baseline]
	for t := 0; t < it.NrTimesteps; t++ {
		row := (it.TimeStart+t)*vs.NrChannels + it.Channel0
		copy(dst[row:row+it.NrChannels], src[t*it.NrChannels:(t+1)*it.NrChannels])
	}
}

// gridFFTLayer times the two full-grid transforms of a cycle on one
// thread.
func gridFFTLayer(e *env, g *repro.Grid) {
	d := e.trace.run(noSpan, "fft.grid.serial", func(int) {
		repro.ImageToGrid(repro.GridToImage(g, 1), 1)
	})
	e.layer.set("fft.grid.busy_s", d.Seconds())
}

// withKernels returns a copy of o whose kernels carry edited params.
func withKernels(o *repro.Observation, edit func(*repro.Params)) (*repro.Observation, error) {
	p := o.Kernels.Params()
	edit(&p)
	k, err := repro.NewKernels(p)
	if err != nil {
		return nil, err
	}
	c := *o
	c.Kernels = k
	return &c, nil
}

// warmThenTimed runs pass once untimed (its pools and pages are then
// warm) and once inside a span, returning the second wall in seconds.
func warmThenTimed(e *env, name string, pass func() error) (float64, error) {
	if err := pass(); err != nil {
		return 0, err
	}
	var err error
	d := e.trace.run(noSpan, name, func(int) { err = pass() })
	return d.Seconds(), err
}

// streamedLayer grids the observation through the streamed scheduler
// on 4 shards, the path the server and the distributed workers use.
func streamedLayer(e *env, o *repro.Observation, prov repro.ATermProvider, plainGridS float64) error {
	os4, err := withKernels(o, func(p *repro.Params) { p.GridShards = 4 })
	if err != nil {
		return err
	}
	s, err := warmThenTimed(e, "core.streamed.grid", func() error {
		g, _, _, err := os4.GridAllStreamed(e.ctx, prov, repro.FaultConfig{})
		if err == nil {
			err = checkFinite("GridAllStreamed", g)
		}
		return err
	})
	if err != nil {
		return err
	}
	e.layer.set("core.streamed.grid_s", s)
	e.layer.set("core.streamed.overhead_frac", s/plainGridS-1)
	return nil
}

// checkpointLayer runs one streamed pass that writes durable
// snapshots into a directory under outDir, timing each write between
// the scheduler's before-write and after-write events.
func checkpointLayer(e *env, o *repro.Observation, prov repro.ATermProvider) error {
	dir, err := os.MkdirTemp(e.outDir, "ckpt-"+e.trace.workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var began time.Time
	var writing time.Duration
	count := 0
	oc, err := withKernels(o, func(p *repro.Params) {
		p.GridShards = 4
		p.CheckpointDir = dir
		p.CheckpointHook = func(ev checkpoint.Event, _ int) {
			switch ev {
			case checkpoint.EventBeforeWrite:
				began = time.Now()
			case checkpoint.EventAfterWrite:
				writing += time.Since(began)
				count++
			}
		}
	})
	if err != nil {
		return err
	}
	oc.Config.CheckpointDir = dir
	e.trace.run(noSpan, "checkpoint.pass", func(int) {
		_, _, _, err = oc.GridAllStreamed(e.ctx, prov, repro.FaultConfig{})
	})
	if err != nil {
		return err
	}
	var bytes int64
	names, err := checkpoint.List(dir)
	if err != nil {
		return err
	}
	for _, name := range names {
		if fi, err := os.Stat(filepath.Join(dir, name)); err == nil {
			bytes += fi.Size()
		}
	}
	e.layer.set("checkpoint.write_s", writing.Seconds())
	e.layer.set("checkpoint.count", float64(count))
	e.layer.set("checkpoint.bytes", float64(bytes))
	d := e.trace.run(noSpan, "checkpoint.fingerprint", func(int) { checkpoint.PlanFingerprint(o.Plan) })
	e.layer.set("checkpoint.fingerprint_s", d.Seconds())
	return nil
}

// observerLayer prices an enabled observer: the same pass with
// NewObserver attached over the nil-observer pass.
func observerLayer(e *env, o *repro.Observation, prov repro.ATermProvider, plainGridS float64) error {
	oo, err := withKernels(o, func(p *repro.Params) { p.Observer = repro.NewObserver(0) })
	if err != nil {
		return err
	}
	s, err := warmThenTimed(e, "obs.pass", func() error {
		_, _, err := oo.GridAll(e.ctx, prov)
		return err
	})
	if err != nil {
		return err
	}
	e.layer.set("obs.enabled_overhead_frac", s/plainGridS-1)
	return nil
}

// plainLayers is the traced half of a plain workload: the core.pass
// rows from the end-to-end ops' own stage times, then every layer
// driven directly, then the ledger.
func plainLayers(e *env, sh plainShape, og, od *repro.Observation, warm cycleTimes, ops []cycleTimes) error {
	gridS := medianOf(ops, func(c cycleTimes) time.Duration { return c.grid })
	degridS := medianOf(ops, func(c cycleTimes) time.Duration { return c.degrid })
	gridderS := medianOf(ops, func(c cycleTimes) time.Duration { return c.gridStages.Gridder })
	gfftS := medianOf(ops, func(c cycleTimes) time.Duration { return c.gridStages.SubgridFFT })
	adderS := medianOf(ops, func(c cycleTimes) time.Duration { return c.gridStages.Adder })
	degridderS := medianOf(ops, func(c cycleTimes) time.Duration { return c.degridStages.Degridder })
	dfftS := medianOf(ops, func(c cycleTimes) time.Duration { return c.degridStages.SubgridFFT })
	splitterS := medianOf(ops, func(c cycleTimes) time.Duration { return c.degridStages.Splitter })
	e.layer.set("core.pass.grid_s", gridS)
	e.layer.set("core.pass.gridder_s", gridderS)
	e.layer.set("core.pass.subgrid_fft_s", gfftS)
	e.layer.set("core.pass.adder_s", adderS)
	e.layer.set("core.pass.other_s", gridS-gridderS-gfftS-adderS)
	e.layer.set("core.pass.warmup_s", warm.grid.Seconds()-gridS)
	e.layer.set("core.pass.degrid_s", degridS)
	e.layer.set("core.pass.degridder_s", degridderS)
	e.layer.set("core.pass.splitter_s", splitterS)
	e.layer.set("core.pass.degrid_fft_s", dfftS)
	e.layer.set("core.pass.degrid_other_s", degridS-degridderS-dfftS-splitterS)

	if err := planLayer(e, og.Config); err != nil {
		return err
	}
	sincosLayer(e)
	atermLayer(e, og, sh.prov)
	g, err := kernelLedger(e, og, od, sh.prov)
	if err != nil {
		return err
	}
	gridFFTLayer(e, g)
	if err := streamedLayer(e, og, sh.prov, gridS); err != nil {
		return err
	}
	if err := checkpointLayer(e, og, sh.prov); err != nil {
		return err
	}
	if sh.name == "dense" {
		if err := observerLayer(e, og, sh.prov, gridS); err != nil {
			return err
		}
	}

	nvis := float64(og.Plan.Stats().NrGriddedVisibilities)
	kernelRate := e.layer.get("core.gridder.mvis_s") * float64(og.Config.Workers)
	e.layer.set("core.pass.kernel_share", kernelRate/(nvis/gridS/1e6))
	both := gridS + degridS
	e.layer.set("core.pass.kernel_frac", (gridderS+degridderS)/both)
	// A-term evaluation runs on one thread in the passes (cache
	// prefill), once per pass.
	e.layer.set("core.pass.fixed_frac", (gfftS+dfftS+adderS+splitterS+2*e.layer.get("aterm.eval_s"))/both)

	// The ledger must account for the op: the timed calls inside an op
	// have to add up to its wall.
	cycleS := medianOf(ops, func(c cycleTimes) time.Duration { return c.cycle })
	parts := gridS + medianOf(ops, func(c cycleTimes) time.Duration { return c.fft }) + degridS
	if gap := (cycleS - parts) / cycleS; gap > 0.05 || gap < -0.05 {
		e.op(fmt.Errorf("ledger rows sum to %.3fs but the op wall is %.3fs (gap %.1f%%)", parts, cycleS, 100*gap))
	}
	var traced, untraced []time.Duration
	for _, ct := range ops {
		if ct.traced {
			traced = append(traced, ct.cycle)
		} else {
			untraced = append(untraced, ct.cycle)
		}
	}
	if len(untraced) > 0 {
		e.layer.set("trace.overhead_frac", medianDur(traced)/medianDur(untraced)-1)
	}
	printPlainLedger(e, cycleS)
	return nil
}
