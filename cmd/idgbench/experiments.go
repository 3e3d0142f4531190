package main

import (
	"fmt"
	"math"
	"os"

	"repro/internal/arch"
	"repro/internal/energy"
	"repro/internal/perfmodel"
	"repro/internal/report"

	"repro"
)

// runTable1 prints Table I from the arch package.
func runTable1(float64) error {
	t := report.NewTable("model", "type", "architecture", "clock(GHz)",
		"core config = #FPUs", "peak(TFlops)", "mem(GB)", "mem bw(GB/s)", "TDP(W)")
	for _, p := range arch.Platforms() {
		cfg := fmt.Sprintf("%dx%dx%dx%d = %d",
			p.NrICs, p.NrComputeUnits, p.FPUInstrPerCyc, p.VectorSize, p.NrFPUs())
		t.AddRow(p.Model, p.Type, p.Architecture, p.ClockGHz, cfg,
			p.PeakTFlops, p.MemGB, p.MemBandwidthGBs, p.TDPWatts)
	}
	t.Render(os.Stdout)
	return nil
}

// paperModelDataset returns the dataset all modelled figures use.
func paperModelDataset() perfmodel.Dataset {
	return perfmodel.PaperDataset()
}

// runFig8 renders the uv coverage of the SKA1-low test data set as an
// ASCII density plot. scale < 1 reduces the time sampling.
func runFig8(scale float64) error {
	cfg := repro.PaperObservation()
	cfg.NrTimesteps = int(float64(cfg.NrTimesteps) * scale)
	if cfg.NrTimesteps < 16 {
		cfg.NrTimesteps = 16
	}
	obs, err := cfg.BuildPlan()
	if err != nil {
		return err
	}
	// Sample the tracks (both signs: each visibility has a conjugate
	// mirror point, which is what makes Fig. 8 symmetric).
	var us, vs []float64
	baselines := obs.Simulator.Baselines()
	tStep := cfg.NrTimesteps / 64
	if tStep == 0 {
		tStep = 1
	}
	for i := 0; i < len(baselines); i += 7 {
		for t := 0; t < cfg.NrTimesteps; t += tStep {
			c := obs.Simulator.UVW(baselines[i].P, baselines[i].Q, t)
			us = append(us, c.U, -c.U)
			vs = append(vs, c.V, -c.V)
		}
	}
	fmt.Printf("%d sampled uv points (of %d baselines x %d steps):\n",
		len(us), len(baselines), cfg.NrTimesteps)
	fmt.Print(report.Scatter(us, vs, 72, 36))
	return nil
}

// runFig9 prints the modelled runtime distribution of one imaging
// cycle per platform.
func runFig9(float64) error {
	d := paperModelDataset()
	t := report.NewTable("platform", "gridder(s)", "degridder(s)", "subgrid-fft(s)",
		"adder(s)", "splitter(s)", "total(s)", "gridder+degridder")
	for _, p := range arch.Platforms() {
		c := perfmodel.ImagingCycle(p, d)
		t.AddRow(p.Name, c.Gridder.Seconds, c.Degridder.Seconds, c.SubgridFFT.Seconds,
			c.Adder.Seconds, c.Splitter.Seconds, c.Total(),
			fmt.Sprintf("%.1f%%", 100*c.FractionInGridderDegridder()))
	}
	t.Render(os.Stdout)
	fmt.Println("\nruntime shares (one bar per platform, # = gridder+degridder):")
	for _, p := range arch.Platforms() {
		c := perfmodel.ImagingCycle(p, d)
		fmt.Printf("  %-8s |%s| %.1fs\n", p.Name,
			report.Bar(c.Gridder.Seconds+c.Degridder.Seconds, c.Total(), 40), c.Total())
	}
	return nil
}

// runFig10 prints gridding/degridding throughput in MVis/s.
func runFig10(float64) error {
	d := paperModelDataset()
	t := report.NewTable("platform", "gridding(MVis/s)", "degridding(MVis/s)")
	for _, p := range arch.Platforms() {
		g, dg := perfmodel.ThroughputMVisPerSec(p, d)
		t.AddRow(p.Name, g, dg)
	}
	t.Render(os.Stdout)
	return nil
}

// runFig11 prints the device-memory roofline points and ceilings.
func runFig11(float64) error {
	d := paperModelDataset()
	t := report.NewTable("platform", "kernel", "OI(ops/byte)", "achieved(TOps/s)",
		"mix ceiling(TOps/s)", "peak(TOps/s)", "fraction of peak", "bound")
	for _, pt := range perfmodel.DeviceRoofline(d) {
		p, _ := arch.ByName(pt.Platform)
		var c perfmodel.KernelCounts
		if pt.Kernel == "gridder" {
			c = perfmodel.GridderCounts(d)
		} else {
			c = perfmodel.DegridderCounts(d)
		}
		perf := perfmodel.Predict(p, c)
		t.AddRow(pt.Platform, pt.Kernel, pt.Intensity, pt.TOpsPerSec,
			pt.CeilingTOps, pt.PeakTOps,
			fmt.Sprintf("%.0f%%", 100*perf.FractionOfPeak), string(perf.Bound))
	}
	t.Render(os.Stdout)
	return nil
}

// runFig12 prints the ops throughput for FMA/sincos mixes.
func runFig12(float64) error {
	t := report.NewTable("rho", "HASWELL(TOps/s)", "FIJI(TOps/s)", "PASCAL(TOps/s)")
	for rho := 0.25; rho <= 4096; rho *= 2 {
		row := []interface{}{rho}
		for _, p := range arch.Platforms() {
			row = append(row, p.MixOpsPerSec(rho)/1e12)
		}
		t.AddRow(row...)
	}
	t.Render(os.Stdout)
	fmt.Printf("\nkernel operating point rho = %d:\n", arch.KernelRho)
	for _, p := range arch.Platforms() {
		fmt.Printf("  %-8s %.2f TOps/s (%.0f%% of peak)\n", p.Name,
			p.MixOpsPerSec(arch.KernelRho)/1e12, 100*p.MixFraction(arch.KernelRho))
	}
	return nil
}

// runFig13 prints the shared-memory roofline points.
func runFig13(float64) error {
	d := paperModelDataset()
	t := report.NewTable("platform", "kernel", "shared OI(ops/byte)",
		"achieved(TOps/s)", "shared ceiling(TOps/s)", "of ceiling")
	for _, pt := range perfmodel.SharedRoofline(d) {
		t.AddRow(pt.Platform, pt.Kernel, pt.Intensity, pt.TOpsPerSec, pt.CeilingTOps,
			fmt.Sprintf("%.0f%%", 100*pt.TOpsPerSec/pt.CeilingTOps))
	}
	t.Render(os.Stdout)
	return nil
}

// runFig14 prints the energy distribution of one imaging cycle.
func runFig14(float64) error {
	d := paperModelDataset()
	t := report.NewTable("platform", "gridder(kJ)", "degridder(kJ)", "fft(kJ)",
		"adder+splitter(kJ)", "host(kJ)", "total(kJ)")
	for _, p := range arch.Platforms() {
		c, err := energy.Cycle(p, d)
		if err != nil {
			return err
		}
		t.AddRow(p.Name, c.Gridder.DeviceJoules/1e3, c.Degridder.DeviceJoules/1e3,
			c.SubgridFFT.DeviceJoules/1e3,
			(c.Adder.DeviceJoules+c.Splitter.DeviceJoules)/1e3,
			c.HostJoules/1e3, c.Total()/1e3)
	}
	t.Render(os.Stdout)
	return nil
}

// runFig15 prints the per-kernel energy efficiency.
func runFig15(float64) error {
	d := paperModelDataset()
	t := report.NewTable("platform", "gridder(GFlops/W)", "degridder(GFlops/W)")
	for _, p := range arch.Platforms() {
		g := energy.Efficiency(p, perfmodel.GridderCounts(d))
		dg := energy.Efficiency(p, perfmodel.DegridderCounts(d))
		t.AddRow(p.Name, g.GFlopsPerWatt, dg.GFlopsPerWatt)
	}
	t.Render(os.Stdout)
	return nil
}

// runFig16 prints the IDG vs WPG comparison on PASCAL.
func runFig16(float64) error {
	d := paperModelDataset()
	p := arch.Pascal()
	rows := perfmodel.Fig16(p, d, []int{4, 8, 12, 16, 24, 32, 48, 64}, []int{24, 32, 48})
	t := report.NewTable("N_W", "WPG(MVis/s)", "WPG improved [21]",
		"IDG N~=24", "IDG N~=32", "IDG N~=48")
	for _, r := range rows {
		t.AddRow(r.NW, r.WPG, r.WPGImproved, r.IDG[24], r.IDG[32], r.IDG[48])
	}
	t.Render(os.Stdout)
	fmt.Println("\n(IDG columns are flat: its cost depends on the subgrid size, not N_W;")
	fmt.Println(" in practice N_W <= 24, where IDG N~=24 wins by 2-4x — Section VI-E.)")
	return nil
}

// runFig7 simulates the triple-buffering timeline.
func runFig7(float64) error {
	d := paperModelDataset()
	p := arch.Pascal()
	// Per-work-group durations for 1024-item groups of the paper
	// dataset.
	groups := d.NrSubgrids / 1024
	c := perfmodel.ImagingCycle(p, d)
	kernel := c.Gridder.Seconds / groups
	htod := perfmodel.GridderCounts(d).HtoDBytes / (p.PCIeGBs * 1e9) / groups
	res3 := perfmodel.SimulateTripleBuffer(64, 3, htod, kernel, htod/4)
	res1 := perfmodel.SimulateTripleBuffer(64, 1, htod, kernel, htod/4)
	t := report.NewTable("configuration", "makespan(ms)", "kernel busy")
	t.AddRow("serial (1 buffer)", res1.Makespan*1e3, fmt.Sprintf("%.0f%%", 100*res1.KernelBusy))
	t.AddRow("triple buffering", res3.Makespan*1e3, fmt.Sprintf("%.0f%%", 100*res3.KernelBusy))
	t.Render(os.Stdout)
	fmt.Printf("speedup from overlapping I/O with kernels: %.2fx\n", res1.Makespan/res3.Makespan)
	return nil
}

// runPlanStats builds the full-size paper plan with the streaming
// planner and compares against the closed-form dataset.
func runPlanStats(scale float64) error {
	cfg := repro.PaperObservation()
	cfg.NrTimesteps = int(float64(cfg.NrTimesteps) * scale)
	if cfg.NrTimesteps < 256 {
		cfg.NrTimesteps = 256
	}
	fmt.Printf("building execution plan: %d stations, %d steps, %d channels...\n",
		cfg.NrStations, cfg.NrTimesteps, cfg.NrChannels)
	obs, err := cfg.BuildPlan()
	if err != nil {
		return err
	}
	st := obs.Plan.Stats()
	total := int64(len(obs.Simulator.Baselines())) * int64(cfg.NrTimesteps) * int64(cfg.NrChannels)
	t := report.NewTable("quantity", "value")
	t.AddRow("baselines", len(obs.Simulator.Baselines()))
	t.AddRow("visibilities", total)
	t.AddRow("gridded", st.NrGriddedVisibilities)
	t.AddRow("dropped (off-grid)", st.NrDroppedVisibilities)
	t.AddRow("subgrids", st.NrSubgrids)
	t.AddRow("avg timesteps/subgrid", st.AvgTimestepsPerSubgrid)
	t.AddRow("max timesteps/subgrid", st.MaxTimestepsPerItem)
	t.AddRow("image size (dir. cos.)", obs.ImageSize)
	t.Render(os.Stdout)

	d := perfmodel.FromPlan("paper (exact)", obs.Plan, len(obs.Simulator.Baselines()), cfg.NrTimesteps)
	cf := perfmodel.PaperDataset()
	ratio := d.NrSubgrids / (cf.NrSubgrids * float64(cfg.NrTimesteps) / float64(cf.NrTimesteps))
	fmt.Printf("\nclosed-form subgrid count vs exact plan: off by %.1f%%\n", 100*math.Abs(ratio-1))
	return nil
}
