package main

import (
	"fmt"
	"os"
	"text/tabwriter"
)

// ledgerRow is one line of a workload's per-layer ledger.
type ledgerRow struct {
	layer  string
	busyS  float64
	rate   string  // work per second, with its unit
	below  float64 // rate as a share of the layer below (0: no layer below)
	opWall float64 // busy time as a share of the op wall (0: not part of the op)
}

func printLedger(workload string, opName string, opWall float64, rows []ledgerRow) {
	fmt.Printf("\nledger %s (op = %s, wall %.3f s)\n", workload, opName, opWall)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "layer\tbusy s\trate\t% of layer below\t% of op wall")
	pct := func(v float64) string {
		if v == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f", 100*v)
	}
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.4f\t%s\t%s\t%s\n", r.layer, r.busyS, r.rate, pct(r.below), pct(r.opWall))
	}
	tw.Flush()
}

func mvis(nvis, seconds float64) string {
	return fmt.Sprintf("%.3f MVis/s", nvis/seconds/1e6)
}

// printPlainLedger prints the ledger of a plain workload from the
// per-layer metrics: kernels at the bottom, then the passes with their
// stage rows, the grid transforms, and the streamed pass on top.
func printPlainLedger(e *env, cycleS float64) {
	l := e.layer.get
	nvis := l("plan.items") * l("plan.vis_per_item")
	workers := float64(e.nproc)
	gridS, degridS := l("core.pass.grid_s"), l("core.pass.degrid_s")
	fftS := cycleS - gridS - degridS
	rows := []ledgerRow{
		{"core.gridder (1 thread)", l("core.gridder.busy_s"), fmt.Sprintf("%.3f MVis/s", l("core.gridder.mvis_s")), 0, 0},
		{"core.pass.grid (GridAll)", gridS, mvis(nvis, gridS), nvis / gridS / 1e6 / (l("core.gridder.mvis_s") * workers), gridS / cycleS},
		{"  .gridder", l("core.pass.gridder_s"), "", 0, l("core.pass.gridder_s") / cycleS},
		{"  .subgrid_fft", l("core.pass.subgrid_fft_s"), "", 0, l("core.pass.subgrid_fft_s") / cycleS},
		{"  .adder", l("core.pass.adder_s"), "", 0, l("core.pass.adder_s") / cycleS},
		{"  .other", l("core.pass.other_s"), "", 0, l("core.pass.other_s") / cycleS},
		{"fft.grid (2 transforms)", fftS, "", 0, fftS / cycleS},
		{"core.degridder (1 thread)", l("core.degridder.busy_s"), fmt.Sprintf("%.3f MVis/s", l("core.degridder.mvis_s")), 0, 0},
		{"core.pass.degrid (DegridAll)", degridS, mvis(nvis, degridS), nvis / degridS / 1e6 / (l("core.degridder.mvis_s") * workers), degridS / cycleS},
		{"  .degridder", l("core.pass.degridder_s"), "", 0, l("core.pass.degridder_s") / cycleS},
		{"  .splitter", l("core.pass.splitter_s"), "", 0, l("core.pass.splitter_s") / cycleS},
		{"  .subgrid_fft", l("core.pass.degrid_fft_s"), "", 0, l("core.pass.degrid_fft_s") / cycleS},
		{"  .other", l("core.pass.degrid_other_s"), "", 0, l("core.pass.degrid_other_s") / cycleS},
		{"core.subgrid_fft (1 thread)", l("core.subgrid_fft.busy_s"), fmt.Sprintf("%.0f subgrids/s", l("core.subgrid_fft.subgrids_s")), 0, 0},
		{"core.adder (1 thread)", l("core.adder.busy_s"), fmt.Sprintf("%.1f Mpix/s", l("core.adder.mpix_s")), 0, 0},
		{"core.adder_sharded", l("core.adder_sharded.busy_s"), fmt.Sprintf("%.1f Mpix/s", l("core.adder_sharded.mpix_s")), l("core.adder_sharded.mpix_s") / l("core.adder.mpix_s"), 0},
		{"core.splitter (1 thread)", l("core.splitter.busy_s"), fmt.Sprintf("%.1f Mpix/s", l("core.splitter.mpix_s")), 0, 0},
		{"core.splitter_sharded", l("core.splitter_sharded.busy_s"), fmt.Sprintf("%.1f Mpix/s", l("core.splitter_sharded.mpix_s")), l("core.splitter_sharded.mpix_s") / l("core.splitter.mpix_s"), 0},
		{"aterm (evaluate all maps)", l("aterm.eval_s"), "", 0, 0},
		{"core.streamed.grid (4 shards)", l("core.streamed.grid_s"), mvis(nvis, l("core.streamed.grid_s")), gridS / l("core.streamed.grid_s"), 0},
	}
	printLedger(e.trace.workload, "GridAll -> GridToImage -> ImageToGrid -> DegridAll", cycleS, rows)
	fmt.Printf("kernel share of grid+degrid wall %.1f%%; fixed per-subgrid share %.1f%%; trace.overhead_frac %.4f\n",
		100*l("core.pass.kernel_frac"), 100*l("core.pass.fixed_frac"), l("trace.overhead_frac"))
}
