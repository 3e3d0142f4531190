// Command idgbench regenerates every table and figure of the paper's
// evaluation (Section VI). Each experiment prints the same rows or
// series the paper reports: modelled platform numbers are derived
// from exact operation counts plus the calibrated platform models
// (see EXPERIMENTS.md), and the "plan" experiment builds the paper's
// full-size execution plan to verify the closed-form counts.
//
// Usage:
//
//	idgbench -experiment all
//	idgbench -experiment table1,fig9,fig10
//	idgbench -experiment fig8 -scale 0.2
//	idgbench -experiment measured -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
)

var experiments = []struct {
	name string
	desc string
	run  func(scale float64) error
}{
	{"table1", "Table I: the three architectures", runTable1},
	{"fig8", "Fig. 8: uv coverage of the test data set", runFig8},
	{"fig9", "Fig. 9: runtime distribution of one imaging cycle", runFig9},
	{"fig10", "Fig. 10: gridding/degridding throughput", runFig10},
	{"fig11", "Fig. 11: device-memory roofline", runFig11},
	{"fig12", "Fig. 12: ops throughput vs FMA/sincos mix", runFig12},
	{"fig13", "Fig. 13: shared-memory roofline", runFig13},
	{"fig14", "Fig. 14: energy distribution of one imaging cycle", runFig14},
	{"fig15", "Fig. 15: energy efficiency of the kernels", runFig15},
	{"fig16", "Fig. 16: IDG vs W-projection throughput", runFig16},
	{"fig7", "Fig. 7: triple-buffering pipeline timeline", runFig7},
	{"plan", "full-size execution plan statistics (Section VI-A)", runPlanStats},
	{"measured", "wall-clock Go kernel measurements (scaled dataset)", runMeasured},
}

func main() {
	os.Exit(run())
}

// run carries the real main body so the profiling defers fire before
// the process exits.
func run() int {
	list := flag.String("experiment", "all",
		"comma-separated experiment list (all, table1, fig7-fig16, plan, measured)")
	scale := flag.Float64("scale", 1.0,
		"dataset scale factor for experiments that run real code")
	cpuprofile := flag.String("cpuprofile", "",
		"write a CPU profile of the selected experiments to this file")
	memprofile := flag.String("memprofile", "",
		"write a heap profile taken after the selected experiments to this file")
	flag.StringVar(&traceFile, "trace", "",
		"write a chrome://tracing timeline of the measured experiment to this file")
	flag.BoolVar(&showMetrics, "metrics", false,
		"print the pipeline metrics registry after the measured experiment")
	flag.IntVar(&gridShards, "grid-shards", 0,
		"shard the uv-grid of the measured gridding pass into this many locked row bands (0: one per worker)")
	flag.IntVar(&maxInflight, "max-inflight", 0,
		"bound on in-flight chunks of the measured gridding pass (0: the worker count)")
	flag.Parse()
	if !(*scale > 0) || math.IsInf(*scale, 1) {
		fmt.Fprintf(os.Stderr, "idgbench: -scale must be a positive finite number, got %g\n", *scale)
		return 1
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "idgbench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "idgbench: start cpu profile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "idgbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "idgbench: write heap profile: %v\n", err)
			}
		}()
	}

	selected := map[string]bool{}
	for _, s := range strings.Split(*list, ",") {
		selected[strings.TrimSpace(s)] = true
	}
	ran := 0
	for _, e := range experiments {
		if !selected["all"] && !selected[e.name] {
			continue
		}
		fmt.Printf("=== %s: %s ===\n", e.name, e.desc)
		if err := e.run(*scale); err != nil {
			// Returned, not exited: the profiling defers above still run.
			fmt.Fprintf(os.Stderr, "idgbench: %s: %v\n", e.name, err)
			return 1
		}
		fmt.Println()
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no experiment matched %q; known:\n", *list)
		for _, e := range experiments {
			fmt.Fprintf(os.Stderr, "  %-10s %s\n", e.name, e.desc)
		}
		return 2
	}
	return 0
}
