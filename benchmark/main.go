// Command benchmark is the repository's one benchmark: five workloads
// over the whole IDG stack, end-to-end metrics measured with tracing
// off, and a traced run that attributes the time to layers. See
// README.md for the workloads, the metrics and the protocol, and
// BENCHMARK.json at the repository root for the contract the
// acceptance driver reads.
//
// The driver runs, from the repository root,
//
//	bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output: one JSON object with
// the keys correct, attempted, failed and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"repro"
)

func workloadNames() []string {
	names := make([]string, len(workloadDecls))
	for i, w := range workloadDecls {
		names[i] = w.Name
	}
	return names
}

// runWorkload executes one workload in this process and returns what
// the driver's last line reports.
func runWorkload(name string, seed int64, seconds float64, traced, smoke bool, outDir string) (result, error) {
	e := &env{
		ctx: context.Background(), seed: seed, seconds: seconds, smoke: smoke,
		outDir: outDir, nproc: runtime.NumCPU(),
		e2e: newMetricSet(e2eMetrics), layer: newMetricSet(layerMetrics),
	}
	if traced {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return result{}, err
		}
		e.trace = newTracer(name)
	}
	var err error
	switch name {
	case "dense", "dense-f32", "sparse":
		err = runPlain(e, plainShapes[name])
	case "served":
		err = runServed(e)
	case "distrib":
		err = runDistrib(e)
	default:
		err = fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
	}
	if err != nil {
		return result{}, err
	}
	for _, n := range e.notes {
		fmt.Println("FAILED:", n)
	}
	res := result{Correct: e.failed == 0, Attempted: e.attempted, Failed: e.failed}
	if traced {
		path := filepath.Join(outDir, "trace-"+name+".json")
		if err := e.trace.writeChromeTrace(path); err != nil {
			return result{}, err
		}
		fmt.Printf("wrote %s (%d spans)\n", path, len(e.trace.spans))
		res.Metrics = e.layer.export()
	} else {
		res.Metrics = e.e2e.export()
	}
	return res, nil
}

func printMetrics(res result) {
	for _, n := range sortedNames(res.Metrics) {
		m := res.Metrics[n]
		fmt.Printf("%-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
}

// hostInfo records where a result file was taken.
type hostInfo struct {
	NProc int    `json:"nproc"`
	CPU   string `json:"cpu"`
	SIMD  string `json:"simd"`
	Go    string `json:"go"`
}

func thisHost() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), CPU: cpuModel(), Go: runtime.Version()}
	if k, err := repro.NewKernels(repro.Params{GridSize: 64, SubgridSize: 8, ImageSize: 0.1, Frequencies: []float64{150e6}}); err == nil {
		h.SIMD = k.SIMDInfo().String()
	}
	return h
}

// suiteRun is one child run inside a result file.
type suiteRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

// suiteFile is what -json writes and -compare reads.
type suiteFile struct {
	Host    hostInfo   `json:"host"`
	Seconds float64    `json:"seconds"`
	Runs    []suiteRun `json:"runs"`
}

// runSuite runs each workload in a fresh child process, one after the
// other, so peak_rss_mb is per workload; repeat r uses seed+r.
func runSuite(names []string, seed int64, seconds float64, trace, repeat int, smoke bool, outDir, jsonPath string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := suiteFile{Host: thisHost(), Seconds: seconds}
	failed := false
	for r := 0; r < repeat; r++ {
		for _, name := range names {
			args := []string{
				"-workload", name, "-seed", fmt.Sprint(seed + int64(r)), "-seconds", fmt.Sprint(seconds),
				"-trace", fmt.Sprint(trace), "-out", outDir,
			}
			if smoke {
				args = append(args, "-smoke")
			}
			var out bytes.Buffer
			cmd := exec.Command(self, args...)
			cmd.Stdout = io.MultiWriter(os.Stdout, &out)
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("workload %s: %w", name, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("workload %s: last line is not a result: %w", name, err)
			}
			failed = failed || !res.Correct
			file.Runs = append(file.Runs, suiteRun{Workload: name, Seed: seed + int64(r), Trace: trace, Result: res})
		}
	}
	if jsonPath != "" {
		data, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", jsonPath)
	}
	if failed {
		return fmt.Errorf("a correctness gate was breached")
	}
	return nil
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload name, comma-separated names, or all")
		seed     = flag.Int64("seed", 1, "seed of the sky model, the noise and the served session order")
		seconds  = flag.Float64("seconds", runSeconds, "measuring time of one run")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, spans off; 1: per-layer metrics, ledger and trace file")
		jsonPath = flag.String("json", "", "write the runs to this result file (several workloads or -repeat)")
		repeat   = flag.Int("repeat", 1, "run each workload this many times, with seeds seed, seed+1, ...")
		smoke    = flag.Bool("smoke", false, "tiny shapes and one op per workload, to test the harness")
		outDir   = flag.String("out", "benchmark/out", "directory for trace files and temporary checkpoints")
		compare  = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		manPath  = flag.String("manifest", "BENCHMARK.json", "manifest read by -compare for the bounds")
		printMan = flag.Bool("print-manifest", false, "print BENCHMARK.json as declared in metrics.go and exit")
	)
	flag.Parse()
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}

	if *printMan {
		data, err := json.MarshalIndent(buildManifest(), "", "  ")
		if err != nil {
			fail(err)
		}
		fmt.Println(string(data))
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fail(fmt.Errorf("-compare needs two result files"))
		}
		regressed, err := compareFiles(os.Stdout, *manPath, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fail(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("-trace must be 0 or 1"))
	}
	if *seconds <= 0 || *repeat < 1 {
		fail(fmt.Errorf("-seconds and -repeat must be positive"))
	}

	names := strings.Split(*workload, ",")
	if *workload == "all" {
		names = workloadNames()
	}
	if len(names) > 1 || *repeat > 1 || *jsonPath != "" {
		if err := runSuite(names, *seed, *seconds, *trace, *repeat, *smoke, *outDir, *jsonPath); err != nil {
			fail(err)
		}
		return
	}

	res, err := runWorkload(names[0], *seed, *seconds, *trace == 1, *smoke, *outDir)
	if err != nil {
		fail(err)
	}
	printMetrics(res)
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	// A breached gate is reported as "correct": false with exit code 0,
	// as the driver's contract asks; the suite mode above turns it
	// into a non-zero exit for scripts and CI.
	fmt.Println(string(line))
}
