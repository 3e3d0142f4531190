// Command idgdistrib coordinates a distributed imaging pass on one
// machine: it execs -workers idgworker processes over localhost TCP,
// assigns each a partition of the plan along -axis, restarts killed
// workers with -resume so they continue from their private
// checkpoints, tree-reduces the delivered partial grids, and prints
// the final grid fingerprint (the same SHA-256 the golden conformance
// suite pins) and, on stderr, where the coordinator's time went.
//
//	idgdistrib -workers 4 -axis rows -checkpoint-root /tmp/ckpt
//	idgdistrib -workers 4 -kill 2:before-rename   # chaos: worker 2 dies once
//
// A run with -kill must print the same final SHA-256 as a clean run
// of the same configuration: workers grid serially (bit-deterministic
// resume) and the reduction tree's associativity is fixed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro"
)

func main() {
	var (
		workers   = flag.Int("workers", 4, "worker processes")
		axisName  = flag.String("axis", "rows", "partition axis: rows or wplanes")
		ckptRoot  = flag.String("checkpoint-root", "", "root directory for per-worker checkpoint directories (empty: no checkpointing)")
		ckptEach  = flag.Int("checkpoint-every", 2, "checkpoint period in streamed chunks")
		chunkItem = flag.Int("chunk-items", 8, "work items per streamed chunk")
		restarts  = flag.Int("max-restarts", 2, "restart budget per worker")
		kill      = flag.String("kill", "", "inject one crash: index:event[@chunk] (e.g. 2:before-rename); applied to the worker's first attempt only")
		workerBin = flag.String("worker-bin", "", "path to the idgworker binary (default: next to this binary, else PATH)")
		outPath   = flag.String("out", "", "write the final grid's stream (zero-run cells, what the sha256 hashes) to this file")
		jsonOut   = flag.Bool("json", false, "print the final fingerprint as JSON")
		verbose   = flag.Bool("v", false, "log coordinator progress")

		stations = flag.Int("stations", 10, "number of stations")
		steps    = flag.Int("steps", 48, "time steps")
		channels = flag.Int("channels", 4, "channels")
		gridSize = flag.Int("grid", 256, "grid size in pixels")
		subgrid  = flag.Int("subgrid", 16, "subgrid size in pixels")
		support  = flag.Int("support", 4, "kernel support in uv cells")
		margin   = flag.Int("margin", 16, "grid margin in pixels")
		aterm    = flag.Int("aterm-interval", 16, "time steps per A-term slot")
		wstep    = flag.Float64("wstep", 0, "W-layer thickness in wavelengths (0: no W-stacking)")
		sources  = flag.Int("sources", 3, "standard sky model sources")
	)
	flag.Parse()

	axis, err := repro.ParseDistribAxis(*axisName)
	if err != nil {
		fail(err)
	}
	killIndex, killSpec := -1, ""
	if *kill != "" {
		i := strings.IndexByte(*kill, ':')
		if i < 0 {
			fail(fmt.Errorf("-kill wants index:event[@chunk], got %q", *kill))
		}
		killIndex, err = strconv.Atoi((*kill)[:i])
		if err != nil || killIndex < 0 || killIndex >= *workers {
			fail(fmt.Errorf("-kill worker index in %q is not a worker of this run", *kill))
		}
		killSpec = (*kill)[i+1:]
		if *ckptRoot == "" {
			fail(fmt.Errorf("-kill needs -checkpoint-root: a killed worker resumes from its checkpoint"))
		}
	}

	bin := *workerBin
	if bin == "" {
		if self, err := os.Executable(); err == nil {
			cand := filepath.Join(filepath.Dir(self), "idgworker")
			if _, err := os.Stat(cand); err == nil {
				bin = cand
			}
		}
		if bin == "" {
			bin = "idgworker" // PATH lookup
		}
	}

	cfg := repro.ObservationConfig{
		NrStations:     *stations,
		NrTimesteps:    *steps,
		NrChannels:     *channels,
		StartFrequency: 150e6,
		ChannelWidth:   200e3,
		GridSize:       *gridSize,
		SubgridSize:    *subgrid,
		KernelSupport:  *support,
		GridMargin:     *margin,
		ATermInterval:  *aterm,
		WStepLambda:    *wstep,
		Workers:        1,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var killed atomic.Bool
	launcher := repro.DistribLauncherFunc(func(ctx context.Context, spec repro.DistribWorkerSpec) error {
		args := []string{
			"-coordinator", spec.CoordinatorAddr,
			"-index", strconv.Itoa(spec.Index),
			"-workers", strconv.Itoa(spec.Workers),
			"-axis", spec.Axis.String(),
			"-stations", strconv.Itoa(*stations),
			"-steps", strconv.Itoa(*steps),
			"-channels", strconv.Itoa(*channels),
			"-grid", strconv.Itoa(*gridSize),
			"-subgrid", strconv.Itoa(*subgrid),
			"-support", strconv.Itoa(*support),
			"-margin", strconv.Itoa(*margin),
			"-aterm-interval", strconv.Itoa(*aterm),
			"-wstep", fmt.Sprint(*wstep),
			"-sources", strconv.Itoa(*sources),
			"-chunk-items", strconv.Itoa(*chunkItem),
		}
		if *ckptRoot != "" {
			args = append(args,
				"-checkpoint-dir", filepath.Join(*ckptRoot, fmt.Sprintf("worker%02d", spec.Index)),
				"-checkpoint-every", strconv.Itoa(*ckptEach))
		}
		if spec.Resume {
			args = append(args, "-resume")
		}
		if spec.Index == killIndex && !spec.Resume && killed.CompareAndSwap(false, true) {
			args = append(args, "-inject-crash", killSpec)
		}
		cmd := exec.CommandContext(ctx, bin, args...)
		cmd.Stdout = os.Stderr // worker chatter must not pollute the fingerprint output
		cmd.Stderr = os.Stderr
		return cmd.Run()
	})

	start := time.Now()
	g, sum, err := repro.RunDistributed(ctx, repro.DistribOptions{
		Config:         cfg,
		Workers:        *workers,
		Axis:           axis,
		CheckpointRoot: *ckptRoot,
		MaxRestarts:    *restarts,
		ChunkItems:     *chunkItem,
		Launcher:       launcher,
		Logf: func(format string, args ...any) {
			if *verbose {
				fmt.Fprintf(os.Stderr, "idgdistrib: "+format+"\n", args...)
			}
		},
	})
	if err != nil {
		fail(err)
	}

	fp := repro.FingerprintGrid(g)
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fail(err)
		}
		if err := repro.WriteGridBinary(f, g); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
	}
	if *jsonOut {
		out := struct {
			repro.GridFingerprint
			Workers  int    `json:"workers"`
			Axis     string `json:"axis"`
			Restarts int    `json:"restarts"`
		}{fp, sum.Workers, sum.Axis.String(), sum.Restarts}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fail(err)
		}
	}
	fmt.Printf("final sha256 %s (workers %d, axis %s, restarts %d, nonzero %d)\n",
		fp.SHA256, sum.Workers, sum.Axis, sum.Restarts, fp.Nonzero)
	printStages(sum, time.Since(start))
}

// printStages prints the coordinator's stage table to stderr (stdout
// carries the fingerprint), unasked.
func printStages(sum *repro.DistribSummary, wall time.Duration) {
	st := sum.Stages
	rows := []struct {
		name string
		d    time.Duration
	}{
		{"plan + fingerprint pinning", st.Plan},
		{"launch -> last hello (workers: build, fill, grid)", st.Launch},
		{"receive (CRC, decode, band fingerprint)", st.Receive},
		{"verify (fingerprint compare)", st.Verify},
		{"reduce", st.Reduce},
	}
	rest := wall
	fmt.Fprintf(os.Stderr, "%-52s %9s %6s\n", "coordinator stage", "seconds", "share")
	for _, r := range rows {
		rest -= r.d
		fmt.Fprintf(os.Stderr, "%-52s %9.3f %5.1f%%\n", r.name, r.d.Seconds(), 100*r.d.Seconds()/wall.Seconds())
	}
	fmt.Fprintf(os.Stderr, "%-52s %9.3f %5.1f%%\n", "remainder (listener, hand-over, hash, output)", rest.Seconds(), 100*rest.Seconds()/wall.Seconds())
	fmt.Fprintf(os.Stderr, "%-52s %9.3f\n", "wall", wall.Seconds())
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "idgdistrib:", err)
	os.Exit(1)
}
