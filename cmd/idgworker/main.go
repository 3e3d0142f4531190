// Command idgworker runs one worker of a distributed imaging pass: it
// builds the shared observation, filters the plan to its assigned
// partition (-index of -workers along -axis), fills the visibilities
// from the standard sky model, grids the partition through the
// streamed scheduler — checkpointing into -checkpoint-dir, resuming
// from it under -resume — and delivers the partial grid to the
// coordinator over the reduction wire protocol, logging where its time
// went (build / fill / grid / deliver) to stderr.
//
// It is normally exec'd by cmd/idgdistrib, which passes every flag
// below; running it by hand against a live coordinator is how one
// worker is debugged in isolation. -inject-crash kills the process at
// a checkpoint event (the chaos harness of scripts/distrib_smoke.sh).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/faultinject"

	"repro"
)

func main() {
	var (
		coordinator = flag.String("coordinator", "", "coordinator host:port to deliver the partial grid to (required)")
		index       = flag.Int("index", 0, "this worker's partition index")
		workers     = flag.Int("workers", 1, "total number of workers")
		axisName    = flag.String("axis", "rows", "partition axis: rows or wplanes")
		resume      = flag.Bool("resume", false, "resume from the newest checkpoint in -checkpoint-dir")
		ckptDir     = flag.String("checkpoint-dir", "", "this worker's private checkpoint directory")
		ckptEach    = flag.Int("checkpoint-every", 2, "checkpoint period in streamed chunks")
		chunkItems  = flag.Int("chunk-items", 0, "work items per streamed chunk (0: scheduler default)")
		injectCrash = flag.String("inject-crash", "", "kill the process at a checkpoint event: chunk-committed|before-write|before-rename|after-write[@chunk]")

		stations   = flag.Int("stations", 10, "number of stations")
		steps      = flag.Int("steps", 48, "time steps")
		channels   = flag.Int("channels", 4, "channels")
		gridSize   = flag.Int("grid", 256, "grid size in pixels")
		subgrid    = flag.Int("subgrid", 16, "subgrid size in pixels")
		support    = flag.Int("support", 4, "kernel support in uv cells")
		margin     = flag.Int("margin", 16, "grid margin in pixels")
		aterm      = flag.Int("aterm-interval", 16, "time steps per A-term slot")
		wstep      = flag.Float64("wstep", 0, "W-layer thickness in wavelengths (0: no W-stacking)")
		sources    = flag.Int("sources", 3, "standard sky model sources")
		innerWorke = flag.Int("inner-workers", 1, "worker goroutines inside this process (1 keeps the partial bit-deterministic across resume)")
	)
	flag.Parse()

	if *coordinator == "" {
		fail(fmt.Errorf("-coordinator is required"))
	}
	axis, err := repro.ParseDistribAxis(*axisName)
	if err != nil {
		fail(err)
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
		Workers:        *innerWorke,
		GridShards:     1,
		CheckpointDir:  *ckptDir,
		CheckpointEvery: func() int {
			if *ckptDir == "" {
				return 0
			}
			return *ckptEach
		}(),
	}
	if *innerWorke > 1 {
		// Multiple shards only make sense with parallel inner workers;
		// the default serial mode keeps one shard for bit-determinism.
		cfg.GridShards = 0
	}

	// The model must be derived from the config alone so every worker
	// process predicts identical visibility bits; RunDistribWorker builds
	// the one plan of this process.
	model, err := cfg.StandardSkyModel(*sources)
	if err != nil {
		fail(err)
	}

	opt := repro.DistribWorkerOptions{
		Config:          cfg,
		Model:           model,
		Workers:         *workers,
		Index:           *index,
		Axis:            axis,
		Resume:          *resume,
		CoordinatorAddr: *coordinator,
		CheckpointDir:   *ckptDir,
		ChunkItems:      *chunkItems,
	}
	if *injectCrash != "" {
		hook, err := parseCrash(*injectCrash)
		if err != nil {
			fail(err)
		}
		opt.CrashHook = hook
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	times, err := repro.RunDistribWorker(ctx, opt)
	fmt.Fprintf(os.Stderr, "idgworker %d/%d: build %.3fs  fill %.3fs  grid %.3fs  deliver %.3fs\n", *index, *workers,
		times.Build.Seconds(), times.Fill.Seconds(), times.Grid.Seconds(), times.Deliver.Seconds())
	if err != nil {
		fail(err)
	}
	fmt.Printf("worker %d/%d axis %s delivered\n", *index, *workers, axis)
}

// parseCrash turns "event[@chunk]" into a crash hook that panics the
// process at that checkpoint event (once), simulating a kill.
func parseCrash(s string) (repro.CheckpointHook, error) {
	name, at := s, -1
	if i := strings.IndexByte(s, '@'); i >= 0 {
		name = s[:i]
		n, err := strconv.Atoi(s[i+1:])
		if err != nil {
			return nil, fmt.Errorf("bad -inject-crash chunk in %q: %w", s, err)
		}
		at = n
	}
	events := map[string]checkpoint.Event{
		"chunk-committed": checkpoint.EventChunkCommitted,
		"before-write":    checkpoint.EventBeforeWrite,
		"before-rename":   checkpoint.EventBeforeRename,
		"after-write":     checkpoint.EventAfterWrite,
	}
	ev, ok := events[name]
	if !ok {
		return nil, fmt.Errorf("unknown -inject-crash event %q", name)
	}
	return faultinject.CrashHook(ev, at), nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "idgworker:", err)
	os.Exit(1)
}
