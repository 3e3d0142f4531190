package repro

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/faultinject"
)

// True multi-process conformance: the coordinator execs copies of
// this test binary as worker processes (the TestMain re-exec idiom),
// so partition assignment, the reduction wire protocol, checkpoint
// resume and process death are exercised across real process
// boundaries under plain `go test` — no prebuilt cmd/ binaries
// needed. cmd/idgworker is the production twin of distribExecWorker.

const distribExecEnv = "REPRO_DISTRIB_EXEC_WORKER"

func TestMain(m *testing.M) {
	if os.Getenv(distribExecEnv) == "1" {
		distribExecWorker()
		return
	}
	os.Exit(m.Run())
}

// distribExecWorker is the worker-process entry point: the spec
// arrives in environment variables, the observation is rebuilt from
// the shared golden config, and the partial grid is delivered to the
// coordinator. A REPRO_DISTRIB_KILL attempt dies at the first
// checkpoint rename (unrecovered panic, non-zero exit) exactly like a
// crashed production worker.
func distribExecWorker() {
	geti := func(key string) int {
		n, err := strconv.Atoi(os.Getenv(key))
		if err != nil {
			fmt.Fprintf(os.Stderr, "exec worker: bad %s=%q: %v\n", key, os.Getenv(key), err)
			os.Exit(1)
		}
		return n
	}
	axis, err := ParseDistribAxis(os.Getenv("REPRO_DISTRIB_AXIS"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "exec worker:", err)
		os.Exit(1)
	}
	cfg := distribGoldenConfig()
	cfg.CheckpointEvery = 2
	probe := distribGoldenConfig()
	o, err := probe.BuildPlan()
	if err != nil {
		fmt.Fprintln(os.Stderr, "exec worker:", err)
		os.Exit(1)
	}
	opt := DistribWorkerOptions{
		Config:          cfg,
		Model:           distribGoldenModel(o),
		Workers:         geti("REPRO_DISTRIB_WORKERS"),
		Index:           geti("REPRO_DISTRIB_INDEX"),
		Axis:            axis,
		Resume:          os.Getenv("REPRO_DISTRIB_RESUME") == "1",
		CoordinatorAddr: os.Getenv("REPRO_DISTRIB_COORD"),
		CheckpointDir:   os.Getenv("REPRO_DISTRIB_CKPT"),
		ChunkItems:      8,
	}
	if os.Getenv("REPRO_DISTRIB_KILL") == "1" {
		opt.CrashHook = faultinject.CrashHook(checkpoint.EventBeforeRename, -1)
	}
	if _, err := RunDistribWorker(context.Background(), opt); err != nil {
		fmt.Fprintln(os.Stderr, "exec worker:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// TestDistribMultiProcess runs a 4-worker distributed pass with
// exec'd worker processes, kills worker 2's first attempt mid-stream,
// and requires the final grid to hash bit-identically to the clean
// in-process run — the full cross-process determinism claim.
func TestDistribMultiProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("execs worker processes in -short mode")
	}
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	want := distribCleanHash(t, 4, DistribRows)
	root := t.TempDir()
	var killed atomic.Bool
	launcher := DistribLauncherFunc(func(ctx context.Context, spec DistribWorkerSpec) error {
		cmd := exec.CommandContext(ctx, self)
		cmd.Env = append(os.Environ(),
			distribExecEnv+"=1",
			"REPRO_DISTRIB_COORD="+spec.CoordinatorAddr,
			"REPRO_DISTRIB_INDEX="+strconv.Itoa(spec.Index),
			"REPRO_DISTRIB_WORKERS="+strconv.Itoa(spec.Workers),
			"REPRO_DISTRIB_AXIS="+spec.Axis.String(),
			"REPRO_DISTRIB_CKPT="+filepath.Join(root, fmt.Sprintf("worker%02d", spec.Index)),
		)
		if spec.Resume {
			cmd.Env = append(cmd.Env, "REPRO_DISTRIB_RESUME=1")
		}
		// Worker 2 owns a busy mid-grid row band (see
		// TestDistribKillAndResumeChaos); kill its first attempt only.
		if spec.Index == 2 && !spec.Resume && killed.CompareAndSwap(false, true) {
			cmd.Env = append(cmd.Env, "REPRO_DISTRIB_KILL=1")
		}
		out, err := cmd.CombinedOutput()
		if err != nil {
			return fmt.Errorf("worker %d process: %w (output: %s)", spec.Index, err, firstLine(out))
		}
		return nil
	})
	opt := distribGoldenOptions(t, 4, DistribRows)
	opt.MaxRestarts = 2
	opt.Launcher = launcher
	g, sum, err := RunDistributed(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !killed.Load() {
		t.Error("the kill was never injected")
	}
	if sum.Restarts != 1 {
		t.Errorf("restarts = %d, want 1 (notes: %v)", sum.Restarts, sum.Notes)
	}
	if got := FingerprintGrid(g).SHA256; got != want {
		t.Errorf("multi-process hash %s, want in-process clean hash %s", got, want)
	}
}

func firstLine(b []byte) []byte {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		return b[:i]
	}
	return b
}
