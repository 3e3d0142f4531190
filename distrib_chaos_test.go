package repro

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/distrib"
	"repro/internal/faultinject"
)

// Distributed chaos: workers killed mid-stream by crash hooks at
// checkpoint events, relaunched by the coordinator with Resume set,
// resuming from their private checkpoint directories. Workers grid
// serially and the reduction tree is index-fixed, so every
// killed-and-resumed run must hash identically to a clean run of the
// same configuration — the distributed extension of
// TestKillAndResumeChaos.

// distribChaosOptions is the deterministic distributed setup with
// checkpointing: small chunks so kills and checkpoints land
// mid-partition, a per-worker checkpoint root, and a restart budget.
func distribChaosOptions(t *testing.T, workers int, axis DistribAxis) DistribOptions {
	t.Helper()
	opt := distribGoldenOptions(t, workers, axis)
	opt.CheckpointRoot = t.TempDir()
	opt.Config.CheckpointEvery = 2
	opt.ChunkItems = 8
	opt.MaxRestarts = 2
	return opt
}

// distribCleanHash runs the distributed pass without chaos and
// returns its grid hash (same worker count and axis, no checkpoint
// dir needed: the clean run never restarts).
func distribCleanHash(t *testing.T, workers int, axis DistribAxis) string {
	t.Helper()
	g, sum, err := RunDistributed(context.Background(), distribGoldenOptions(t, workers, axis))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Restarts != 0 {
		t.Fatalf("clean run restarted %d times", sum.Restarts)
	}
	return FingerprintGrid(g).SHA256
}

// TestDistribKillAndResumeChaos kills one worker of four at every
// checkpoint crash event in turn; each run must recover through the
// coordinator's relaunch-with-resume and hash identically to the
// clean 4-worker run.
func TestDistribKillAndResumeChaos(t *testing.T) {
	want := distribCleanHash(t, 4, DistribRows)
	kills := []struct {
		name string
		ev   checkpoint.Event
		at   int
	}{
		{"chunk-committed", checkpoint.EventChunkCommitted, 2},
		{"before-write", checkpoint.EventBeforeWrite, -1},
		{"before-rename", checkpoint.EventBeforeRename, -1},
		{"after-write", checkpoint.EventAfterWrite, -1},
	}
	for _, kc := range kills {
		t.Run(kc.name, func(t *testing.T) {
			opt := distribChaosOptions(t, 4, DistribRows)
			opt.WorkerHook = func(w *DistribWorkerOptions, spec DistribWorkerSpec) {
				if spec.Index == 2 && !spec.Resume {
					w.CrashHook = faultinject.CrashHook(kc.ev, kc.at)
				}
			}
			g, sum, err := RunDistributed(context.Background(), opt)
			if err != nil {
				t.Fatal(err)
			}
			if sum.Restarts != 1 {
				t.Errorf("restarts = %d, want exactly 1 (notes: %v)", sum.Restarts, sum.Notes)
			}
			if got := FingerprintGrid(g).SHA256; got != want {
				t.Errorf("killed-and-resumed run hash %s, want clean-run %s (notes: %v)", got, want, sum.Notes)
			}
		})
	}
}

// distribBusiestWorkers returns the two partition indices owning the
// most plan items under the axis (the workers whose kills actually
// land mid-stream — edge partitions can be empty).
func distribBusiestWorkers(t *testing.T, cfg ObservationConfig, axis DistribAxis, workers int) (int, int) {
	t.Helper()
	o, err := cfg.BuildPlan()
	if err != nil {
		t.Fatal(err)
	}
	first, second := 0, 1
	count := func(w int) int {
		sub, err := distrib.FilterPlan(o.Plan, axis, workers, w)
		if err != nil {
			t.Fatal(err)
		}
		return len(sub.Items)
	}
	for w := 0; w < workers; w++ {
		switch n := count(w); {
		case n > count(first):
			first, second = w, first
		case w != first && n > count(second):
			second = w
		}
	}
	if count(second) == 0 {
		t.Skipf("axis %s leaves fewer than two busy partitions at %d workers", axis, workers)
	}
	return first, second
}

// TestDistribChaosSoak is the race-mode soak: several iterations, on
// both axes (with W-stacking on, so both axes spread real work), with
// the two busiest of four workers killed at different checkpoint
// events so relaunched reduction streams interleave with
// first-attempt streams mid-reduction. Every iteration must converge
// to the clean run's hash.
func TestDistribChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-iteration chaos soak in -short mode")
	}
	for _, axis := range []DistribAxis{distrib.AxisRows, distrib.AxisWPlanes} {
		t.Run(axis.String(), func(t *testing.T) {
			clean := distribGoldenOptions(t, 4, axis)
			clean.Config.WStepLambda = 40
			v1, v2 := distribBusiestWorkers(t, clean.Config, axis, 4)
			g, sum, err := RunDistributed(context.Background(), clean)
			if err != nil {
				t.Fatal(err)
			}
			if sum.Restarts != 0 {
				t.Fatalf("clean run restarted %d times", sum.Restarts)
			}
			want := FingerprintGrid(g).SHA256
			for iter := 0; iter < 2; iter++ {
				opt := distribChaosOptions(t, 4, axis)
				opt.Config.WStepLambda = 40
				var mu sync.Mutex
				killed := map[int]bool{}
				opt.WorkerHook = func(w *DistribWorkerOptions, spec DistribWorkerSpec) {
					mu.Lock()
					defer mu.Unlock()
					if spec.Resume || killed[spec.Index] {
						return
					}
					switch spec.Index {
					case v1:
						w.CrashHook = faultinject.CrashHook(checkpoint.EventBeforeRename, -1)
						killed[v1] = true
					case v2:
						w.CrashHook = faultinject.CrashHook(checkpoint.EventChunkCommitted, -1)
						killed[v2] = true
					}
				}
				g, sum, err := RunDistributed(context.Background(), opt)
				if err != nil {
					t.Fatalf("iter %d: %v", iter, err)
				}
				if sum.Restarts != 2 {
					t.Errorf("iter %d: restarts = %d, want 2 (victims %d,%d; notes: %v)", iter, sum.Restarts, v1, v2, sum.Notes)
				}
				if got := FingerprintGrid(g).SHA256; got != want {
					t.Errorf("iter %d: chaos run hash %s, want %s", iter, got, want)
				}
			}
		})
	}
}

// TestDistribRestartBudgetExhausted checks the failure path: a worker
// that dies on every attempt (fresh and resumed) fails the run with
// an error naming it, instead of hanging or silently dropping its
// partition.
func TestDistribRestartBudgetExhausted(t *testing.T) {
	opt := distribChaosOptions(t, 2, DistribRows)
	opt.MaxRestarts = 1
	opt.WorkerHook = func(w *DistribWorkerOptions, spec DistribWorkerSpec) {
		if spec.Index == 1 {
			// EventChunkCommitted fires on every attempt's first chunks,
			// resumed or not, so the worker can never finish.
			w.CrashHook = faultinject.CrashHook(checkpoint.EventChunkCommitted, -1)
		}
	}
	_, _, err := RunDistributed(context.Background(), opt)
	if err == nil || !strings.Contains(err.Error(), "worker 1") {
		t.Fatalf("got %v, want worker 1 failing the run", err)
	}
	if !strings.Contains(err.Error(), "2 attempt(s)") {
		t.Fatalf("got %v, want the restart budget (2 attempts) in the error", err)
	}
}

// TestDistribStaleCheckpointsStartFresh: checkpoints another partition
// wrote into a worker's directory — a 3-worker run's here, as a run
// under an earlier row split leaves them — fail the sub-plan
// fingerprint of the 2-worker run's resumed attempts, which grid their
// partitions from the start and hash as a clean run.
func TestDistribStaleCheckpointsStartFresh(t *testing.T) {
	want := distribCleanHash(t, 2, DistribRows)
	opt := distribChaosOptions(t, 3, DistribRows)
	if _, _, err := RunDistributed(context.Background(), opt); err != nil {
		t.Fatal(err)
	}
	opt.Workers = 2
	opt.WorkerHook = func(w *DistribWorkerOptions, _ DistribWorkerSpec) { w.Resume = true }
	g, sum, err := RunDistributed(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Restarts != 0 {
		t.Errorf("restarts = %d, want 0 (notes: %v)", sum.Restarts, sum.Notes)
	}
	if got := FingerprintGrid(g).SHA256; got != want {
		t.Errorf("run over stale checkpoints hashes %s, want the clean run's %s", got, want)
	}
}

// TestDistribWorkerOptionValidation covers RunDistribWorker's
// assignment validation.
func TestDistribWorkerOptionValidation(t *testing.T) {
	bad := []DistribWorkerOptions{
		{Workers: 0},
		{Workers: 4, Index: 4},
		{Workers: 4, Index: -1},
	}
	for i, opt := range bad {
		if _, err := RunDistribWorker(context.Background(), opt); err == nil {
			t.Errorf("options %d accepted: %+v", i, opt)
		}
	}
	if _, _, err := RunDistributed(context.Background(), DistribOptions{Workers: 0}); err == nil {
		t.Error("RunDistributed accepted zero workers")
	}
}

// TestDistribRejectsFramePayloadBelowOneRow: a reduction frame cap
// below distrib.MinPayload, too small for the result frame, is a
// ConfigError on MaxFramePayload naming the minimum, from
// RunDistributed and RunDistribWorker alike, before any worker starts
// (the coordinator would discard every stream until its result wait ran
// out). At the minimum itself the band stream goes a few entries to a
// frame, and the run reduces to the default cap's bits.
func TestDistribRejectsFramePayloadBelowOneRow(t *testing.T) {
	ctx := context.Background()
	opt := distribGoldenOptions(t, 2, DistribRows)
	opt.MaxRestarts = 1
	need := distrib.MinPayload
	var launched atomic.Int32
	opt.Launcher = DistribLauncherFunc(func(context.Context, DistribWorkerSpec) error {
		launched.Add(1)
		return errors.New("a worker was launched")
	})
	isPayloadError := func(err error) bool {
		var ce *ConfigError
		return errors.As(err, &ce) && ce.Field == "MaxFramePayload" && strings.Contains(ce.Reason, fmt.Sprintf("minimum is %d", need))
	}
	for _, cap := range []int{1, need - 1} {
		opt.MaxFramePayload = cap
		if _, _, err := RunDistributed(ctx, opt); !isPayloadError(err) {
			t.Errorf("RunDistributed with a %d-byte cap: %v, want a MaxFramePayload ConfigError naming %d", cap, err, need)
		}
		w := DistribWorkerOptions{Config: opt.Config, Model: opt.Model, Workers: 2, Axis: DistribRows, MaxFramePayload: cap}
		if _, err := RunDistribWorker(ctx, w); !isPayloadError(err) {
			t.Errorf("RunDistribWorker with a %d-byte cap: %v, want a MaxFramePayload ConfigError naming %d", cap, err, need)
		}
	}
	if n := launched.Load(); n != 0 {
		t.Fatalf("%d workers launched under a cap below the minimum", n)
	}

	opt.Launcher = nil
	opt.MaxFramePayload = 0
	want, _, err := RunDistributed(ctx, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.MaxFramePayload = need
	got, sum, err := RunDistributed(ctx, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != want.Fingerprint() || sum.Discarded != 0 || sum.Restarts != 0 {
		t.Fatalf("at the minimum cap: grid equal %v, discarded %d, restarts %d", got.Fingerprint() == want.Fingerprint(), sum.Discarded, sum.Restarts)
	}
}
