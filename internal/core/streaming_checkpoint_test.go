package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/faulttol"
	"repro/internal/grid"
)

// Core-level checkpoint tests use a local kill sentinel: faultinject
// imports core (for its chaos helpers), so these tests cannot import
// faultinject back. The facade chaos suite exercises the real
// faultinject.CrashHook.
type testKill struct {
	ev    checkpoint.Event
	chunk int
}

// killHookAt panics with testKill the first time ev fires at or past
// atChunk, mirroring faultinject.CrashHook.
func killHookAt(ev checkpoint.Event, atChunk int) checkpoint.Hook {
	fired := false
	return func(e checkpoint.Event, chunk int) {
		if fired || e != ev || chunk < atChunk {
			return
		}
		fired = true
		panic(testKill{ev: e, chunk: chunk})
	}
}

// ckptParams returns bit-deterministic streaming parameters (serial
// dispatch, single shard) with checkpointing into dir.
func ckptParams(sc *scenario, dir string) Params {
	params := sc.kernels.Params()
	params.GridShards = 1
	params.Workers = 1
	params.StreamChunkItems = 4
	params.CheckpointDir = dir
	params.CheckpointEvery = 2
	return params
}

// runStreamed runs an uninterrupted streamed pass with params and
// returns the resulting grid.
func runStreamed(t *testing.T, sc *scenario, params Params) *grid.Grid {
	t.Helper()
	k, err := NewKernels(params)
	if err != nil {
		t.Fatal(err)
	}
	sh := grid.NewSharded(grid.NewGrid(params.GridSize), 1)
	if _, rep, err := k.GridVisibilities(context.Background(), sc.plan, sc.vs, nil, sh, faulttol.Config{}, nil, 0); err != nil {
		t.Fatal(err)
	} else if rep.ItemsProcessed != len(sc.plan.Items) {
		t.Fatalf("uninterrupted pass processed %d of %d items", rep.ItemsProcessed, len(sc.plan.Items))
	}
	return sh.Master()
}

// resumeFromDir loads the newest valid snapshot in dir and continues
// the pass with a hook-free kernel set, returning the finished grid
// and report.
func resumeFromDir(t *testing.T, sc *scenario, params Params) (*grid.Grid, *faulttol.Report) {
	t.Helper()
	params.CheckpointHook = nil
	k, err := NewKernels(params)
	if err != nil {
		t.Fatal(err)
	}
	sn, _, _, err := checkpoint.LoadLatest(params.CheckpointDir, params.GridSize)
	if err != nil {
		t.Fatal(err)
	}
	g := grid.NewGrid(params.GridSize)
	start := 0
	rep := faulttol.NewReport(faulttol.Config{})
	if sn != nil {
		g = sn.Grid
		rep.RestoreState(sn.Report)
		start = sn.NextChunk
	}
	sh := grid.NewSharded(g, 1)
	if _, _, err := k.GridVisibilities(context.Background(), sc.plan, sc.vs, nil, sh, faulttol.Config{}, rep, start); err != nil {
		t.Fatal(err)
	}
	return g, rep
}

// TestStreamedCheckpointResumeEquivalence is the core acceptance
// property: kill a checkpointed streamed pass at each protocol event,
// resume from the surviving snapshots, and require the finished grid
// to be bit-identical to an uninterrupted pass.
func TestStreamedCheckpointResumeEquivalence(t *testing.T) {
	sc := buildScenario(t, defaultScenarioConfig())
	sc.fillFromModel(nil)
	ref := runStreamed(t, sc, ckptParams(sc, t.TempDir()))

	kills := []struct {
		name string
		ev   checkpoint.Event
		at   int
	}{
		{"chunk-committed-mid-epoch", checkpoint.EventChunkCommitted, 3},
		{"before-write", checkpoint.EventBeforeWrite, -1},
		{"before-rename", checkpoint.EventBeforeRename, -1},
		{"after-write", checkpoint.EventAfterWrite, 2},
	}
	for _, kc := range kills {
		t.Run(kc.name, func(t *testing.T) {
			params := ckptParams(sc, t.TempDir())
			params.CheckpointHook = killHookAt(kc.ev, kc.at)
			k, err := NewKernels(params)
			if err != nil {
				t.Fatal(err)
			}
			sh := grid.NewSharded(grid.NewGrid(params.GridSize), 1)
			func() {
				defer func() {
					r := recover()
					if _, ok := r.(testKill); !ok {
						t.Fatalf("expected the injected kill, recovered %v", r)
					}
				}()
				k.GridVisibilities(context.Background(), sc.plan, sc.vs, nil, sh, faulttol.Config{}, nil, 0)
				t.Fatal("pass completed without hitting the crash point")
			}()

			g, rep := resumeFromDir(t, sc, params)
			if d := g.MaxAbsDiff(ref); d != 0 {
				t.Fatalf("resumed grid differs bitwise from uninterrupted pass (max diff %g)", d)
			}
			if rep.ItemsProcessed != len(sc.plan.Items) {
				t.Fatalf("resumed report counts %d of %d items", rep.ItemsProcessed, len(sc.plan.Items))
			}
		})
	}
}

// TestCheckpointDirKeepsTwoSnapshots: a pass checkpointing after
// every chunk leaves its last two snapshots and nothing else. A
// degridding pass under the same parameters checkpoints nothing: it
// completes with a hook that panics on any event and leaves its
// directory empty.
func TestCheckpointDirKeepsTwoSnapshots(t *testing.T) {
	sc := buildScenario(t, defaultScenarioConfig())
	sc.fillFromModel(nil)
	params := ckptParams(sc, t.TempDir())
	params.CheckpointEvery = 1
	runStreamed(t, sc, params)
	chunks := (len(sc.plan.Items) + params.StreamChunkItems - 1) / params.StreamChunkItems
	entries, err := os.ReadDir(params.CheckpointDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Name() != checkpoint.FileName(chunks-1) || entries[1].Name() != checkpoint.FileName(chunks) {
		t.Fatalf("%d-chunk pass left %v, want its last two snapshots", chunks, entries)
	}

	params.CheckpointDir = t.TempDir()
	params.CheckpointHook = func(ev checkpoint.Event, chunk int) {
		panic(fmt.Sprintf("degridding pass fired checkpoint event %v at chunk %d", ev, chunk))
	}
	k, err := NewKernels(params)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := degridPlain(context.Background(), k, sc.plan, sc.vs, nil, grid.NewGrid(params.GridSize)); err != nil {
		t.Fatal(err)
	}
	if entries, err := os.ReadDir(params.CheckpointDir); err != nil || len(entries) != 0 {
		t.Fatalf("degridding pass left %v in its checkpoint directory (%v)", entries, err)
	}
}

// TestCheckpointWriteFailureFailsPass: a checkpoint directory under a
// regular file cannot be created. The pass fails with an error naming
// the chunk cursor and wrapping ENOTDIR, and leaves no snapshot or
// temp file behind. Permissions play no part, so this holds for root.
func TestCheckpointWriteFailureFailsPass(t *testing.T) {
	sc := buildScenario(t, defaultScenarioConfig())
	sc.fillFromModel(nil)
	parent := t.TempDir()
	file := filepath.Join(parent, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	params := ckptParams(sc, filepath.Join(file, "ckpt"))
	k, err := NewKernels(params)
	if err != nil {
		t.Fatal(err)
	}
	sh := grid.NewSharded(grid.NewGrid(params.GridSize), 1)
	_, _, err = k.GridVisibilities(context.Background(), sc.plan, sc.vs, nil, sh, faulttol.Config{}, nil, 0)
	if !errors.Is(err, syscall.ENOTDIR) {
		t.Fatalf("pass error %v does not wrap ENOTDIR", err)
	}
	if cursor := params.CheckpointEvery; !strings.Contains(err.Error(), fmt.Sprintf("chunk cursor %d:", cursor)) {
		t.Fatalf("pass error %q does not name the first checkpoint's cursor %d", err, cursor)
	}
	if entries, _ := os.ReadDir(parent); len(entries) != 1 {
		t.Fatalf("failed checkpoint left %v next to the file", entries)
	}
}

// TestResumeCursorOutOfRange: a cursor past the plan's chunk count is
// a mismatched snapshot, not a silent no-op.
func TestResumeCursorOutOfRange(t *testing.T) {
	sc := buildScenario(t, defaultScenarioConfig())
	sc.fillFromModel(nil)
	params := ckptParams(sc, t.TempDir())
	k, err := NewKernels(params)
	if err != nil {
		t.Fatal(err)
	}
	sh := grid.NewSharded(grid.NewGrid(params.GridSize), 1)
	_, _, err = k.GridVisibilities(context.Background(), sc.plan, sc.vs, nil, sh, faulttol.Config{}, nil, 1<<20)
	if err == nil {
		t.Fatal("out-of-range resume cursor accepted")
	}
}
