package repro

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/faulttol"
	"repro/internal/obs"
)

// checkpointGoldenObservation builds the golden observation with
// bit-deterministic streaming (one shard, one worker) checkpointing
// into dir every 2 chunks, with hook installed as the crash-injection
// seam. Chunks of 32 items cut the golden plan into enough epochs to
// place kills before, between and after snapshots.
func checkpointGoldenObservation(t *testing.T, dir string, hook CheckpointHook, observer *Observer) *Observation {
	t.Helper()
	o := goldenObservation(t)
	o.Config.CheckpointDir = dir
	o.Config.CheckpointEvery = 2
	p := o.Kernels.Params()
	p.GridShards = 1
	p.StreamChunkItems = 32
	p.CheckpointDir = dir
	p.CheckpointEvery = 2
	p.CheckpointHook = hook
	p.Observer = observer
	k, err := core.NewKernels(p)
	if err != nil {
		t.Fatal(err)
	}
	o.Kernels = k
	return o
}

// goldenSHA reads the committed golden grid fingerprint.
func goldenSHA(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile(goldenGridFile)
	if err != nil {
		t.Fatalf("%v (run `go test -run TestGoldenGridConformance -update .` to create it)", err)
	}
	var want goldenGrid
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	return want.SHA256
}

// goldenChunks is the golden plan's chunk count at the streaming
// parameters of checkpointGoldenObservation.
func goldenChunks(o *Observation) int {
	per := o.Kernels.StreamChunkItems(len(o.Plan.Items))
	return (len(o.Plan.Items) + per - 1) / per
}

// TestKillAndResumeChaos is the acceptance property of the issue: a
// streamed checkpointed run killed at any injected crash point, then
// resumed via ResumeStreamed, finishes with a grid whose SHA-256
// matches the uninterrupted golden grid bit-for-bit.
func TestKillAndResumeChaos(t *testing.T) {
	want := goldenSHA(t)
	kills := []struct {
		name string
		ev   checkpoint.Event
		at   int
	}{
		// Mid-epoch: work done past the last snapshot is lost and must
		// be regridded on resume.
		{"chunk-committed", checkpoint.EventChunkCommitted, 2},
		// At the barrier, before any bytes hit disk.
		{"before-write", checkpoint.EventBeforeWrite, -1},
		// The torn-write window: temp file synced, rename pending.
		{"before-rename", checkpoint.EventBeforeRename, -1},
		// Snapshot durable; the crash loses only scheduler state.
		{"after-write", checkpoint.EventAfterWrite, -1},
	}
	for _, kc := range kills {
		t.Run(kc.name, func(t *testing.T) {
			dir := t.TempDir()
			o := checkpointGoldenObservation(t, dir, faultinject.CrashHook(kc.ev, kc.at), nil)

			func() {
				defer func() {
					r := recover()
					if _, ok := r.(faultinject.Kill); !ok {
						t.Fatalf("expected a faultinject.Kill, recovered %v", r)
					}
				}()
				o.GridAllStreamed(context.Background(), nil, FaultConfig{})
				t.Fatal("run completed without hitting the crash point")
			}()

			// A fresh process: new observation over the same data,
			// no hook, resuming from whatever the crash left behind.
			o2 := checkpointGoldenObservation(t, dir, nil, nil)
			g, _, rep, err := o2.ResumeStreamed(context.Background(), nil, FaultConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if got := fingerprintGrid(g).SHA256; got != want {
				t.Errorf("resumed grid hash %s, want golden %s (notes: %v)", got, want, rep.Notes)
			}
			if rep.ItemsProcessed != len(o2.Plan.Items) {
				t.Errorf("resumed report counts %d of %d items", rep.ItemsProcessed, len(o2.Plan.Items))
			}
			if rep.Degraded() {
				t.Errorf("kill-and-resume degraded the run: %s", rep)
			}
		})
	}
}

// corruptNewest flips a byte deep inside the newest checkpoint file.
func corruptNewest(t *testing.T, dir string) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "checkpoint-*.idgckpt"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no checkpoints to corrupt: %v %v", names, err)
	}
	path := names[len(names)-1]
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestResumeFallsBackPastCorruptCheckpoint: bit rot in the newest
// snapshot falls back to its predecessor (recorded as a report note)
// and still reproduces the golden bits.
func TestResumeFallsBackPastCorruptCheckpoint(t *testing.T) {
	want := goldenSHA(t)
	dir := t.TempDir()
	o := checkpointGoldenObservation(t, dir, nil, nil)
	if _, _, _, err := o.GridAllStreamed(context.Background(), nil, FaultConfig{}); err != nil {
		t.Fatal(err)
	}
	corruptNewest(t, dir)

	o2 := checkpointGoldenObservation(t, dir, nil, nil)
	g, _, rep, err := o2.ResumeStreamed(context.Background(), nil, FaultConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprintGrid(g).SHA256; got != want {
		t.Errorf("fallback-resumed grid hash %s, want golden %s", got, want)
	}
	found := false
	for _, n := range rep.Notes {
		if strings.Contains(n, "falling back") {
			found = true
		}
	}
	if !found {
		t.Errorf("report notes %v lack a fallback note", rep.Notes)
	}
	if rep.Degraded() {
		t.Errorf("checkpoint fallback degraded the run: %s", rep)
	}
}

// TestResumeAllCorruptCleanRestart: when every snapshot is unusable —
// truncated, or written by the version 1 format — the resume degrades
// to a clean full run: noted, never failed.
func TestResumeAllCorruptCleanRestart(t *testing.T) {
	want := goldenSHA(t)
	for name, damage := range map[string]func(raw []byte) []byte{
		"truncated": func(raw []byte) []byte { return raw[:len(raw)/4] },
		"version-1": func(raw []byte) []byte { raw[len("IDGCKPT\n")] = 1; return raw },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			o := checkpointGoldenObservation(t, dir, nil, nil)
			if _, _, _, err := o.GridAllStreamed(context.Background(), nil, FaultConfig{}); err != nil {
				t.Fatal(err)
			}
			names, err := filepath.Glob(filepath.Join(dir, "checkpoint-*.idgckpt"))
			if err != nil || len(names) == 0 {
				t.Fatal("run wrote no checkpoints")
			}
			for _, path := range names {
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, damage(raw), 0o644); err != nil {
					t.Fatal(err)
				}
			}

			o2 := checkpointGoldenObservation(t, dir, nil, nil)
			g, _, rep, err := o2.ResumeStreamed(context.Background(), nil, FaultConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if got := fingerprintGrid(g).SHA256; got != want {
				t.Errorf("clean-restart grid hash %s, want golden %s", got, want)
			}
			found := false
			for _, n := range rep.Notes {
				if strings.Contains(n, "clean restart") {
					found = true
				}
			}
			if !found {
				t.Errorf("report notes %v lack the clean-restart note", rep.Notes)
			}
		})
	}
}

// TestResumeMismatchedChunking: a snapshot's chunk cursor is
// meaningless under different chunking, so resuming with another
// StreamChunkItems must fail with ErrCheckpointMismatch.
func TestResumeMismatchedChunking(t *testing.T) {
	dir := t.TempDir()
	o := checkpointGoldenObservation(t, dir, nil, nil)
	if _, _, _, err := o.GridAllStreamed(context.Background(), nil, FaultConfig{}); err != nil {
		t.Fatal(err)
	}

	o2 := checkpointGoldenObservation(t, dir, nil, nil)
	p := o2.Kernels.Params()
	p.StreamChunkItems = 16
	k, err := core.NewKernels(p)
	if err != nil {
		t.Fatal(err)
	}
	o2.Kernels = k
	if _, _, _, err := o2.ResumeStreamed(context.Background(), nil, FaultConfig{}); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("mismatched chunking resumed with err = %v, want ErrCheckpointMismatch", err)
	}
}

// TestResumeAcrossWorkerCounts: the chunking of a checkpointed pass is
// not derived from Workers, so a pass checkpointed on one worker and
// killed resumes on four — no ErrCheckpointMismatch — and finishes
// within reassociation distance of an uninterrupted run.
func TestResumeAcrossWorkerCounts(t *testing.T) {
	dir := t.TempDir()
	build := func(workers int, hook CheckpointHook) *Observation {
		cfg := smallObservation()
		cfg.NrStations, cfg.NrTimesteps = 12, 128
		cfg.MaxTimestepsPerSubgrid = 8 // > 1000 items: several default-size chunks
		cfg.Workers = workers
		cfg.CheckpointDir, cfg.CheckpointEvery = dir, 1
		o, err := cfg.Build()
		if err != nil {
			t.Fatal(err)
		}
		if hook != nil {
			p := o.Kernels.Params()
			p.CheckpointHook = hook
			if o.Kernels, err = core.NewKernels(p); err != nil {
				t.Fatal(err)
			}
		}
		model, err := cfg.StandardSkyModel(2)
		if err != nil {
			t.Fatal(err)
		}
		if err := o.FillFromModel(model); err != nil {
			t.Fatal(err)
		}
		return o
	}

	o1 := build(1, faultinject.CrashHook(checkpoint.EventAfterWrite, 1))
	func() {
		defer func() {
			if _, ok := recover().(faultinject.Kill); !ok {
				t.Fatal("one-worker pass was not killed after its second checkpoint")
			}
		}()
		o1.GridAllStreamed(context.Background(), nil, FaultConfig{})
	}()

	o4 := build(4, nil)
	g, _, rep, err := o4.ResumeStreamed(context.Background(), nil, FaultConfig{})
	if err != nil {
		t.Fatalf("resume on 4 workers of a 1-worker checkpoint: %v", err)
	}
	if rep.ItemsProcessed != len(o4.Plan.Items) {
		t.Errorf("resumed report counts %d of %d items", rep.ItemsProcessed, len(o4.Plan.Items))
	}
	ref, _, err := build(1, nil).GridAll(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := g.MaxAbsDiff(ref); d > 1e-12*fingerprintGrid(ref).PeakAbs {
		t.Errorf("resumed grid deviates %g from an uninterrupted run (peak %g)", d, fingerprintGrid(ref).PeakAbs)
	}
}

// TestCheckpointRoundTripGolden: the final snapshot of a completed run
// holds the full golden grid bit-for-bit with its cursor at the
// plan's last chunk — the durable file really is the run.
func TestCheckpointRoundTripGolden(t *testing.T) {
	want := goldenSHA(t)
	dir := t.TempDir()
	o := checkpointGoldenObservation(t, dir, nil, nil)
	if _, _, _, err := o.GridAllStreamed(context.Background(), nil, FaultConfig{}); err != nil {
		t.Fatal(err)
	}
	sn, path, notes, err := checkpoint.LoadLatest(dir, o.Config.GridSize)
	if err != nil || sn == nil {
		t.Fatalf("LoadLatest: %v %v", sn, err)
	}
	if len(notes) != 0 {
		t.Fatalf("clean run left unusable checkpoints: %v", notes)
	}
	if sn.NextChunk != goldenChunks(o) {
		t.Fatalf("final snapshot %s has cursor %d, plan has %d chunks", path, sn.NextChunk, goldenChunks(o))
	}
	if got := fingerprintGrid(sn.Grid).SHA256; got != want {
		t.Errorf("snapshot grid hash %s, want golden %s", got, want)
	}
}

// TestStreamedCancelDuringItemFailure: an item that fails while the
// run is being canceled is a casualty of the cancellation, not its
// cause. Under either policy the pass classifies as ErrCanceled — and
// the context's own sentinel — not as the failing item's error, and
// the partial grid stays finite.
func TestStreamedCancelDuringItemFailure(t *testing.T) {
	for _, pol := range []FaultPolicy{faulttol.FailFast, faulttol.SkipAndFlag} {
		t.Run(pol.String(), func(t *testing.T) {
			o := goldenObservation(t)
			p := o.Kernels.Params()
			p.GridShards = 1
			p.StreamChunkItems = 32
			k, err := core.NewKernels(p)
			if err != nil {
				t.Fatal(err)
			}
			o.Kernels = k

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			victim := o.Plan.Items[len(o.Plan.Items)/2]
			ft := FaultConfig{
				Policy: pol,
				Hook: func(item WorkItem) {
					if item.Baseline == victim.Baseline &&
						item.TimeStart == victim.TimeStart &&
						item.Channel0 == victim.Channel0 {
						cancel() // the run is being torn down as the item fails
						panic("fault racing a cancellation")
					}
				},
			}
			g, _, rep, err := o.GridAllStreamed(ctx, nil, ft)
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("err = %v, want ErrCanceled", err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v does not match context.Canceled", err)
			}
			if rep.ItemsSkipped != 0 {
				t.Fatalf("the cancellation's casualty was recorded as a skip: %s", rep)
			}
			for c := range g.Data {
				for i, v := range g.Data[c] {
					if math.IsNaN(real(v)) || math.IsInf(real(v), 0) ||
						math.IsNaN(imag(v)) || math.IsInf(imag(v), 0) {
						t.Fatalf("canceled run left non-finite value at [%d][%d]", c, i)
					}
				}
			}
		})
	}
}

// TestCheckpointMetrics pins the checkpoint instruments of the
// registry: write, byte and restore counters on a clean checkpointed
// run and then on a run resumed from its snapshot.
func TestCheckpointMetrics(t *testing.T) {
	dir := t.TempDir()
	observer := NewObserver(0)
	o := checkpointGoldenObservation(t, dir, nil, observer)
	if _, _, _, err := o.GridAllStreamed(context.Background(), nil, FaultConfig{}); err != nil {
		t.Fatal(err)
	}

	m := observer.Metrics
	wantWrites := (goldenChunks(o) + 1) / 2 // one write per 2-chunk epoch
	if got := m.Counter(obs.MetricCheckpointWrites).Value(); got != int64(wantWrites) {
		t.Errorf("%s = %d, want %d", obs.MetricCheckpointWrites, got, wantWrites)
	}
	if got := m.Counter(obs.MetricCheckpointBytes).Value(); got <= 0 {
		t.Errorf("%s = %d, want > 0", obs.MetricCheckpointBytes, got)
	}
	hw, err := m.Histogram(obs.HistCheckpointWriteSeconds, obs.DurationBuckets)
	if err != nil {
		t.Fatal(err)
	}
	if got := hw.Count(); got != int64(wantWrites) {
		t.Errorf("%s count = %d, want %d", obs.HistCheckpointWriteSeconds, got, wantWrites)
	}
	if got := m.Counter(obs.MetricCheckpointRestores).Value(); got != 0 {
		t.Errorf("%s = %d before any resume", obs.MetricCheckpointRestores, got)
	}

	// Resuming from the finished run's snapshot counts one restore.
	observer2 := NewObserver(0)
	o2 := checkpointGoldenObservation(t, dir, nil, observer2)
	if _, _, _, err := o2.ResumeStreamed(context.Background(), nil, FaultConfig{}); err != nil {
		t.Fatal(err)
	}
	if got := observer2.Metrics.Counter(obs.MetricCheckpointRestores).Value(); got != 1 {
		t.Errorf("%s = %d after resume, want 1", obs.MetricCheckpointRestores, got)
	}
}

// TestResumeFromSnapshotWithRetriedCount: format version 2 keeps an
// 8-byte slot after itemsProcessed that older writers filled with a
// retried-item count and that is now reserved. A mid-run snapshot
// whose slot holds a nonzero count — re-sealed with a valid content
// digest, as such a writer left it — still loads, and the pass resumed
// from it reproduces the golden grid.
func TestResumeFromSnapshotWithRetriedCount(t *testing.T) {
	want := goldenSHA(t)
	dir := t.TempDir()
	o := checkpointGoldenObservation(t, dir, faultinject.CrashHook(checkpoint.EventAfterWrite, 1), nil)
	func() {
		defer func() {
			if _, ok := recover().(faultinject.Kill); !ok {
				t.Fatal("pass was not killed after its second snapshot")
			}
		}()
		o.GridAllStreamed(context.Background(), nil, FaultConfig{})
	}()
	names, err := checkpoint.List(dir)
	if err != nil || len(names) == 0 {
		t.Fatalf("killed pass left no snapshot: %v %v", names, err)
	}
	path := filepath.Join(dir, names[len(names)-1])
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// magic, version, gridSize, nextChunk, chunkItems, plan SHA-256,
	// itemsProcessed; then the reserved slot.
	const reserved = 8 + 4 + 4 + 8 + 4 + 32 + 8
	if got := binary.LittleEndian.Uint64(raw[reserved:]); got != 0 {
		t.Fatalf("reserved slot written as %d, want 0", got)
	}
	binary.LittleEndian.PutUint64(raw[reserved:], 3)
	body := len(raw) - sha256.Size
	sum := sha256.Sum256(raw[:body])
	copy(raw[body:], sum[:])
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := checkpoint.Read(path, o.Config.GridSize); err != nil {
		t.Fatalf("snapshot with a nonzero reserved slot: %v", err)
	}

	o2 := checkpointGoldenObservation(t, dir, nil, nil)
	g, _, rep, err := o2.ResumeStreamed(context.Background(), nil, FaultConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Notes) != 0 {
		t.Errorf("resume fell back or restarted: %v", rep.Notes)
	}
	if got := fingerprintGrid(g).SHA256; got != want {
		t.Errorf("resumed grid hash %s, want golden %s", got, want)
	}
	if rep.ItemsProcessed != len(o2.Plan.Items) {
		t.Errorf("resumed report counts %d of %d items", rep.ItemsProcessed, len(o2.Plan.Items))
	}
}

// TestConfigValidationTyped: every rejected ObservationConfig value —
// the observation's shape and band (NaN and infinities included) and
// every streaming/checkpoint knob — is a *ConfigError wrapping
// ErrInvalidConfig that names the offending field.
func TestConfigValidationTyped(t *testing.T) {
	base := ObservationConfig{
		NrStations:     4,
		NrTimesteps:    8,
		NrChannels:     2,
		StartFrequency: 150e6,
		ChannelWidth:   200e3,
		GridSize:       128,
		SubgridSize:    16,
	}
	cases := []struct {
		name   string
		mutate func(*ObservationConfig)
		field  string
	}{
		{"one-station", func(c *ObservationConfig) { c.NrStations = 1 }, "NrStations"},
		{"no-timesteps", func(c *ObservationConfig) { c.NrTimesteps = 0 }, "NrTimesteps"},
		{"no-channels", func(c *ObservationConfig) { c.NrChannels = 0 }, "NrChannels"},
		{"zero-frequency", func(c *ObservationConfig) { c.StartFrequency = 0 }, "StartFrequency"},
		{"nan-frequency", func(c *ObservationConfig) { c.StartFrequency = math.NaN() }, "StartFrequency"},
		{"inf-frequency", func(c *ObservationConfig) { c.StartFrequency = math.Inf(1) }, "StartFrequency"},
		{"negative-width", func(c *ObservationConfig) { c.ChannelWidth = -1 }, "ChannelWidth"},
		{"nan-width", func(c *ObservationConfig) { c.ChannelWidth = math.NaN() }, "ChannelWidth"},
		{"inf-width", func(c *ObservationConfig) { c.ChannelWidth = math.Inf(1) }, "ChannelWidth"},
		{"negative-margin", func(c *ObservationConfig) { c.GridMargin = -1 }, "GridMargin"},
		{"margin-half-grid", func(c *ObservationConfig) { c.GridMargin = 64 }, "GridMargin"},
		{"negative-shards", func(c *ObservationConfig) { c.GridShards = -1 }, "GridShards"},
		{"shards-exceed-grid", func(c *ObservationConfig) { c.GridShards = 129 }, "GridShards"},
		{"negative-inflight", func(c *ObservationConfig) { c.MaxInflightChunks = -2 }, "MaxInflightChunks"},
		{"negative-checkpoint-every", func(c *ObservationConfig) {
			c.CheckpointDir = "/tmp/x"
			c.CheckpointEvery = -1
		}, "CheckpointEvery"},
		{"checkpoint-every-without-dir", func(c *ObservationConfig) { c.CheckpointEvery = 4 }, "CheckpointEvery"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			err := cfg.validate()
			if !errors.Is(err, ErrInvalidConfig) {
				t.Fatalf("err = %v, want ErrInvalidConfig", err)
			}
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("err = %v is not a *ConfigError", err)
			}
			if ce.Field != tc.field {
				t.Fatalf("ConfigError.Field = %q, want %q", ce.Field, tc.field)
			}
		})
	}
	good := base
	good.GridShards = 4
	good.MaxInflightChunks = 2
	if err := good.validate(); err != nil {
		t.Fatalf("valid streaming config rejected: %v", err)
	}
}
