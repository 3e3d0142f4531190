package distrib

import (
	"bufio"
	"context"
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/server"
)

// workerGrid is the deterministic partial grid of one worker in these
// tests: disjoint row bands for a rows-axis run.
func workerGrid(spec WorkerSpec, size int) *grid.Grid {
	g := grid.NewGrid(size)
	bounds := RowBounds(size, spec.Workers)
	for c := 0; c < grid.NrCorrelations; c++ {
		for y := bounds[spec.Index]; y < bounds[spec.Index+1]; y++ {
			for x := 0; x < size; x++ {
				g.Set(c, y, x, complex(float64(spec.Index+1), float64(c*x)))
			}
		}
	}
	return g
}

// honestLauncher grids and delivers the worker's partition.
func honestLauncher(size int) Launcher {
	return LauncherFunc(func(ctx context.Context, spec WorkerSpec) error {
		return Deliver(ctx, spec, [32]byte{}, workerGrid(spec, size), 0)
	})
}

func runCoordinator(t *testing.T, cfg Config, l Launcher) (*grid.Grid, *Summary, error) {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return c.Run(ctx, l)
}

// TestCoordinatorHappyPath runs a full coordinator pass with in-test
// workers and checks the final grid is the tree reduction of the
// partials, with every fingerprint accounted for in the summary.
func TestCoordinatorHappyPath(t *testing.T) {
	const size, workers = 32, 4
	g, sum, err := runCoordinator(t, Config{Workers: workers, Axis: AxisRows, GridSize: size}, honestLauncher(size))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*grid.Grid, workers)
	for i := range want {
		want[i] = workerGrid(WorkerSpec{Index: i, Workers: workers}, size)
	}
	if wantG := TreeReduce(want); g.MaxAbsDiff(wantG) != 0 {
		t.Fatal("final grid is not the reduction of the partials")
	}
	if sum.Restarts != 0 || sum.Discarded != 0 {
		t.Fatalf("clean run reported restarts=%d discarded=%d", sum.Restarts, sum.Discarded)
	}
	for i, fp := range sum.WorkerFingerprints {
		if fp.Nonzero == 0 {
			t.Fatalf("worker %d fingerprint missing from summary", i)
		}
	}
	if sum.Final != FingerprintOf(g) {
		t.Fatal("summary final fingerprint does not match the returned grid")
	}
}

// TestCoordinatorRestartsKilledWorker kills one worker's first attempt
// after partial progress; the relaunch must carry Resume and the final
// grid must be bit-identical to a clean run's.
func TestCoordinatorRestartsKilledWorker(t *testing.T) {
	const size, workers = 32, 4
	var sawResume atomic.Bool
	flaky := LauncherFunc(func(ctx context.Context, spec WorkerSpec) error {
		if spec.Index == 2 && !spec.Resume {
			return errors.New("injected kill before delivery")
		}
		if spec.Index == 2 && spec.Resume {
			sawResume.Store(true)
		}
		return Deliver(ctx, spec, [32]byte{}, workerGrid(spec, size), 0)
	})
	cfg := Config{Workers: workers, Axis: AxisRows, GridSize: size, MaxRestarts: 2}
	g, sum, err := runCoordinator(t, cfg, flaky)
	if err != nil {
		t.Fatal(err)
	}
	if !sawResume.Load() {
		t.Fatal("relaunch did not set Resume")
	}
	if sum.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", sum.Restarts)
	}
	clean, _, err := runCoordinator(t, cfg, honestLauncher(size))
	if err != nil {
		t.Fatal(err)
	}
	if FingerprintOf(g) != FingerprintOf(clean) {
		t.Fatal("killed-and-relaunched run hashed differently from the clean run")
	}
}

// TestCoordinatorRestartBudget checks a worker that keeps dying fails
// the run once its restart budget is spent.
func TestCoordinatorRestartBudget(t *testing.T) {
	dying := LauncherFunc(func(ctx context.Context, spec WorkerSpec) error {
		if spec.Index == 1 {
			return errors.New("injected kill")
		}
		return Deliver(ctx, spec, [32]byte{}, workerGrid(spec, 16), 0)
	})
	_, _, err := runCoordinator(t, Config{Workers: 2, Axis: AxisRows, GridSize: 16, MaxRestarts: 2}, dying)
	if err == nil || !strings.Contains(err.Error(), "worker 1") || !strings.Contains(err.Error(), "3 attempt(s)") {
		t.Fatalf("got %v, want worker 1 failing after 3 attempts", err)
	}
}

// lyingDeliver streams a valid-looking reduction whose declared
// fingerprint does not match the bytes sent.
func lyingDeliver(ctx context.Context, spec WorkerSpec, g *grid.Grid) error {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", spec.CoordinatorAddr)
	if err != nil {
		return err
	}
	defer conn.Close()
	bw := bufio.NewWriter(conn)
	if err := server.WriteFrame(bw, EncodeHello(Hello{Worker: spec.Index, Workers: spec.Workers, Axis: spec.Axis})); err != nil {
		return err
	}
	f, err := EncodeBand(g, 0, g.N)
	if err != nil {
		return err
	}
	if err := server.WriteFrame(bw, f); err != nil {
		return err
	}
	fp := FingerprintOf(g)
	fp.SHA256[0] ^= 0xff // corrupt the declared hash
	if err := server.WriteFrame(bw, EncodeResult(Result{Worker: spec.Index, Fingerprint: fp})); err != nil {
		return err
	}
	return bw.Flush()
}

// TestCoordinatorRejectsCorruptStream checks a stream whose declared
// fingerprint does not match the assembled bytes is discarded, the
// worker is relaunched, and an honest retry still completes the run.
func TestCoordinatorRejectsCorruptStream(t *testing.T) {
	const size = 16
	liar := LauncherFunc(func(ctx context.Context, spec WorkerSpec) error {
		if spec.Index == 0 && !spec.Resume {
			return lyingDeliver(ctx, spec, workerGrid(spec, size))
		}
		return Deliver(ctx, spec, [32]byte{}, workerGrid(spec, size), 0)
	})
	cfg := Config{
		Workers: 2, Axis: AxisRows, GridSize: size,
		MaxRestarts: 1, ResultWait: 200 * time.Millisecond,
	}
	g, sum, err := runCoordinator(t, cfg, liar)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Discarded != 1 || sum.Restarts != 1 {
		t.Fatalf("discarded=%d restarts=%d, want 1 and 1", sum.Discarded, sum.Restarts)
	}
	clean, _, err := runCoordinator(t, Config{Workers: 2, Axis: AxisRows, GridSize: size}, honestLauncher(size))
	if err != nil {
		t.Fatal(err)
	}
	if FingerprintOf(g) != FingerprintOf(clean) {
		t.Fatal("run with a discarded stream hashed differently from the clean run")
	}
}

// TestCoordinatorRejectsWrongPartition checks the plan-fingerprint
// pinning: a worker announcing a sub-plan other than its assignment is
// rejected at hello.
func TestCoordinatorRejectsWrongPartition(t *testing.T) {
	sums := make([][32]byte, 2)
	sums[0][0], sums[1][0] = 1, 2
	wrong := LauncherFunc(func(ctx context.Context, spec WorkerSpec) error {
		sum := sums[spec.Index]
		if spec.Index == 1 {
			sum = sums[0] // gridding the wrong partition
		}
		return Deliver(ctx, spec, sum, workerGrid(spec, 16), 0)
	})
	cfg := Config{
		Workers: 2, Axis: AxisRows, GridSize: 16, ExpectPlanSums: sums,
		ResultWait: 100 * time.Millisecond,
	}
	_, _, err := runCoordinator(t, cfg, wrong)
	if err == nil || !strings.Contains(err.Error(), "worker 1") {
		t.Fatalf("got %v, want worker 1 rejected", err)
	}
}

// TestCoordinatorConfigValidation covers New's rejections.
func TestCoordinatorConfigValidation(t *testing.T) {
	bad := []Config{
		{Workers: 0, GridSize: 8, Axis: AxisRows},
		{Workers: 2, GridSize: 0, Axis: AxisRows},
		{Workers: 2, GridSize: 8, Axis: Axis(9)},
		{Workers: 2, GridSize: 8, Axis: AxisRows, ExpectPlanSums: make([][32]byte, 3)},
	}
	for i, cfg := range bad {
		if c, err := New(cfg); err == nil {
			c.Close()
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

// TestCoordinatorContextCancel checks cancellation unwinds the run.
func TestCoordinatorContextCancel(t *testing.T) {
	c, err := New(Config{Workers: 1, Axis: AxisRows, GridSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	stuck := LauncherFunc(func(ctx context.Context, spec WorkerSpec) error {
		cancel()
		<-ctx.Done()
		return ctx.Err()
	})
	if _, _, err := c.Run(ctx, stuck); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// emptyPartitionLauncher delivers honest partials, except that the
// workers named empty have an empty partition: their partial is the
// all-zero grid, whose stream carries no bands.
func emptyPartitionLauncher(size int, empty map[int]bool) Launcher {
	return LauncherFunc(func(ctx context.Context, spec WorkerSpec) error {
		g := workerGrid(spec, size)
		if empty[spec.Index] {
			g = grid.NewGrid(size)
		}
		return Deliver(ctx, spec, [32]byte{}, g, 0)
	})
}

// TestCoordinatorFinalFingerprintRule covers both ways Summary.Final
// is obtained — hashing the reduced grid, and taking the only
// contributor's verified fingerprint — against a fresh hash of the
// returned grid: one worker; three workers with one empty partition
// (two contributors); two workers with one empty partition (one
// contributor, the other partial stays nil).
func TestCoordinatorFinalFingerprintRule(t *testing.T) {
	const size = 24
	for _, tc := range []struct {
		name    string
		workers int
		empty   map[int]bool
		only    int // the single contributor, or -1
	}{
		{"one worker", 1, nil, 0},
		{"three workers, one empty", 3, map[int]bool{1: true}, -1},
		{"two workers, first empty", 2, map[int]bool{0: true}, 1},
		{"two workers, second empty", 2, map[int]bool{1: true}, 0},
		{"all empty", 2, map[int]bool{0: true, 1: true}, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := emptyPartitionLauncher(size, tc.empty)
			g, sum, err := runCoordinator(t, Config{Workers: tc.workers, Axis: AxisRows, GridSize: size}, l)
			if err != nil {
				t.Fatal(err)
			}
			if fresh := FingerprintOf(g); sum.Final != fresh {
				t.Fatalf("Summary.Final %x is not the returned grid's fingerprint %x", sum.Final.SHA256[:6], fresh.SHA256[:6])
			}
			if tc.only >= 0 {
				if sum.Final != sum.WorkerFingerprints[tc.only] {
					t.Error("Final is not the only contributor's verified fingerprint")
				}
				if sum.Stages.FinalHash != 0 {
					t.Errorf("the one-contributor run still spent %v on a final hash", sum.Stages.FinalHash)
				}
			}
			zero := FingerprintOf(grid.NewGrid(size))
			for i, fp := range sum.WorkerFingerprints {
				if tc.empty[i] != (fp == zero) {
					t.Errorf("worker %d: empty=%v but fingerprint zero=%v", i, tc.empty[i], fp == zero)
				}
			}
		})
	}
}

// TestCoordinatorStages: the coordinator's stage times are
// non-negative, ordered along the critical path, and add up to no more
// than the wall time of the run they describe.
func TestCoordinatorStages(t *testing.T) {
	for _, workers := range []int{1, 4} {
		start := time.Now()
		_, sum, err := runCoordinator(t, Config{Workers: workers, Axis: AxisRows, GridSize: 64}, honestLauncher(64))
		wall := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		st := sum.Stages
		total := time.Duration(0)
		for name, d := range map[string]time.Duration{
			"plan": st.Plan, "launch": st.Launch, "receive": st.Receive,
			"verify": st.Verify, "reduce": st.Reduce, "final hash": st.FinalHash,
		} {
			if d < 0 {
				t.Errorf("workers=%d: stage %s is negative: %v", workers, name, d)
			}
			total += d
		}
		if st.Launch == 0 || st.Verify == 0 {
			t.Errorf("workers=%d: launch %v / verify %v not measured", workers, st.Launch, st.Verify)
		}
		if total > wall {
			t.Errorf("workers=%d: stages sum to %v, more than the run's wall %v", workers, total, wall)
		}
	}
}

// truncatedDeliver sends the hello and every band of g, then closes
// the connection without the result frame.
func truncatedDeliver(ctx context.Context, spec WorkerSpec, g *grid.Grid) error {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", spec.CoordinatorAddr)
	if err != nil {
		return err
	}
	defer conn.Close()
	bw := bufio.NewWriter(conn)
	if err := sendBands(bw, spec, [32]byte{}, g, 0); err != nil {
		return err
	}
	return bw.Flush()
}

// TestCoordinatorRejectsStreamWithoutResult: a stream that ends after
// its last band — every byte of the partial arrived, only the declared
// fingerprint did not — is discarded and the worker relaunched. Nothing
// the worker hashes on the side can stand in for the result frame.
func TestCoordinatorRejectsStreamWithoutResult(t *testing.T) {
	const size = 16
	cut := LauncherFunc(func(ctx context.Context, spec WorkerSpec) error {
		if spec.Index == 1 && !spec.Resume {
			return truncatedDeliver(ctx, spec, workerGrid(spec, size))
		}
		return Deliver(ctx, spec, [32]byte{}, workerGrid(spec, size), 0)
	})
	cfg := Config{
		Workers: 2, Axis: AxisRows, GridSize: size,
		MaxRestarts: 1, ResultWait: 200 * time.Millisecond,
	}
	g, sum, err := runCoordinator(t, cfg, cut)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Discarded != 1 || sum.Restarts != 1 {
		t.Fatalf("discarded=%d restarts=%d, want 1 and 1", sum.Discarded, sum.Restarts)
	}
	clean, _, err := runCoordinator(t, Config{Workers: 2, Axis: AxisRows, GridSize: size}, honestLauncher(size))
	if err != nil {
		t.Fatal(err)
	}
	if FingerprintOf(g) != FingerprintOf(clean) || sum.Final != FingerprintOf(g) {
		t.Fatal("run with a truncated stream hashed differently from the clean run")
	}
}
