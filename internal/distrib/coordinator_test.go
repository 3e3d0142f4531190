package distrib

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/frame"
	"repro/internal/grid"
)

// workerGrid is the deterministic partial grid of one worker in these
// tests: disjoint row bands for a rows-axis run.
func workerGrid(spec WorkerSpec, size int) *grid.Grid {
	g := grid.NewGrid(size)
	bounds := grid.ShardBounds(size, spec.Workers)
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
		if got, span := sum.WorkerFingerprints[i], spanPrint(want[i]); got != span || got.Nonzero == 0 {
			t.Fatalf("worker %d: summary holds %x, its span's band fingerprint is %x", i, got.SHA256[:6], span.SHA256[:6])
		}
	}
	if wantG := TreeReduce(want); g.MaxAbsDiff(wantG) != 0 {
		t.Fatal("final grid is not the reduction of the partials")
	}
	if sum.Restarts != 0 || sum.Discarded != 0 {
		t.Fatalf("clean run reported restarts=%d discarded=%d", sum.Restarts, sum.Discarded)
	}
}

// spanPrint is the band fingerprint a worker declares for g.
func spanPrint(g *grid.Grid) Fingerprint { return g.Rows(grid.NonzeroRowSpan(g)).Fingerprint() }

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
	if _, err := sendBands(bw, Hello{Worker: spec.Index, Workers: spec.Workers, Axis: spec.Axis, Hi: g.N}, g, 0); err != nil {
		return err
	}
	fp := g.Rows(0, g.N).Fingerprint()
	fp.SHA256[0] ^= 0xff // corrupt the declared hash
	if err := frame.Write(bw, EncodeResult(Result{Worker: spec.Index, Fingerprint: fp})); err != nil {
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
		{Workers: 2, GridSize: 8, Axis: AxisRows, MaxPayload: MinPayload(8) - 1},
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

// TestCoordinatorFinalFingerprintRule: the returned grid fingerprints
// as the reduction of the whole partial grids, whether bands merge
// (three workers, one empty partition), one band is materialised alone
// (one worker; two workers with one empty partition) or nothing
// contributed; and an empty partition is accepted under the empty
// span's band fingerprint.
func TestCoordinatorFinalFingerprintRule(t *testing.T) {
	const size = 24
	emptySpan := grid.NewBand(size, 0, 0).Fingerprint()
	for _, tc := range []struct {
		name    string
		workers int
		empty   map[int]bool
	}{
		{"one worker", 1, nil},
		{"three workers, one empty", 3, map[int]bool{1: true}},
		{"two workers, first empty", 2, map[int]bool{0: true}},
		{"two workers, second empty", 2, map[int]bool{1: true}},
		{"all empty", 2, map[int]bool{0: true, 1: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := emptyPartitionLauncher(size, tc.empty)
			g, sum, err := runCoordinator(t, Config{Workers: tc.workers, Axis: AxisRows, GridSize: size}, l)
			if err != nil {
				t.Fatal(err)
			}
			partials := make([]*grid.Grid, tc.workers)
			for i := range partials {
				partials[i] = grid.NewGrid(size)
				if !tc.empty[i] {
					partials[i] = workerGrid(WorkerSpec{Index: i, Workers: tc.workers}, size)
				}
			}
			if got, want := FingerprintOf(g), FingerprintOf(TreeReduce(partials)); got != want {
				t.Fatalf("returned grid %x, the whole partials reduce to %x", got.SHA256[:6], want.SHA256[:6])
			}
			for i, fp := range sum.WorkerFingerprints {
				if tc.empty[i] != (fp == emptySpan) {
					t.Errorf("worker %d: empty=%v but empty-span fingerprint=%v", i, tc.empty[i], fp == emptySpan)
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
			"verify": st.Verify, "reduce": st.Reduce,
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

// TestHandleStreamReusesPayloadBuffer: the coordinator reads every
// frame after a stream's hello into one payload buffer, so beside its
// receiving grid (worker 0's stream decodes into a whole grid) a
// 16-band stream allocates no more than a 2-band stream of the same
// band size, give or take one band (per frame it would be sixty more).
func TestHandleStreamReusesPayloadBuffer(t *testing.T) {
	const size, rows = 128, 8
	maxPayload := bandPayloadHeader + rows*size*cellBytes
	allocated := func(bands int) uint64 {
		g := grid.NewGrid(size)
		for y := 0; y < bands*rows; y++ {
			g.Set(0, y, 1, 1)
		}
		var stream bytes.Buffer
		bw := bufio.NewWriter(&stream)
		h := Hello{Workers: 1, Axis: AxisRows, Hi: bands * rows}
		if _, err := sendBands(bw, h, g, maxPayload); err != nil {
			t.Fatal(err)
		}
		if err := frame.Write(bw, EncodeResult(Result{Worker: 0, Fingerprint: spanPrint(g)})); err != nil {
			t.Fatal(err)
		}
		bw.Flush()
		c, err := New(Config{Workers: 1, Axis: AxisRows, GridSize: size, MaxPayload: maxPayload})
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
		coordSide, workerSide := net.Pipe()
		go func() {
			workerSide.Write(stream.Bytes())
			workerSide.Close()
		}()
		var before, after runtime.MemStats
		runtime.GC() // twice: the grid package's pooled hash buffers are
		runtime.GC() // then reallocated inside the window on every run
		runtime.ReadMemStats(&before)
		c.handleStream(context.Background(), coordSide)
		runtime.ReadMemStats(&after)
		select {
		case <-c.arrived[0]:
		default:
			t.Fatalf("%d-band stream not accepted: %v", bands, c.notes)
		}
		return after.TotalAlloc - before.TotalAlloc - uint64(grid.NrCorrelations*size*size*cellBytes)
	}
	two, sixteen := allocated(2), allocated(16)
	if sixteen > two+uint64(maxPayload) {
		t.Errorf("a 16-band stream allocated %d bytes, a 2-band one %d: more than one %d-byte band apart", sixteen, two, maxPayload)
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
	h := Hello{Worker: spec.Index, Workers: spec.Workers, Axis: spec.Axis}
	h.Lo, h.Hi = grid.NonzeroRowSpan(g)
	if _, err := sendBands(bw, h, g, 0); err != nil {
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
	if FingerprintOf(g) != FingerprintOf(clean) {
		t.Fatal("run with a truncated stream hashed differently from the clean run")
	}
}

// band names rows [lo, hi) of correlation plane c.
type band struct{ c, lo, hi int }

// bandsDeliver sends the hello h, then g's rows cut into the given
// bands in the given order, then the honest band fingerprint of g's
// nonzero span: a stream whose cells can assemble the declared band
// even though its framing breaks the protocol.
func bandsDeliver(ctx context.Context, spec WorkerSpec, h Hello, g *grid.Grid, bands []band) error {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", spec.CoordinatorAddr)
	if err != nil {
		return err
	}
	defer conn.Close()
	bw := bufio.NewWriter(conn)
	if err := frame.Write(bw, EncodeHello(h)); err != nil {
		return err
	}
	for _, b := range bands {
		// encodeBandInto refuses a plane past the last; send the last
		// plane's cells under that plane's index.
		f, err := encodeBandInto(nil, g, min(b.c, grid.NrCorrelations-1), b.lo, b.hi)
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(f.Payload[4:], uint32(b.c))
		if err := frame.Write(bw, f); err != nil {
			return err
		}
	}
	if err := frame.Write(bw, EncodeResult(Result{Worker: spec.Index, Fingerprint: spanPrint(g)})); err != nil {
		return err
	}
	return bw.Flush()
}

// planes lists rows [lo, hi) of every correlation plane from c on.
func planes(c, lo, hi int) []band {
	var bs []band
	for ; c < grid.NrCorrelations; c++ {
		bs = append(bs, band{c, lo, hi})
	}
	return bs
}

// TestCoordinatorRejectsMalformedBands: worker 1 owns rows [8, 16) of
// a 16-row grid. A first attempt whose bands leave the hello's span,
// overlap, leave a gap, repeat a band, stop short of the span, name a
// plane out of order or out of range, leave a plane short or run past
// the last plane — or whose hello announces rows beyond the grid — is
// discarded with a note naming the fault, the worker is relaunched,
// and the run ends as a clean run does.
func TestCoordinatorRejectsMalformedBands(t *testing.T) {
	const size = 16
	clean, _, err := runCoordinator(t, Config{Workers: 2, Axis: AxisRows, GridSize: size}, honestLauncher(size))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		lo, hi int
		bands  []band
		note   string
	}{
		{"band leaves the span", 8, 16, []band{{0, 6, 12}, {0, 12, 16}}, "outside the span [8, 16)"},
		{"bands overlap", 8, 16, []band{{0, 8, 12}, {0, 11, 16}}, "sent plane 0 rows [11, 16) where plane 0 row 12 was due"},
		{"bands leave a gap", 8, 16, []band{{0, 8, 11}, {0, 12, 16}}, "sent plane 0 rows [12, 16) where plane 0 row 11 was due"},
		{"band repeated", 8, 16, []band{{0, 8, 12}, {0, 8, 12}, {0, 12, 16}}, "sent plane 0 rows [8, 12) where plane 0 row 12 was due"},
		{"bands stop short", 8, 16, []band{{0, 8, 12}}, "stream closed where plane 0 row 12 of its span [8, 16) was due"},
		{"span beyond the grid", 8, 17, []band{{0, 8, 16}}, "announced rows [8, 17) of a 16-row grid"},
		{"plane out of order", 8, 16, append([]band{{0, 8, 16}, {2, 8, 16}}, planes(1, 8, 16)...), "sent plane 2 rows [8, 16) where plane 1 row 8 was due"},
		{"plane out of range", 8, 16, append(planes(0, 8, 16), band{4, 8, 16}), "band of correlation plane 4"},
		{"plane left short", 8, 16, append([]band{{0, 8, 16}, {1, 8, 15}}, planes(2, 8, 16)...), "sent plane 2 rows [8, 16) where plane 1 row 15 was due"},
		{"band past the last plane", 8, 16, append(planes(0, 8, 16), band{3, 8, 16}), "sent plane 3 rows [8, 16) where the result was due"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := LauncherFunc(func(ctx context.Context, spec WorkerSpec) error {
				g := workerGrid(spec, size)
				if spec.Index == 1 && !spec.Resume {
					h := Hello{Worker: 1, Workers: 2, Axis: AxisRows, Lo: tc.lo, Hi: tc.hi}
					return bandsDeliver(ctx, spec, h, g, tc.bands)
				}
				return Deliver(ctx, spec, [32]byte{}, g, 0)
			})
			cfg := Config{Workers: 2, Axis: AxisRows, GridSize: size, MaxRestarts: 1, ResultWait: 200 * time.Millisecond}
			g, sum, err := runCoordinator(t, cfg, l)
			if err != nil {
				t.Fatal(err)
			}
			if sum.Discarded != 1 || sum.Restarts != 1 {
				t.Fatalf("discarded=%d restarts=%d, want 1 and 1 (notes %q)", sum.Discarded, sum.Restarts, sum.Notes)
			}
			if !strings.Contains(strings.Join(sum.Notes, "\n"), tc.note) {
				t.Errorf("no note names the fault %q: %q", tc.note, sum.Notes)
			}
			if FingerprintOf(g) != FingerprintOf(clean) {
				t.Error("the run with a discarded stream hashed differently from the clean run")
			}
		})
	}
}

// flipWriter flips the bits of the stream byte at offset at.
type flipWriter struct {
	w       io.Writer
	off, at int
}

func (f *flipWriter) Write(p []byte) (int, error) {
	if i := f.at - f.off; i >= 0 && i < len(p) {
		p = append([]byte(nil), p...)
		p[i] ^= 0xff
	}
	f.off += len(p)
	return f.w.Write(p)
}

// TestCoordinatorChecksumsCatchTheirFaults pins what each of the two
// stream checks is for. The frame CRC rejects a payload byte flipped
// in flight before the frame is decoded, and the note names the frame
// checksum (without the CRC the fingerprint would still reject the
// stream, under another note). The band fingerprint rejects frames
// that are each intact but carry other cells than the worker declared:
// a stale partial sent under its successor's fingerprint. Either way
// worker 1 is relaunched and the run ends as a clean run does.
func TestCoordinatorChecksumsCatchTheirFaults(t *testing.T) {
	const size = 16
	clean, _, err := runCoordinator(t, Config{Workers: 2, Axis: AxisRows, GridSize: size}, honestLauncher(size))
	if err != nil {
		t.Fatal(err)
	}
	// The first cell byte of the first band: after the hello frame and
	// the band's frame and payload headers.
	firstCell := frame.HeaderSize + helloPayloadBytes + 8 + frame.HeaderSize + bandPayloadHeader
	for _, tc := range []struct {
		name    string
		deliver func(ctx context.Context, spec WorkerSpec, g *grid.Grid) error
		note    string
	}{
		{"byte flipped in flight", func(ctx context.Context, spec WorkerSpec, g *grid.Grid) error {
			var d net.Dialer
			conn, err := d.DialContext(ctx, "tcp", spec.CoordinatorAddr)
			if err != nil {
				return err
			}
			defer conn.Close()
			bw := bufio.NewWriter(&flipWriter{w: conn, at: firstCell + 3})
			h := Hello{Worker: spec.Index, Workers: spec.Workers, Axis: spec.Axis}
			h.Lo, h.Hi = grid.NonzeroRowSpan(g)
			fp, err := sendBands(bw, h, g, 0)
			if err != nil {
				return err
			}
			if err := frame.Write(bw, EncodeResult(Result{Worker: spec.Index, Fingerprint: fp})); err != nil {
				return err
			}
			return bw.Flush()
		}, "frame checksum mismatch"},
		{"intact frames, other cells", func(ctx context.Context, spec WorkerSpec, g *grid.Grid) error {
			stale := g.Clone()
			lo, hi := grid.NonzeroRowSpan(g)
			stale.Add(3, hi-1, 2, 0.5)
			var d net.Dialer
			conn, err := d.DialContext(ctx, "tcp", spec.CoordinatorAddr)
			if err != nil {
				return err
			}
			defer conn.Close()
			bw := bufio.NewWriter(conn)
			if _, err := sendBands(bw, Hello{Worker: spec.Index, Workers: spec.Workers, Axis: spec.Axis, Lo: lo, Hi: hi}, stale, 0); err != nil {
				return err
			}
			if err := frame.Write(bw, EncodeResult(Result{Worker: spec.Index, Fingerprint: spanPrint(g)})); err != nil {
				return err
			}
			return bw.Flush()
		}, "partial fingerprint mismatch"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := LauncherFunc(func(ctx context.Context, spec WorkerSpec) error {
				g := workerGrid(spec, size)
				if spec.Index == 1 && !spec.Resume {
					return tc.deliver(ctx, spec, g)
				}
				return Deliver(ctx, spec, [32]byte{}, g, 0)
			})
			cfg := Config{Workers: 2, Axis: AxisRows, GridSize: size, MaxRestarts: 1, ResultWait: 200 * time.Millisecond}
			g, sum, err := runCoordinator(t, cfg, l)
			if err != nil {
				t.Fatal(err)
			}
			if sum.Discarded != 1 || sum.Restarts != 1 {
				t.Fatalf("discarded=%d restarts=%d, want 1 and 1 (notes %q)", sum.Discarded, sum.Restarts, sum.Notes)
			}
			if !strings.Contains(strings.Join(sum.Notes, "\n"), tc.note) {
				t.Errorf("no note names the fault %q: %q", tc.note, sum.Notes)
			}
			if FingerprintOf(g) != FingerprintOf(clean) {
				t.Error("the run with a discarded stream hashed differently from the clean run")
			}
		})
	}
}
