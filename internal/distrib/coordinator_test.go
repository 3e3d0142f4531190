package distrib

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
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
		{Workers: 2, GridSize: 8, Axis: AxisRows, MaxPayload: MinPayload - 1},
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
// all-zero grid, whose band stream is its header and one zero count.
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
// 16-frame stream allocates no more than a 2-frame stream of the same
// frame size, give or take one frame (per frame it would be sixty
// more).
func TestHandleStreamReusesPayloadBuffer(t *testing.T) {
	const size, maxPayload = 128, 2048
	allocated := func(frames int) uint64 {
		g := grid.NewGrid(size)
		for i := 0; i < frames*maxPayload/(1+grid.CellBytes); i++ {
			g.Data[0][i] = 1
		}
		var stream bytes.Buffer
		bw := bufio.NewWriter(&stream)
		lo, hi := grid.NonzeroRowSpan(g)
		h := Hello{Workers: 1, Axis: AxisRows, Lo: lo, Hi: hi}
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
			t.Fatalf("%d-frame stream not accepted: %v", frames, c.notes)
		}
		return after.TotalAlloc - before.TotalAlloc - uint64(grid.NrCorrelations*size*size*grid.CellBytes)
	}
	two, sixteen := allocated(2), allocated(16)
	if sixteen > two+maxPayload {
		t.Errorf("a 16-frame stream allocated %d bytes, a 2-frame one %d: more than one %d-byte frame apart", sixteen, two, maxPayload)
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

// rawDeliver sends the hello h, the given FrameBand payloads and a
// result declaring the honest band fingerprint of g's nonzero span: a
// stream whose bytes break the protocol however its cells compare.
func rawDeliver(ctx context.Context, spec WorkerSpec, h Hello, g *grid.Grid, payloads [][]byte) error {
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
	for _, p := range payloads {
		if err := frame.Write(bw, frame.Frame{Type: FrameBand, Payload: p}); err != nil {
			return err
		}
	}
	if err := frame.Write(bw, EncodeResult(Result{Worker: spec.Index, Fingerprint: spanPrint(g)})); err != nil {
		return err
	}
	return bw.Flush()
}

// denseBand is a FrameBand payload as the dense cell codec built it:
// grid size, plane, lo and hi (uint32), then the rows' cells.
func denseBand(g *grid.Grid, c, lo, hi int) []byte {
	p := binary.LittleEndian.AppendUint32(nil, uint32(g.N))
	for _, v := range []int{c, lo, hi} {
		p = binary.LittleEndian.AppendUint32(p, uint32(v))
	}
	for _, v := range g.Data[min(c, grid.NrCorrelations-1)][lo*g.N : hi*g.N] {
		p = binary.LittleEndian.AppendUint64(p, math.Float64bits(real(v)))
		p = binary.LittleEndian.AppendUint64(p, math.Float64bits(imag(v)))
	}
	return p
}

// TestCoordinatorRejectsMalformedBands: worker 1 owns rows [8, 16) of
// a 16-row grid, every cell of which it writes, so its band stream is
// the 12-byte header, 512 entries of a zero count (one byte, 0) and a
// cell, and the last count, 0. A first attempt whose stream leaves the
// span, carries cells twice, leaves some out or in another order, runs
// past the last plane, stops short — a result frame where an entry was
// due, after a count or a cell split across frames — writes out an
// all-zero cell, carries bytes after its last count, or comes in the
// dense cell codec's band frames — or whose hello announces rows beyond
// the grid — is discarded with a note naming the fault, the worker is
// relaunched, and the run ends as a clean run does.
func TestCoordinatorRejectsMalformedBands(t *testing.T) {
	const size = 16
	clean, _, err := runCoordinator(t, Config{Workers: 2, Axis: AxisRows, GridSize: size}, honestLauncher(size))
	if err != nil {
		t.Fatal(err)
	}
	g := workerGrid(WorkerSpec{Index: 1, Workers: 2}, size)
	valid := bandStream(g, 8, 16)
	header, entries := valid[:12], valid[12:len(valid)-1]
	const entry, row = 1 + grid.CellBytes, size * (1 + grid.CellBytes) // one cell's entry, one row's
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	uv := func(x uint64) []byte { return binary.AppendUvarint(nil, x) }
	other := func(edit func(g *grid.Grid)) []byte {
		h := g.Clone()
		edit(h)
		return bandStream(h, 8, 16)
	}
	for _, tc := range []struct {
		name     string
		lo, hi   int
		payloads [][]byte
		note     string
	}{
		{"band leaves the span", 8, 16, [][]byte{cat(header, uv(513))}, "zero run of 513 past the last of 512 cells"},
		{"bands overlap", 8, 16, [][]byte{cat(header, entries[:4*row], entries, uv(0))}, "bytes after the band stream's end"},
		{"bands leave a gap", 8, 16, [][]byte{other(func(h *grid.Grid) {
			for x := 0; x < size; x++ {
				h.Set(0, 11, x, 0)
			}
		})}, "partial fingerprint mismatch"},
		{"band repeated", 8, 16, [][]byte{valid, valid}, "bytes after the band stream's end"},
		{"bands stop short", 8, 16, [][]byte{valid[:len(valid)/2]}, "before the band stream's end"},
		{"span beyond the grid", 8, 17, [][]byte{valid}, "announced rows [8, 17) of a 16-row grid"},
		{"plane out of order", 8, 16, [][]byte{other(func(h *grid.Grid) { h.Data[1], h.Data[2] = h.Data[2], h.Data[1] })}, "partial fingerprint mismatch"},
		{"plane out of range", 8, 16, [][]byte{denseBand(g, 4, 8, 16)}, "header for rows [4, 8) of a 16-pixel grid"},
		{"plane left short", 8, 16, [][]byte{cat(header, entries[:2*8*row-row], uv(0))}, "before the band stream's end"},
		{"band past the last plane", 8, 16, [][]byte{cat(valid, uv(0), entries[:grid.CellBytes+1])}, "bytes after the band stream's end"},
		{"count split across frames, then cut", 8, 16, [][]byte{cat(header, uv(300)[:1]), uv(300)[1:]}, "before the band stream's end"},
		{"cell split across frames, then cut", 8, 16, [][]byte{cat(header, entries[:entry+5]), entries[entry+5 : 2*entry]}, "before the band stream's end"},
		{"all-zero cell written out", 8, 16, [][]byte{cat(header, uv(0), make([]byte, grid.CellBytes), uv(511))}, "an all-zero cell written out"},
		{"bytes after the last count", 8, 16, [][]byte{valid, {0}}, "1 bytes after the band stream's end"},
		{"result before the stream ends", 8, 16, [][]byte{header}, "before the band stream's end"},
		{"dense cell codec", 8, 16, [][]byte{denseBand(g, 0, 8, 16), denseBand(g, 1, 8, 16), denseBand(g, 2, 8, 16), denseBand(g, 3, 8, 16)}, "header for rows [0, 8) of a 16-pixel grid"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := LauncherFunc(func(ctx context.Context, spec WorkerSpec) error {
				g := workerGrid(spec, size)
				if spec.Index == 1 && !spec.Resume {
					h := Hello{Worker: 1, Workers: 2, Axis: AxisRows, Lo: tc.lo, Hi: tc.hi}
					return rawDeliver(ctx, spec, h, g, tc.payloads)
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
	// The first cell byte of the band stream: after the hello frame, the
	// first band's frame header, the stream's 12-byte header and its
	// first zero count.
	firstCell := frame.HeaderSize + helloPayloadBytes + 8 + frame.HeaderSize + 12 + 1
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
