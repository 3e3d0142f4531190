package distrib

import (
	"bufio"
	"context"
	"fmt"
	"net"

	"repro/internal/grid"
	"repro/internal/server"
)

// WorkerSpec identifies one worker attempt: which partition of how
// many, along which axis, whether this attempt should resume from the
// worker's checkpoint, and where the coordinator is listening. The
// coordinator fills it in and hands it to the Launcher; exec-style
// launchers turn it into cmd/idgworker flags.
type WorkerSpec struct {
	Index   int
	Workers int
	Axis    Axis
	// Resume is set on every attempt after the first: the worker should
	// resume from its checkpoint directory instead of starting fresh.
	Resume bool
	// CoordinatorAddr is the host:port the worker delivers its partial
	// grid to.
	CoordinatorAddr string
}

// Launcher starts one worker attempt and blocks until the worker
// process (or goroutine) exits, returning its terminal error. The
// coordinator restarts a failed worker with Resume set, up to its
// restart budget. Implementations live above this package: the facade
// runs workers as in-process goroutines, cmd/idgdistrib execs
// cmd/idgworker.
type Launcher interface {
	Start(ctx context.Context, spec WorkerSpec) error
}

// LauncherFunc adapts a function to the Launcher interface.
type LauncherFunc func(ctx context.Context, spec WorkerSpec) error

// Start calls f.
func (f LauncherFunc) Start(ctx context.Context, spec WorkerSpec) error {
	return f(ctx, spec)
}

// NonzeroRowSpan returns the smallest row range [lo, hi) covering
// every nonzero cell of g across all correlation planes, so Deliver
// ships only the band a sparse partition actually touched. An all-zero
// grid returns (0, 0).
func NonzeroRowSpan(g *grid.Grid) (lo, hi int) {
	lo, hi = g.N, 0
	for c := range g.Data {
		for y := 0; y < g.N; y++ {
			if lo <= y && y < hi {
				continue // inside the span already
			}
			for _, v := range g.Data[c][y*g.N : (y+1)*g.N] {
				if v != 0 {
					lo, hi = min(lo, y), max(hi, y+1)
					break
				}
			}
		}
	}
	if lo >= hi {
		return 0, 0
	}
	return lo, hi
}

// Deliver streams a finished partial grid to the coordinator: dial,
// Hello, the nonzero row span chunked into FrameBands under the
// payload cap, and a closing FrameResult carrying the fingerprint of
// the whole partial grid — hashed on its own goroutine while the bands
// are encoded and written. maxPayload <= 0 selects the server default.
func Deliver(ctx context.Context, spec WorkerSpec, planSum [32]byte, g *grid.Grid, maxPayload int) error {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", spec.CoordinatorAddr)
	if err != nil {
		return fmt.Errorf("distrib: worker %d dialing coordinator: %w", spec.Index, err)
	}
	defer conn.Close()
	if dl, ok := ctx.Deadline(); ok {
		conn.SetDeadline(dl)
	}
	bw := bufio.NewWriterSize(conn, 1<<16)
	hashed := make(chan Fingerprint, 1)
	go func() { hashed <- FingerprintOf(g) }()
	err = sendBands(bw, spec, planSum, g, maxPayload)
	res := Result{Worker: spec.Index, Fingerprint: <-hashed} // also on error: g is the caller's again
	if err != nil {
		return err
	}
	if err := server.WriteFrame(bw, EncodeResult(res)); err != nil {
		return fmt.Errorf("distrib: worker %d sending result: %w", spec.Index, err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("distrib: worker %d flushing reduction stream: %w", spec.Index, err)
	}
	return nil
}

// sendBands writes the hello and the band frames of g's nonzero row
// span, every band through one reused payload buffer.
func sendBands(bw *bufio.Writer, spec WorkerSpec, planSum [32]byte, g *grid.Grid, maxPayload int) error {
	hello := Hello{Worker: spec.Index, Workers: spec.Workers, Axis: spec.Axis, PlanSum: planSum}
	if err := server.WriteFrame(bw, EncodeHello(hello)); err != nil {
		return fmt.Errorf("distrib: worker %d sending hello: %w", spec.Index, err)
	}
	lo, hi := NonzeroRowSpan(g)
	step := BandRowsPerFrame(g.N, maxPayload)
	var payload []byte
	for y := lo; y < hi; y += step {
		f, err := encodeBandInto(payload, g, y, min(y+step, hi))
		if err != nil {
			return err
		}
		if err := server.WriteFrame(bw, f); err != nil {
			return fmt.Errorf("distrib: worker %d sending band [%d, %d): %w", spec.Index, y, min(y+step, hi), err)
		}
		payload = f.Payload
	}
	return nil
}
