package distrib

import (
	"bufio"
	"context"
	"fmt"
	"net"

	"repro/internal/frame"
	"repro/internal/grid"
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

// NonzeroRowSpan is grid.NonzeroRowSpan, under the name the benchmark
// module spells.
var NonzeroRowSpan = grid.NonzeroRowSpan

// Deliver streams a finished partial grid to the coordinator: dial, a
// Hello announcing g's nonzero row span, the grid stream of that span
// in FrameBands under the payload cap, and a closing FrameResult
// carrying the span's band fingerprint, hashed as the stream is
// encoded. maxPayload <= 0 selects frame.DefaultMaxPayload.
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
	h := Hello{Worker: spec.Index, Workers: spec.Workers, Axis: spec.Axis, PlanSum: planSum}
	h.Lo, h.Hi = grid.NonzeroRowSpan(g)
	fp, err := sendBands(bw, h, g, maxPayload)
	if err != nil {
		return err
	}
	if err := frame.Write(bw, EncodeResult(Result{Worker: spec.Index, Fingerprint: fp})); err != nil {
		return fmt.Errorf("distrib: worker %d sending result: %w", spec.Index, err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("distrib: worker %d flushing reduction stream: %w", spec.Index, err)
	}
	return nil
}

// sendBands writes the hello h and the grid stream of g's rows
// [h.Lo, h.Hi) in FrameBands of at most maxPayload bytes, and returns
// the band fingerprint of those rows from the same pass.
func sendBands(bw *bufio.Writer, h Hello, g *grid.Grid, maxPayload int) (Fingerprint, error) {
	if err := frame.Write(bw, EncodeHello(h)); err != nil {
		return Fingerprint{}, fmt.Errorf("distrib: worker %d sending hello: %w", h.Worker, err)
	}
	if maxPayload <= 0 {
		maxPayload = frame.DefaultMaxPayload
	}
	fp, err := g.Rows(h.Lo, h.Hi).WriteStream(bandFrames{bw}, maxPayload)
	if err != nil {
		return Fingerprint{}, fmt.Errorf("distrib: worker %d sending its band: %w", h.Worker, err)
	}
	return fp, nil
}
