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
// Hello announcing g's nonzero row span, that span plane by plane in
// FrameBands under the payload cap, and a closing FrameResult carrying
// the span's band fingerprint, accumulated over each band's cells as
// it is encoded. maxPayload <= 0 selects frame.DefaultMaxPayload.
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

// sendBands writes the hello h and the band frames of g's rows
// [h.Lo, h.Hi), plane by plane, every band through one reused payload
// buffer, and returns the band fingerprint of those rows hashed frame
// by frame on the way.
func sendBands(bw *bufio.Writer, h Hello, g *grid.Grid, maxPayload int) (Fingerprint, error) {
	if err := frame.Write(bw, EncodeHello(h)); err != nil {
		return Fingerprint{}, fmt.Errorf("distrib: worker %d sending hello: %w", h.Worker, err)
	}
	step := BandRowsPerFrame(g.N, maxPayload)
	sum := grid.NewHasher(g.N, h.Lo, h.Hi)
	var payload []byte
	for c := range g.Data {
		for y := h.Lo; y < h.Hi; y += step {
			end := min(y+step, h.Hi)
			f, err := encodeBandInto(payload, g, c, y, end)
			if err != nil {
				return Fingerprint{}, err
			}
			sum.Write(g.Data[c][y*g.N : end*g.N])
			if err := frame.Write(bw, f); err != nil {
				return Fingerprint{}, fmt.Errorf("distrib: worker %d sending plane %d rows [%d, %d): %w", h.Worker, c, y, end, err)
			}
			payload = f.Payload
		}
	}
	return sum.Sum(), nil
}
