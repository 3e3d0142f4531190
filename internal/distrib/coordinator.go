package distrib

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/frame"
	"repro/internal/grid"
)

// Config configures a coordinator.
type Config struct {
	// Workers is the number of partitions (and worker processes).
	Workers int
	// Axis is the partition axis every worker must announce.
	Axis Axis
	// GridSize is the expected grid size of every partial.
	GridSize int
	// ExpectPlanSums, when non-nil, pins each worker's sub-plan
	// fingerprint: a Hello whose PlanSum differs from
	// ExpectPlanSums[worker] is rejected — the worker is gridding a
	// different partition (or a different observation) than assigned.
	// Must have length Workers when set.
	ExpectPlanSums [][32]byte
	// MaxPayload caps reduction frame payloads on both sides
	// (<= 0: frame.DefaultMaxPayload).
	MaxPayload int
	// MaxRestarts bounds how many times one worker may be relaunched
	// (with Resume set) after a failure. 0 means a failed worker fails
	// the run.
	MaxRestarts int
	// ResultWait bounds how long the coordinator waits for a worker's
	// result frames after its launcher reports a clean exit — the
	// window in which an in-flight reduction stream finishes decoding.
	// <= 0 selects 30 seconds.
	ResultWait time.Duration
	// Logf, when set, receives progress notes.
	Logf func(format string, args ...any)
}

// DefaultResultWait bounds the post-exit result wait when Config
// leaves it zero.
const DefaultResultWait = 30 * time.Second

// Summary reports how a distributed run went.
type Summary struct {
	Workers int
	Axis    Axis
	// Restarts counts worker relaunches across the whole run.
	Restarts int
	// Discarded counts reduction streams rejected before acceptance
	// (bad hello, a band stream that leaves its span or does not end
	// where the result begins, fingerprint mismatch, truncation).
	Discarded int
	// WorkerFingerprints holds every accepted partial's band fingerprint
	// (grid.Band.Fingerprint of its nonzero row span), indexed by worker.
	WorkerFingerprints []Fingerprint
	// Stages is the coordinator's own account of the run's wall time.
	Stages Stages
	// WorkerTimes holds, per worker, the stage times of its last attempt
	// that returned cleanly, when the launcher ran it in the caller's
	// process (RunDistributed's default launcher fills it); exec'd
	// workers leave their entry zero.
	WorkerTimes []WorkerTimes
	// Notes records rejected streams and relaunches, newest last.
	Notes []string
}

// WorkerTimes is where one worker attempt's wall time went: Build is
// geometry (unless shared), kernels and the partition filter; Fill the
// visibility prediction; Grid the streamed pass; Deliver the
// fingerprint, band encode and wire.
type WorkerTimes struct {
	Build, Fill, Grid, Deliver time.Duration
}

// Stages splits a run's wall time along its critical path, by the
// coordinator's own clock. Launch, Receive and Verify follow the
// stream accepted last — the one the reduction waited for — so the
// stages never overlap and sum to at most the run's wall time.
type Stages struct {
	Plan    time.Duration // plan lookup or build + sub-plan fingerprints; set by whoever planned (RunDistributed)
	Launch  time.Duration // Run's start to that stream's hello: its worker's build, fill and gridding
	Receive time.Duration // to its result frame read: band transfer, CRC, decode, fingerprint
	Verify  time.Duration // to its fingerprint compared and the partial accepted
	Reduce  time.Duration // the tree reduction over bands, into the returned grid
}

// Coordinator assigns partitions, accepts reduction streams, restarts
// failed workers with Resume set, and tree-reduces the accepted
// partial bands into the final grid. Worker 0's stream, the root of the
// reduction tree, decodes into rows of a whole grid of its own
// (grid.NewGridBand), which the reduction adds the other bands into and
// returns: no copy of the root at any worker count. One Coordinator
// runs one distributed pass: create, Run, discard.
type Coordinator struct {
	cfg Config
	ln  net.Listener

	mu        sync.Mutex
	partials  []*grid.Band  // accepted partial per worker; stays nil for an empty span
	prints    []Fingerprint // fingerprint per accepted partial
	arrived   []chan struct{}
	marks     [3]time.Time // hello decoded, result read, partial accepted: of the stream accepted last
	restarts  int
	discarded int
	notes     []string
}

// New validates cfg and opens the coordinator's loopback listener.
// The caller must Run (which closes the listener) or Close.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("distrib: need at least one worker, got %d", cfg.Workers)
	}
	if cfg.GridSize < 1 {
		return nil, fmt.Errorf("distrib: invalid grid size %d", cfg.GridSize)
	}
	if cfg.Axis != AxisRows && cfg.Axis != AxisWPlanes {
		return nil, fmt.Errorf("distrib: unknown partition axis %d", cfg.Axis)
	}
	if cfg.ExpectPlanSums != nil && len(cfg.ExpectPlanSums) != cfg.Workers {
		return nil, fmt.Errorf("distrib: %d plan fingerprints for %d workers", len(cfg.ExpectPlanSums), cfg.Workers)
	}
	if cfg.MaxPayload > 0 && cfg.MaxPayload < MinPayload {
		return nil, fmt.Errorf("distrib: a %d-byte frame payload cap is below the %d-byte minimum", cfg.MaxPayload, MinPayload)
	}
	if cfg.ResultWait <= 0 {
		cfg.ResultWait = DefaultResultWait
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("distrib: opening coordinator listener: %w", err)
	}
	c := &Coordinator{
		cfg:      cfg,
		ln:       ln,
		partials: make([]*grid.Band, cfg.Workers),
		prints:   make([]Fingerprint, cfg.Workers),
		arrived:  make([]chan struct{}, cfg.Workers),
	}
	for i := range c.arrived {
		c.arrived[i] = make(chan struct{})
	}
	return c, nil
}

// Addr returns the coordinator's listen address for WorkerSpecs.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Close releases the listener without running (error cleanup path).
func (c *Coordinator) Close() error { return c.ln.Close() }

func (c *Coordinator) note(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	c.mu.Lock()
	c.notes = append(c.notes, msg)
	c.mu.Unlock()
	if c.cfg.Logf != nil {
		c.cfg.Logf("%s", msg)
	}
}

// Run launches every worker through the launcher, restarts failures
// with Resume set up to MaxRestarts each, accepts and verifies their
// reduction streams, and returns the tree-reduced grid with a run
// summary. The listener is closed on return.
func (c *Coordinator) Run(ctx context.Context, launcher Launcher) (*grid.Grid, *Summary, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	defer c.ln.Close()
	start := time.Now()

	var accepting sync.WaitGroup
	go c.acceptLoop(ctx, &accepting)

	var wg sync.WaitGroup
	errs := make([]error, c.cfg.Workers)
	for i := 0; i < c.cfg.Workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = c.manageWorker(ctx, launcher, i)
			if errs[i] != nil {
				cancel() // one worker out of budget fails the run
			}
		}(i)
	}
	wg.Wait()
	c.ln.Close() // unblock Accept, then drain in-flight streams
	accepting.Wait()

	// Report the root cause: one worker's failure cancels the others,
	// so a bare context.Canceled is fallout, not the failure itself.
	firstErr := -1
	for i, err := range errs {
		if err == nil {
			continue
		}
		if firstErr < 0 {
			firstErr = i
		}
		if !errors.Is(err, context.Canceled) {
			return nil, nil, fmt.Errorf("distrib: worker %d: %w", i, err)
		}
	}
	if firstErr >= 0 {
		return nil, nil, fmt.Errorf("distrib: worker %d: %w", firstErr, errs[firstErr])
	}

	c.mu.Lock()
	sum := &Summary{
		Workers:            c.cfg.Workers,
		Axis:               c.cfg.Axis,
		Restarts:           c.restarts,
		Discarded:          c.discarded,
		WorkerFingerprints: append([]Fingerprint(nil), c.prints...),
		Notes:              append([]string(nil), c.notes...),
	}
	bs := append([]*grid.Band(nil), c.partials...)
	m := c.marks
	c.mu.Unlock()
	sum.Stages = Stages{Launch: m[0].Sub(start), Receive: m[1].Sub(m[0]), Verify: m[2].Sub(m[1])}

	reducing := time.Now()
	g := reduceBands(bs)
	if g == nil {
		g = grid.NewGrid(c.cfg.GridSize)
	}
	sum.Stages.Reduce = time.Since(reducing)
	return g, sum, nil
}

// manageWorker runs one worker to acceptance: launch, wait for its
// exit, and either confirm its result arrived or relaunch with Resume
// while the restart budget lasts.
func (c *Coordinator) manageWorker(ctx context.Context, launcher Launcher, i int) error {
	for attempt := 0; ; attempt++ {
		spec := WorkerSpec{
			Index:           i,
			Workers:         c.cfg.Workers,
			Axis:            c.cfg.Axis,
			Resume:          attempt > 0,
			CoordinatorAddr: c.Addr(),
		}
		lerr := launcher.Start(ctx, spec)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if lerr == nil {
			// Clean exit: the result may still be decoding in the accept
			// goroutine; give the stream a bounded window to land.
			select {
			case <-c.arrived[i]:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(c.cfg.ResultWait):
				lerr = errors.New("worker exited cleanly but its result never arrived")
			}
		} else {
			// A worker can die after a complete delivery (e.g. a crash in
			// teardown); an accepted result outranks the exit status.
			select {
			case <-c.arrived[i]:
				c.note("worker %d attempt %d failed after delivering (%v); result kept", i, attempt+1, lerr)
				return nil
			default:
			}
		}
		if attempt >= c.cfg.MaxRestarts {
			return fmt.Errorf("failed after %d attempt(s): %w", attempt+1, lerr)
		}
		c.mu.Lock()
		c.restarts++
		c.mu.Unlock()
		c.note("worker %d attempt %d failed (%v); relaunching with resume", i, attempt+1, lerr)
	}
}

// acceptLoop accepts reduction streams until the listener closes.
func (c *Coordinator) acceptLoop(ctx context.Context, accepting *sync.WaitGroup) {
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return // listener closed by Run
		}
		accepting.Add(1)
		go func() {
			defer accepting.Done()
			c.handleStream(ctx, conn)
		}()
	}
}

// handleStream decodes one worker's reduction stream into the band its
// hello announced, hashing the band stream's bytes as they arrive, and
// accepts it only if the stream decodes whole into that span, the
// result frame follows its end and the band fingerprint matches the
// one the worker declared. A stream failing any check is discarded
// whole; the worker's manager will time out and relaunch.
func (c *Coordinator) handleStream(ctx context.Context, conn net.Conn) {
	defer conn.Close()
	if dl, ok := ctx.Deadline(); ok {
		conn.SetDeadline(dl)
	}
	br := bufio.NewReaderSize(conn, 1<<16)

	f, err := frame.Read(br, c.cfg.MaxPayload, reduceRules, nil)
	if err != nil {
		c.discard("stream with no hello: %v", err)
		return
	}
	h, err := DecodeHello(f)
	if err != nil {
		c.discard("bad hello: %v", err)
		return
	}
	if h.Worker < 0 || h.Worker >= c.cfg.Workers || h.Workers != c.cfg.Workers || h.Axis != c.cfg.Axis {
		c.discard("hello for worker %d/%d axis %v does not match run (%d workers, axis %v)",
			h.Worker, h.Workers, h.Axis, c.cfg.Workers, c.cfg.Axis)
		return
	}
	if c.cfg.ExpectPlanSums != nil && h.PlanSum != c.cfg.ExpectPlanSums[h.Worker] {
		c.discard("worker %d announced a sub-plan fingerprint that does not match its assigned partition", h.Worker)
		return
	}
	if h.Hi > c.cfg.GridSize {
		c.discard("worker %d announced rows [%d, %d) of a %d-row grid", h.Worker, h.Lo, h.Hi, c.cfg.GridSize)
		return
	}

	marks := [3]time.Time{time.Now()}
	band, got, r, err := receiveBand(br, h, c.cfg.GridSize, c.cfg.MaxPayload)
	if err != nil {
		c.discard("worker %d: %v", h.Worker, err)
		return
	}
	marks[1] = time.Now()
	if r.Worker != h.Worker {
		c.discard("worker %d stream closed with worker %d's result", h.Worker, r.Worker)
		return
	}
	if got != r.Fingerprint {
		c.discard("worker %d partial fingerprint mismatch: declared %x, assembled %x",
			h.Worker, r.Fingerprint.SHA256[:8], got.SHA256[:8])
		return
	}
	marks[2] = time.Now()
	c.deliver(h.Worker, band, got, marks)
}

func (c *Coordinator) discard(format string, args ...any) {
	c.mu.Lock()
	c.discarded++
	c.mu.Unlock()
	c.note("discarding reduction stream: "+format, args...)
}

// deliver records worker i's verified partial. The first accepted
// delivery wins; a duplicate (a relaunched worker racing its
// predecessor's late stream) is dropped — both were verified against
// the same assigned sub-plan, so they carry the same bits in the
// serial-worker configurations the conformance suite pins.
func (c *Coordinator) deliver(i int, b *grid.Band, fp Fingerprint, m [3]time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case <-c.arrived[i]:
		c.notes = append(c.notes, fmt.Sprintf("worker %d delivered twice; keeping the first accepted partial", i))
		return
	default:
	}
	c.partials[i] = b
	c.prints[i] = fp
	c.marks = m
	close(c.arrived[i])
}
