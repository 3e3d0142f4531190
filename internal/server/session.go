package server

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/faulttol"
)

// State is a session lifecycle state. The machine is
//
//	streaming --finalize--> finalizing --ok--> done
//	    |                        |--err/cancel--> failed
//	    |
//	    +-- idle timeout / DELETE / drain --> removed from the registry
//
// done and failed are terminal but stay registered (holding their
// tenant reservation — the grid is still resident) until the client
// deletes the session, the idle timeout sweeps it, or a drain removes
// it.
type State string

// Session states.
const (
	StateStreaming  State = "streaming"
	StateFinalizing State = "finalizing"
	StateDone       State = "done"
	StateFailed     State = "failed"
)

// Removal reasons, for the terminal counters.
type removeReason int

const (
	removeDeleted removeReason = iota
	removeExpired
	removeDrained
)

// session is one registered observation session.
type session struct {
	id     string
	tenant string
	cfg    SessionConfig
	// inflight is the resolved MaxInflightChunks bound reserved
	// against the tenant budget at admission.
	inflight int
	back     BackendSession
	created  time.Time

	mu         sync.Mutex
	state      State
	lastTouch  time.Time
	streamBusy bool
	res        *Result
	runErr     error
	cancelRun  context.CancelFunc
}

func (s *session) touch(now time.Time) {
	s.mu.Lock()
	s.lastTouch = now
	s.mu.Unlock()
}

// idleSince reports whether the session has been untouched since the
// deadline and is expirable (a running finalize is never expired — it
// touches the session when it completes).
func (s *session) idleSince(deadline time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state != StateFinalizing && s.lastTouch.Before(deadline)
}

func (s *session) currentState() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// beginStream claims the session's single streaming slot.
func (s *session) beginStream() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != StateStreaming {
		return fmt.Errorf("session is %s, not accepting visibility frames", s.state)
	}
	if s.streamBusy {
		return fmt.Errorf("another stream request is in flight")
	}
	s.streamBusy = true
	return nil
}

func (s *session) endStream() {
	s.mu.Lock()
	s.streamBusy = false
	s.mu.Unlock()
}

// beginFinalize moves streaming -> finalizing and installs the cancel
// handle the drain path uses.
func (s *session) beginFinalize(cancel context.CancelFunc) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != StateStreaming {
		return fmt.Errorf("session is %s, not finalizable", s.state)
	}
	if s.streamBusy {
		return fmt.Errorf("a stream request is still in flight")
	}
	s.state = StateFinalizing
	s.cancelRun = cancel
	return nil
}

// endFinalize records the run outcome.
func (s *session) endFinalize(res *Result, err error, now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cancelRun = nil
	s.lastTouch = now
	if err != nil {
		s.state = StateFailed
		s.runErr = err
		return
	}
	s.state = StateDone
	s.res = res
}

// abort cancels a running finalize, if any.
func (s *session) abort() {
	s.mu.Lock()
	cancel := s.cancelRun
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// runBackend executes the backend pass with panic isolation: a
// backend bug takes down its session (as ErrKernelPanic), never the
// server.
func runBackend(ctx context.Context, back BackendSession) (res *Result, err error) {
	panicked := true
	defer func() {
		if panicked {
			err = fmt.Errorf("%w: %v", faulttol.ErrKernelPanic, recover())
			res = nil
		}
	}()
	res, err = back.Run(ctx)
	panicked = false
	return res, err
}

// openBackend opens a session's backend with the same panic
// isolation: a configuration the backend cannot build fails the create,
// it does not end the request without an answer.
func openBackend(b Backend, cfg SessionConfig) (back BackendSession, err error) {
	panicked := true
	defer func() {
		if panicked {
			back, err = nil, fmt.Errorf("%w: %v", faulttol.ErrKernelPanic, recover())
		}
	}()
	back, err = b.Open(cfg)
	panicked = false
	return back, err
}

// applyVis stores one decoded chunk with the same panic isolation.
func applyVis(back BackendSession, c VisChunk) (err error) {
	panicked := true
	defer func() {
		if panicked {
			err = fmt.Errorf("%w: %v", faulttol.ErrKernelPanic, recover())
		}
	}()
	err = back.SetVisibilities(c.Baseline, c.SampleOffset, c.Samples)
	panicked = false
	return err
}
