package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faulttol"
	"repro/internal/obs"
)

// fakeBackend grids nothing: it stores streamed samples verbatim and
// fingerprints them, so the handler tests exercise the full session
// machinery without paying for plans or FFTs.
type fakeBackend struct {
	nb, nt, nc int
	// openErr fails Open; runErr fails Run; runPanic panics inside Run;
	// blockRun makes Run wait for its context (a drain straggler);
	// writeFail makes WriteGrid fail halfway through the grid.
	openErr   error
	openPanic bool
	runErr    error
	runPanic  bool
	blockRun  bool
	writeFail bool

	mu     sync.Mutex
	opened int
}

type fakeSession struct {
	b *fakeBackend

	mu   sync.Mutex
	data []float32
	done bool
}

func (b *fakeBackend) Open(cfg SessionConfig) (BackendSession, error) {
	if b.openPanic {
		panic("fake backend: open panicked")
	}
	if b.openErr != nil {
		return nil, b.openErr
	}
	b.mu.Lock()
	b.opened++
	b.mu.Unlock()
	if cfg.CheckpointDir != "" {
		// Stand in for the snapshot a checkpointing pass leaves.
		if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(cfg.CheckpointDir, "snapshot"), nil, 0o644); err != nil {
			return nil, err
		}
	}
	s := &fakeSession{b: b}
	s.data = make([]float32, b.nb*b.nt*b.nc*8)
	return s, nil
}

func (s *fakeSession) Dims() (int, int, int) { return s.b.nb, s.b.nt, s.b.nc }

func (s *fakeSession) SetVisibilities(baseline, sampleOffset int, samples []float32) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	off := (baseline*s.b.nt*s.b.nc + sampleOffset) * 8
	copy(s.data[off:], samples)
	return nil
}

// gridSize is the fake's grid: the smallest whose bytes, four planes of
// N² complex128, hold a byte per stored sample.
func (s *fakeSession) gridSize() int {
	n := 1
	for 64*n*n < len(s.data) {
		n++
	}
	return n
}

// payload is the fake's grid: a byte per stored sample, zero-padded.
func (s *fakeSession) payload() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.gridSize()
	p := make([]byte, 64*n*n)
	for i, v := range s.data {
		p[i] = byte(int(v) & 0xff)
	}
	return p
}

func (s *fakeSession) Run(ctx context.Context) (*Result, error) {
	if s.b.runPanic {
		panic("injected backend panic")
	}
	if s.b.runErr != nil {
		return nil, s.b.runErr
	}
	if s.b.blockRun {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	sum := sha256.Sum256(s.payload())
	s.mu.Lock()
	s.done = true
	s.mu.Unlock()
	return &Result{GridSize: s.gridSize(), SHA256: hex.EncodeToString(sum[:])}, nil
}

func (s *fakeSession) WriteGrid(w io.Writer) error {
	s.mu.Lock()
	done := s.done
	s.mu.Unlock()
	if !done {
		return errors.New("no finished grid")
	}
	p := s.payload()
	if s.b.writeFail {
		w.Write(p[:len(p)/2])
		return errors.New("fake backend: grid write failed")
	}
	_, err := w.Write(p)
	return err
}

// newTestServer builds a server on the fake backend behind httptest.
func newTestServer(t *testing.T, cfg Config, back Backend) (*Server, *Client) {
	t.Helper()
	if back == nil {
		back = &fakeBackend{nb: 3, nt: 4, nc: 2}
	}
	s, err := New(cfg, back)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, &Client{Base: hs.URL, Tenant: "test", HTTP: hs.Client()}
}

func testSessionConfig() SessionConfig {
	return SessionConfig{
		NrStations: 3, NrTimesteps: 4, NrChannels: 2,
		GridSize: 64, SubgridSize: 8, MaxInflightChunks: 2,
	}
}

// streamAll pushes every sample of every baseline in one request.
func streamAll(t *testing.T, c *Client, id string, nb, nt, nc int) {
	t.Helper()
	err := c.StreamVis(id, func(w *FrameWriter) error {
		for b := 0; b < nb; b++ {
			buf := make([]float32, nt*nc*8)
			for i := range buf {
				buf[i] = float32((b + i) % 97)
			}
			if err := w.WriteVis(b, 0, buf); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGridDownloadTruncated: a grid whose WriteGrid fails halfway
// reaches the client as a body short of its declared length, and the
// client reports an error instead of the hash of half a grid.
func TestGridDownloadTruncated(t *testing.T) {
	_, c := newTestServer(t, Config{}, &fakeBackend{nb: 3, nt: 4, nc: 2, writeFail: true})
	info, err := c.CreateSession(testSessionConfig())
	if err != nil {
		t.Fatal(err)
	}
	streamAll(t, c, info.SessionID, 3, 4, 2)
	if _, err := c.Finalize(info.SessionID); err != nil {
		t.Fatal(err)
	}
	sha, n, err := c.FetchGridSHA256(info.SessionID)
	if err == nil {
		t.Fatalf("a grid cut off after %d bytes hashed to %s without an error", n, sha)
	}
}

// TestSessionLifecycle drives one session end to end and checks the
// grid transfer hashes to the result's SHA-256.
func TestSessionLifecycle(t *testing.T) {
	observer := obs.New(0)
	back := &fakeBackend{nb: 3, nt: 4, nc: 2}
	s, c := newTestServer(t, Config{Observer: observer}, back)

	info, err := c.CreateSession(testSessionConfig())
	if err != nil {
		t.Fatal(err)
	}
	if info.NrBaselines != 3 || info.NrTimesteps != 4 || info.NrChannels != 2 {
		t.Fatalf("session dims %+v", info)
	}
	if info.MaxInflightChunks != 2 {
		t.Fatalf("inflight bound %d, want the requested 2", info.MaxInflightChunks)
	}
	if got := s.ActiveSessions(); got != 1 {
		t.Fatalf("%d active sessions after create", got)
	}
	if got := s.TenantInflight("test"); got != 2 {
		t.Fatalf("tenant inflight %d after create, want 2", got)
	}

	streamAll(t, c, info.SessionID, 3, 4, 2)
	res, err := c.Finalize(info.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	if res.SHA256 == "" {
		t.Fatal("finalize returned no hash")
	}
	sha, n, err := c.FetchGridSHA256(info.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	if sha != res.SHA256 {
		t.Fatalf("grid transfer hash %s != result hash %s (%d bytes)", sha, res.SHA256, n)
	}
	if err := c.Delete(info.SessionID); err != nil {
		t.Fatal(err)
	}
	if got := s.ActiveSessions(); got != 0 {
		t.Fatalf("%d active sessions after delete", got)
	}
	if got := s.TenantInflight("test"); got != 0 {
		t.Fatalf("tenant inflight %d after delete, want 0", got)
	}

	snap := observer.Metrics.Snapshot()
	for name, want := range map[string]float64{
		MetricSessionsCreated: 1, MetricSessionsDone: 1, MetricSessionsDeleted: 1,
		GaugeSessionsActive: 0, GaugeInflightChunks: 0, GaugeInflightChunksPeak: 2,
	} {
		if got := metricValue(t, snap, name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if got := metricValue(t, snap, TenantInflightPeakGauge("test")); got != 2 {
		t.Errorf("tenant peak gauge %v, want 2", got)
	}
}

// metricValue digs one counter or gauge out of a snapshot.
func metricValue(t *testing.T, snap obs.Snapshot, name string) float64 {
	t.Helper()
	if v, ok := snap.Counters[name]; ok {
		return float64(v)
	}
	if v, ok := snap.Gauges[name]; ok {
		return v
	}
	t.Fatalf("metric %s missing from snapshot", name)
	return 0
}

// TestUnknownSession pins 404s across the session endpoints.
func TestUnknownSession(t *testing.T) {
	_, c := newTestServer(t, Config{}, nil)
	if err := c.StreamVis("nope", func(w *FrameWriter) error { return nil }); !isHTTP(err, 404) {
		t.Errorf("stream to unknown session: %v, want 404", err)
	}
	if _, err := c.Finalize("nope"); !isHTTP(err, 404) {
		t.Errorf("finalize of unknown session: %v, want 404", err)
	}
	if _, _, err := c.FetchGridSHA256("nope"); !isHTTP(err, 404) {
		t.Errorf("grid of unknown session: %v, want 404", err)
	}
	// Delete tolerates 404 by contract (idempotent cleanup).
	if err := c.Delete("nope"); err != nil {
		t.Errorf("delete of unknown session: %v, want nil", err)
	}
}

func isHTTP(err error, code int) bool {
	return err != nil && strings.Contains(err.Error(), fmt.Sprintf("HTTP %d", code))
}

// TestStateConflicts pins the 409s of the session state machine:
// double finalize, streaming into a finalized session, fetching a
// grid before finalize.
func TestStateConflicts(t *testing.T) {
	_, c := newTestServer(t, Config{}, nil)
	info, err := c.CreateSession(testSessionConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.FetchGridSHA256(info.SessionID); !isHTTP(err, 409) {
		t.Errorf("grid before finalize: %v, want 409", err)
	}
	streamAll(t, c, info.SessionID, 3, 4, 2)
	if _, err := c.Finalize(info.SessionID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Finalize(info.SessionID); !isHTTP(err, 409) {
		t.Errorf("second finalize: %v, want 409", err)
	}
	if err := c.StreamVis(info.SessionID, func(w *FrameWriter) error { return nil }); !isHTTP(err, 409) {
		t.Errorf("stream after finalize: %v, want 409", err)
	}
}

// TestStreamRejectsOutOfRange pins the bounds checks between the wire
// and the backend: baselines and sample ranges outside the
// observation 400 without touching backend state.
func TestStreamRejectsOutOfRange(t *testing.T) {
	_, c := newTestServer(t, Config{}, nil)
	info, err := c.CreateSession(testSessionConfig())
	if err != nil {
		t.Fatal(err)
	}
	err = c.StreamVis(info.SessionID, func(w *FrameWriter) error {
		return w.WriteVis(99, 0, make([]float32, 8))
	})
	if !isHTTP(err, 400) || !strings.Contains(err.Error(), "baseline 99") {
		t.Errorf("out-of-range baseline: %v, want a 400 naming it", err)
	}
	err = c.StreamVis(info.SessionID, func(w *FrameWriter) error {
		return w.WriteVis(0, 7, make([]float32, 16)) // samples [7, 9) of 8
	})
	if !isHTTP(err, 400) || !strings.Contains(err.Error(), "outside the baseline") {
		t.Errorf("out-of-range samples: %v, want a 400 naming the range", err)
	}
}

// TestCreatePanicReleasesAdmission: a backend that panics while
// opening fails the create with a 500 and gives the tenant's slot back,
// so a valid create after more panicking ones than the quota is still
// admitted.
func TestCreatePanicReleasesAdmission(t *testing.T) {
	back := &fakeBackend{nb: 3, nt: 4, nc: 2, openPanic: true}
	_, c := newTestServer(t, Config{MaxSessionsPerTenant: 2}, back)
	for i := 0; i < 4; i++ {
		if _, err := c.CreateSession(testSessionConfig()); !isHTTP(err, 500) {
			t.Fatalf("create %d with a panicking backend: %v, want 500", i, err)
		}
	}
	back.openPanic = false
	if _, err := c.CreateSession(testSessionConfig()); err != nil {
		t.Fatalf("valid create after panicking ones: %v", err)
	}
}

// TestQuotaAdmission pins the 429 family: per-tenant session quota,
// per-tenant in-flight budget, global session cap — and that the
// rejection counter advances.
func TestQuotaAdmission(t *testing.T) {
	observer := obs.New(0)
	cfg := Config{
		MaxSessions:            3,
		MaxSessionsPerTenant:   2,
		MaxInflightPerTenant:   4,
		SessionInflightDefault: 2,
		Observer:               observer,
	}
	s, c := newTestServer(t, cfg, nil)

	// Two sessions of inflight 2 fill tenant "test" exactly.
	a, err := c.CreateSession(testSessionConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateSession(testSessionConfig()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateSession(testSessionConfig()); !isHTTP(err, 429) {
		t.Fatalf("third session of a 2-quota tenant: %v, want 429", err)
	}

	// A second tenant is admitted (quotas are per tenant)...
	c2 := &Client{Base: c.Base, Tenant: "other", HTTP: c.HTTP}
	if _, err := c2.CreateSession(testSessionConfig()); err != nil {
		t.Fatal(err)
	}
	// ...but the global cap of 3 now rejects anyone.
	c3 := &Client{Base: c.Base, Tenant: "third", HTTP: c.HTTP}
	if _, err := c3.CreateSession(testSessionConfig()); !isHTTP(err, 429) {
		t.Fatalf("session over the global cap: %v, want 429", err)
	}

	// Freeing one tenant slot also frees its in-flight budget; a
	// session asking for more than the remaining budget is rejected.
	if err := c.Delete(a.SessionID); err != nil {
		t.Fatal(err)
	}
	big := testSessionConfig()
	big.MaxInflightChunks = 3 // 2 reserved + 3 > 4
	if _, err := c.CreateSession(big); !isHTTP(err, 429) {
		t.Fatalf("session over the in-flight budget: %v, want 429", err)
	}
	big.MaxInflightChunks = 2
	if _, err := c.CreateSession(big); err != nil {
		t.Fatalf("session within the freed budget: %v", err)
	}
	if got := s.TenantInflight("test"); got != 4 {
		t.Fatalf("tenant inflight %d, want 4", got)
	}
	if got := metricValue(t, observer.Metrics.Snapshot(), MetricAdmissionRejected); got != 3 {
		t.Errorf("rejection counter %v, want 3", got)
	}
}

// TestInflightDefaultResolution: a session that requests no in-flight
// bound is pinned to the server's default, so it still consumes a
// finite share of the tenant budget.
func TestInflightDefaultResolution(t *testing.T) {
	_, c := newTestServer(t, Config{SessionInflightDefault: 3}, nil)
	cfg := testSessionConfig()
	cfg.MaxInflightChunks = 0
	info, err := c.CreateSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if info.MaxInflightChunks != 3 {
		t.Fatalf("resolved inflight bound %d, want the server default 3", info.MaxInflightChunks)
	}
}

// TestCheckpointRequiresRoot: checkpoint sessions are rejected when
// the server has no checkpoint root (clients never pick paths).
func TestCheckpointRequiresRoot(t *testing.T) {
	_, c := newTestServer(t, Config{}, nil)
	cfg := testSessionConfig()
	cfg.Checkpoint = true
	if _, err := c.CreateSession(cfg); !isHTTP(err, 400) {
		t.Fatalf("checkpoint without a root: %v, want 400", err)
	}
}

// TestCheckpointDirRemovedWithDoneSession: deleting a finalized
// checkpointing session removes its checkpoint directory, while a
// session a drain cancels mid-pass keeps its snapshot for resume.
func TestCheckpointDirRemovedWithDoneSession(t *testing.T) {
	cfg := testSessionConfig()
	cfg.Checkpoint = true
	root := t.TempDir()
	_, c := newTestServer(t, Config{CheckpointRoot: root}, nil)
	info, err := c.CreateSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Finalize(info.SessionID); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(info.SessionID); err != nil {
		t.Fatal(err)
	}
	if entries, _ := os.ReadDir(root); len(entries) != 0 {
		t.Fatalf("deleted done session left %v under the checkpoint root", entries)
	}

	root = t.TempDir()
	back := &fakeBackend{nb: 3, nt: 4, nc: 2, blockRun: true}
	s, c := newTestServer(t, Config{CheckpointRoot: root, DrainTimeout: 10 * time.Millisecond}, back)
	info, err = c.CreateSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	go c.Finalize(info.SessionID) // blocks until the drain cancels it
	waitFor(t, func() bool {
		s.mu.Lock()
		sess := s.sessions[info.SessionID]
		s.mu.Unlock()
		return sess != nil && sess.currentState() == StateFinalizing
	})
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, info.SessionID, "snapshot")); err != nil {
		t.Fatalf("canceled session lost its snapshot: %v", err)
	}
}

// TestOpenFailureReleasesAdmission: a failed backend open must return
// the reserved quota, or failed opens would leak tenant budget.
func TestOpenFailureReleasesAdmission(t *testing.T) {
	back := &fakeBackend{nb: 3, nt: 4, nc: 2, openErr: errors.New("no plan for you")}
	s, c := newTestServer(t, Config{}, back)
	if _, err := c.CreateSession(testSessionConfig()); !isHTTP(err, 400) {
		t.Fatalf("failed open: %v, want 400", err)
	}
	if got := s.ActiveSessions(); got != 0 {
		t.Fatalf("%d sessions after failed open", got)
	}
	if got := s.TenantInflight("test"); got != 0 {
		t.Fatalf("tenant inflight %d after failed open, want 0", got)
	}
}

// TestBackendPanicIsolation: a panicking backend fails its session as
// ErrKernelPanic; the server keeps serving and the session reports
// failed.
func TestBackendPanicIsolation(t *testing.T) {
	back := &fakeBackend{nb: 3, nt: 4, nc: 2, runPanic: true}
	s, c := newTestServer(t, Config{}, back)
	info, err := c.CreateSession(testSessionConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Finalize(info.SessionID)
	if !isHTTP(err, 500) || !strings.Contains(err.Error(), faulttol.ErrKernelPanic.Error()) {
		t.Fatalf("panicking finalize: %v, want a 500 carrying ErrKernelPanic", err)
	}
	// The server survived: a fresh session on the same server works
	// once the backend behaves.
	back.runPanic = false
	info2, err := c.CreateSession(testSessionConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Finalize(info2.SessionID); err != nil {
		t.Fatalf("finalize after a panic-failed session: %v", err)
	}
	if got := s.ActiveSessions(); got != 2 {
		t.Fatalf("%d sessions registered (failed sessions stay until deleted)", got)
	}
}

// TestIdleExpiry: sessions untouched past the idle timeout are swept;
// a finalizing session never is.
func TestIdleExpiry(t *testing.T) {
	observer := obs.New(0)
	// A generous timeout: the sweeps below pass explicit clocks, and a
	// short timeout would let a loaded test machine age the "fresh"
	// session past it for real.
	s, c := newTestServer(t, Config{IdleTimeout: time.Minute, Observer: observer}, nil)
	info, err := c.CreateSession(testSessionConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Not yet idle.
	if n := s.sweepIdle(time.Now()); n != 0 {
		t.Fatalf("swept %d fresh sessions", n)
	}
	// Pretend the deadline passed.
	if n := s.sweepIdle(time.Now().Add(2 * time.Minute)); n != 1 {
		t.Fatalf("swept %d sessions past the deadline, want 1", n)
	}
	if got := s.ActiveSessions(); got != 0 {
		t.Fatalf("%d sessions after expiry", got)
	}
	if _, err := c.Finalize(info.SessionID); !isHTTP(err, 404) {
		t.Fatalf("finalize of an expired session: %v, want 404", err)
	}
	if got := metricValue(t, observer.Metrics.Snapshot(), MetricSessionsExpired); got != 1 {
		t.Errorf("expired counter %v, want 1", got)
	}

	// A finalizing session is not expirable no matter how stale.
	back := &fakeBackend{nb: 1, nt: 1, nc: 1, blockRun: true}
	s2, c2 := newTestServer(t, Config{IdleTimeout: 50 * time.Millisecond}, back)
	info2, err := c2.CreateSession(testSessionConfig())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		c2.Finalize(info2.SessionID) // blocks until drain cancels it
	}()
	waitFor(t, func() bool {
		s2.mu.Lock()
		sess := s2.sessions[info2.SessionID]
		s2.mu.Unlock()
		return sess != nil && sess.currentState() == StateFinalizing
	})
	if n := s2.sweepIdle(time.Now().Add(time.Hour)); n != 0 {
		t.Fatalf("swept %d finalizing sessions, want 0", n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s2.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	<-done
	if got := s2.ActiveSessions(); got != 0 {
		t.Fatalf("%d sessions after drain", got)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDrain pins the drain contract: admissions answer 503, terminal
// sessions are released, a blocked finalize is canceled at the
// deadline, and the registry is empty on return.
func TestDrain(t *testing.T) {
	observer := obs.New(0)
	back := &fakeBackend{nb: 3, nt: 4, nc: 2, blockRun: true}
	s, c := newTestServer(t, Config{DrainTimeout: 100 * time.Millisecond, Observer: observer}, back)

	// One session stuck in finalize, one still streaming.
	stuck, err := c.CreateSession(testSessionConfig())
	if err != nil {
		t.Fatal(err)
	}
	idle, err := c.CreateSession(testSessionConfig())
	if err != nil {
		t.Fatal(err)
	}
	_ = idle
	finDone := make(chan error, 1)
	go func() {
		_, err := c.Finalize(stuck.SessionID)
		finDone <- err
	}()
	waitFor(t, func() bool {
		s.mu.Lock()
		sess := s.sessions[stuck.SessionID]
		s.mu.Unlock()
		return sess != nil && sess.currentState() == StateFinalizing
	})

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()

	// While draining, creates answer 503.
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.draining
	})
	if _, err := c.CreateSession(testSessionConfig()); !isHTTP(err, 503) {
		t.Fatalf("create while draining: %v, want 503", err)
	}

	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	if err := <-finDone; err == nil {
		t.Fatal("blocked finalize returned success after drain canceled it")
	}
	if got := s.ActiveSessions(); got != 0 {
		t.Fatalf("%d sessions survived the drain, want 0", got)
	}
	snap := observer.Metrics.Snapshot()
	if got := metricValue(t, snap, MetricSessionsDrained); got != 2 {
		t.Errorf("drained counter %v, want 2", got)
	}
	if got := metricValue(t, snap, GaugeInflightChunks); got != 0 {
		t.Errorf("inflight gauge %v after drain, want 0", got)
	}
}

// TestDrainReleasesTerminalSessions: sessions already done when the
// drain begins are released immediately, not canceled.
func TestDrainReleasesTerminalSessions(t *testing.T) {
	s, c := newTestServer(t, Config{DrainTimeout: 5 * time.Second}, nil)
	info, err := c.CreateSession(testSessionConfig())
	if err != nil {
		t.Fatal(err)
	}
	streamAll(t, c, info.SessionID, 3, 4, 2)
	if _, err := c.Finalize(info.SessionID); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d > time.Second {
		t.Fatalf("drain of a terminal-only registry took %v", d)
	}
	if got := s.ActiveSessions(); got != 0 {
		t.Fatalf("%d sessions after drain", got)
	}
}

// TestHealthAndMetricsEndpoints smoke-tests the operational surface.
func TestHealthAndMetricsEndpoints(t *testing.T) {
	observer := obs.New(0)
	_, c := newTestServer(t, Config{Observer: observer}, nil)
	resp, err := c.HTTP.Get(c.Base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", resp.StatusCode)
	}
	resp, err = c.HTTP.Get(c.Base + "/v1/metricz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metricz: HTTP %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), MetricSessionsCreated) {
		t.Fatalf("metricz body %q lacks the session counters", body)
	}

	// Without an observer the metrics endpoint 404s.
	_, c2 := newTestServer(t, Config{}, nil)
	resp, err = c2.HTTP.Get(c2.Base + "/v1/metricz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("metricz without observer: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestStartServeDrain exercises the real listener path (Start, Addr,
// janitor) rather than httptest.
func TestStartServeDrain(t *testing.T) {
	back := &fakeBackend{nb: 3, nt: 4, nc: 2}
	s, err := New(Config{Addr: "127.0.0.1:0", IdleTimeout: 20 * time.Millisecond}, back)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	addr := s.Addr()
	if addr == "" {
		t.Fatal("no bound address after Start")
	}
	c := &Client{Base: "http://" + addr, Tenant: "test"}
	info, err := c.CreateSession(testSessionConfig())
	if err != nil {
		t.Fatal(err)
	}
	_ = info
	// The janitor expires the untouched session on its own.
	waitFor(t, func() bool { return s.ActiveSessions() == 0 })
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The listener is down after drain.
	if _, err := c.CreateSession(testSessionConfig()); err == nil {
		t.Fatal("create succeeded after drain closed the listener")
	}
}
