package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/faulttol"
	"repro/internal/frame"
	"repro/internal/obs"
)

// Server metric names (registered in Config.Observer when set).
const (
	MetricSessionsCreated   = "server_sessions_created_total"
	MetricSessionsDone      = "server_sessions_done_total"
	MetricSessionsFailed    = "server_sessions_failed_total"
	MetricSessionsExpired   = "server_sessions_expired_total"
	MetricSessionsDeleted   = "server_sessions_deleted_total"
	MetricSessionsDrained   = "server_sessions_drained_total"
	MetricAdmissionRejected = "server_admission_rejected_total"
	MetricStreamFrames      = "server_stream_frames_total"
	MetricStreamBytes       = "server_stream_bytes_total"
	// GaugeSessionsActive is the number of currently registered
	// sessions; GaugeInflightChunks the reserved in-flight chunk
	// budget across them; GaugeInflightChunksPeak its high-water mark
	// since startup (the soak suite checks this never exceeds the sum
	// of tenant budgets).
	GaugeSessionsActive     = "server_sessions_active"
	GaugeInflightChunks     = "server_inflight_chunks"
	GaugeInflightChunksPeak = "server_inflight_chunks_peak"
	// HistSessionSeconds is the create-to-finalize latency
	// distribution.
	HistSessionSeconds = "server_session_seconds"
)

// TenantInflightPeakGauge names the per-tenant high-water mark of
// reserved in-flight chunks.
func TenantInflightPeakGauge(tenant string) string {
	return "server_tenant_inflight_chunks_peak:" + tenant
}

// serverObs holds pre-resolved nil-safe metric handles (the kernelObs
// pattern: a nil observer costs one branch per event).
type serverObs struct {
	created, done, failed, expired, deleted, drained, rejected *obs.Counter
	frames, bytes                                              *obs.Counter
	active, inflight, inflightPeak                             *obs.Gauge
	sessionSeconds                                             *obs.Histogram
	reg                                                        *obs.Registry
}

func newServerObs(o *obs.Observer) serverObs {
	var so serverObs
	if o == nil || o.Metrics == nil {
		return so
	}
	r := o.Metrics
	so.reg = r
	so.created = r.Counter(MetricSessionsCreated)
	so.done = r.Counter(MetricSessionsDone)
	so.failed = r.Counter(MetricSessionsFailed)
	so.expired = r.Counter(MetricSessionsExpired)
	so.deleted = r.Counter(MetricSessionsDeleted)
	so.drained = r.Counter(MetricSessionsDrained)
	so.rejected = r.Counter(MetricAdmissionRejected)
	so.frames = r.Counter(MetricStreamFrames)
	so.bytes = r.Counter(MetricStreamBytes)
	so.active = r.Gauge(GaugeSessionsActive)
	so.inflight = r.Gauge(GaugeInflightChunks)
	so.inflightPeak = r.Gauge(GaugeInflightChunksPeak)
	so.sessionSeconds, _ = r.Histogram(HistSessionSeconds, obs.DurationBuckets)
	return so
}

// tenantState is one tenant's admission accounting.
type tenantState struct {
	sessions     int
	inflight     int
	inflightPeak int
	peakGauge    *obs.Gauge
}

// Server is the multi-tenant gridding service.
type Server struct {
	cfg  Config
	back Backend
	ob   serverObs

	mu           sync.Mutex
	sessions     map[string]*session
	tenants      map[string]*tenantState
	draining     bool
	inflight     int
	inflightPeak int
	seq          uint64

	ln   net.Listener
	hsrv *http.Server
	// janitorStop stops the idle sweeper started by Start.
	janitorStop chan struct{}
}

// New validates the config and builds a server around the backend.
func New(cfg Config, back Backend) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if back == nil {
		return nil, &ConfigError{Field: "Backend", Reason: "nil gridding backend"}
	}
	return &Server{
		cfg:      cfg,
		back:     back,
		ob:       newServerObs(cfg.Observer),
		sessions: make(map[string]*session),
		tenants:  make(map[string]*tenantState),
	}, nil
}

// Handler returns the HTTP API. Endpoints (all under /v1):
//
//	POST   /v1/sessions            open a session (JSON SessionConfig; X-Tenant header)
//	POST   /v1/sessions/{id}/chunks stream visibility frames (binary wire format)
//	POST   /v1/sessions/{id}/finalize run the gridding pass, return the Result
//	GET    /v1/sessions/{id}       session state
//	GET    /v1/sessions/{id}/grid  the finished grid (binary, LE complex128)
//	DELETE /v1/sessions/{id}       abort/release the session
//	GET    /v1/healthz             liveness + drain state
//	GET    /v1/metricz             metrics snapshot (JSON; 404 without an Observer)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", s.handleCreate)
	mux.HandleFunc("POST /v1/sessions/{id}/chunks", s.handleStream)
	mux.HandleFunc("POST /v1/sessions/{id}/finalize", s.handleFinalize)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/sessions/{id}/grid", s.handleGrid)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDelete)
	mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/metricz", s.handleMetrics)
	return mux
}

// httpError writes a JSON error body.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// tenantOf resolves the request's tenant (the X-Tenant header;
// "default" when absent).
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return "default"
}

// createResponse answers a session open.
type createResponse struct {
	SessionID         string `json:"session_id"`
	NrBaselines       int    `json:"nr_baselines"`
	NrTimesteps       int    `json:"nr_timesteps"`
	NrChannels        int    `json:"nr_channels"`
	MaxInflightChunks int    `json:"max_inflight_chunks"`
}

// statusResponse answers a session status poll.
type statusResponse struct {
	SessionID string  `json:"session_id"`
	Tenant    string  `json:"tenant"`
	State     State   `json:"state"`
	Result    *Result `json:"result,omitempty"`
	Error     string  `json:"error,omitempty"`
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	tenant := tenantOf(r)
	var cfg SessionConfig
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&cfg); err != nil {
		httpError(w, http.StatusBadRequest, "decoding session config: %v", err)
		return
	}
	if err := cfg.validate(); err != nil {
		httpError(w, http.StatusBadRequest, "invalid session config: %v", err)
		return
	}
	if cfg.Checkpoint && s.cfg.CheckpointRoot == "" {
		httpError(w, http.StatusBadRequest, "checkpoint requested but the server has no checkpoint root")
		return
	}
	if cfg.MaxInflightChunks == 0 {
		cfg.MaxInflightChunks = s.cfg.sessionInflightDefault()
	}

	// Admission: reserve registry and budget slots under the lock, then
	// pay for the (possibly slow) backend open outside it.
	id, err := s.admit(tenant, cfg.MaxInflightChunks)
	if err != nil {
		var full *admissionError
		code := http.StatusTooManyRequests
		if errors.As(err, &full) && full.drain {
			code = http.StatusServiceUnavailable
		}
		s.ob.rejected.Inc()
		httpError(w, code, "%v", err)
		return
	}
	if cfg.Checkpoint {
		cfg.CheckpointDir = filepath.Join(s.cfg.CheckpointRoot, id)
	}
	back, err := openBackend(s.back, cfg)
	if err != nil {
		s.release(tenant, cfg.MaxInflightChunks, id, nil)
		code := http.StatusBadRequest
		if errors.Is(err, faulttol.ErrKernelPanic) {
			code = http.StatusInternalServerError
		}
		httpError(w, code, "opening session: %v", err)
		return
	}
	now := time.Now()
	sess := &session{
		id: id, tenant: tenant, cfg: cfg, inflight: cfg.MaxInflightChunks,
		back: back, created: now, state: StateStreaming, lastTouch: now,
	}
	s.mu.Lock()
	s.sessions[id] = sess
	s.mu.Unlock()
	s.ob.created.Inc()

	nb, nt, nc := back.Dims()
	writeJSON(w, http.StatusCreated, createResponse{
		SessionID: id, NrBaselines: nb, NrTimesteps: nt, NrChannels: nc,
		MaxInflightChunks: cfg.MaxInflightChunks,
	})
}

// admissionError is a quota or drain rejection.
type admissionError struct {
	msg   string
	drain bool
}

func (e *admissionError) Error() string { return e.msg }

// admit reserves a session slot and inflight budget, returning the new
// session ID. The reservation is released by release (open failure) or
// remove (session end).
func (s *Server) admit(tenant string, inflight int) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return "", &admissionError{msg: "server is draining, not admitting sessions", drain: true}
	}
	if len(s.sessions) >= s.cfg.maxSessions() {
		return "", &admissionError{msg: fmt.Sprintf("server at its %d-session capacity", s.cfg.maxSessions())}
	}
	t := s.tenants[tenant]
	if t == nil {
		t = &tenantState{}
		if s.ob.reg != nil {
			t.peakGauge = s.ob.reg.Gauge(TenantInflightPeakGauge(tenant))
		}
		s.tenants[tenant] = t
	}
	if t.sessions >= s.cfg.maxSessionsPerTenant() {
		return "", &admissionError{msg: fmt.Sprintf("tenant %q at its %d-session quota", tenant, s.cfg.maxSessionsPerTenant())}
	}
	if t.inflight+inflight > s.cfg.maxInflightPerTenant() {
		return "", &admissionError{msg: fmt.Sprintf(
			"tenant %q in-flight chunk budget exhausted: %d reserved + %d requested > %d",
			tenant, t.inflight, inflight, s.cfg.maxInflightPerTenant())}
	}
	t.sessions++
	t.inflight += inflight
	if t.inflight > t.inflightPeak {
		t.inflightPeak = t.inflight
		t.peakGauge.Set(float64(t.inflightPeak))
	}
	s.inflight += inflight
	if s.inflight > s.inflightPeak {
		s.inflightPeak = s.inflight
		s.ob.inflightPeak.Set(float64(s.inflightPeak))
	}
	s.ob.inflight.Set(float64(s.inflight))

	var b [8]byte
	rand.Read(b[:])
	s.seq++
	id := fmt.Sprintf("s%06d-%s", s.seq, hex.EncodeToString(b[:4]))
	s.ob.active.Set(float64(len(s.sessions) + 1)) // the caller registers id next
	return id, nil
}

// release undoes an admission whose backend open failed.
func (s *Server) release(tenant string, inflight int, id string, _ *session) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.releaseLocked(tenant, inflight)
	s.ob.active.Set(float64(len(s.sessions)))
}

func (s *Server) releaseLocked(tenant string, inflight int) {
	if t := s.tenants[tenant]; t != nil {
		t.sessions--
		t.inflight -= inflight
	}
	s.inflight -= inflight
	s.ob.inflight.Set(float64(s.inflight))
}

// remove unregisters a session and releases its reservation. A done
// session's checkpoint directory goes with it; a failed or canceled
// session keeps its snapshots for ResumeStreamed.
func (s *Server) remove(sess *session, reason removeReason) {
	sess.abort()
	s.mu.Lock()
	if _, ok := s.sessions[sess.id]; !ok {
		s.mu.Unlock()
		return
	}
	delete(s.sessions, sess.id)
	s.releaseLocked(sess.tenant, sess.inflight)
	s.ob.active.Set(float64(len(s.sessions)))
	s.mu.Unlock()
	if sess.cfg.CheckpointDir != "" && sess.currentState() == StateDone {
		_ = os.RemoveAll(sess.cfg.CheckpointDir) // best effort: a leftover costs disk, not results
	}
	switch reason {
	case removeDeleted:
		s.ob.deleted.Inc()
	case removeExpired:
		s.ob.expired.Inc()
	case removeDrained:
		s.ob.drained.Inc()
	}
}

func (s *Server) lookup(r *http.Request) (*session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[r.PathValue("id")]
	return sess, ok
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(r)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown session")
		return
	}
	if err := sess.beginStream(); err != nil {
		httpError(w, http.StatusConflict, "%v", err)
		return
	}
	defer sess.endStream()
	nb, nt, nc := sess.back.Dims()
	samplesPerBaseline := nt * nc

	var frames, samples int64
	counted := &countingReader{r: r.Body}
	for {
		f, err := frame.Read(counted, s.cfg.maxFrameBytes(), sessionRules, nil)
		if err == io.EOF {
			break
		}
		if err != nil {
			httpError(w, http.StatusBadRequest, "frame %d: %v", frames, err)
			return
		}
		if f.Type == FrameDone {
			break
		}
		c, err := DecodeVis(f)
		if err != nil {
			httpError(w, http.StatusBadRequest, "frame %d: %v", frames, err)
			return
		}
		if c.Baseline >= nb {
			httpError(w, http.StatusBadRequest, "frame %d: baseline %d outside the observation's %d baselines", frames, c.Baseline, nb)
			return
		}
		if c.SampleOffset+len(c.Samples)/8 > samplesPerBaseline {
			httpError(w, http.StatusBadRequest, "frame %d: samples [%d, %d) outside the baseline's %d samples",
				frames, c.SampleOffset, c.SampleOffset+len(c.Samples)/8, samplesPerBaseline)
			return
		}
		if err := applyVis(sess.back, c); err != nil {
			httpError(w, http.StatusBadRequest, "frame %d: %v", frames, err)
			return
		}
		frames++
		samples += int64(len(c.Samples) / 8)
		sess.touch(time.Now())
	}
	s.ob.frames.Add(frames)
	s.ob.bytes.Add(counted.n)
	writeJSON(w, http.StatusOK, map[string]int64{"frames": frames, "samples": samples})
}

// countingReader tallies wire bytes for the stream metrics.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (s *Server) handleFinalize(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(r)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown session")
		return
	}
	// The run is bounded by the request context (client disconnect
	// cancels it) and by the drain path through sess.abort.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	if err := sess.beginFinalize(cancel); err != nil {
		httpError(w, http.StatusConflict, "%v", err)
		return
	}
	res, err := runBackend(ctx, sess.back)
	sess.endFinalize(res, err, time.Now())
	s.ob.sessionSeconds.Observe(time.Since(sess.created).Seconds())
	if err != nil {
		s.ob.failed.Inc()
		httpError(w, http.StatusInternalServerError, "gridding failed: %v", err)
		return
	}
	s.ob.done.Inc()
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(r)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown session")
		return
	}
	sess.mu.Lock()
	resp := statusResponse{SessionID: sess.id, Tenant: sess.tenant, State: sess.state, Result: sess.res}
	if sess.runErr != nil {
		resp.Error = sess.runErr.Error()
	}
	sess.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleGrid(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(r)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown session")
		return
	}
	sess.mu.Lock()
	st, res := sess.state, sess.res
	sess.mu.Unlock()
	if st != StateDone {
		httpError(w, http.StatusConflict, "session is %s, the grid exists only after a successful finalize", st)
		return
	}
	sess.touch(time.Now())
	w.Header().Set("Content-Type", "application/octet-stream")
	// The declared length (four planes of N² complex128) makes a grid
	// that WriteGrid fails to finish a short body the client rejects,
	// where a chunked one would end cleanly.
	w.Header().Set("Content-Length", strconv.Itoa(4*res.GridSize*res.GridSize*16))
	if err := sess.back.WriteGrid(w); err != nil {
		// Headers are gone; the connection closes short of the length.
		return
	}
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(r)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown session")
		return
	}
	s.remove(sess, removeDeleted)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	resp := map[string]any{"status": "ok", "draining": s.draining, "active_sessions": len(s.sessions)}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.ob.reg == nil {
		httpError(w, http.StatusNotFound, "server runs without an observer")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	s.ob.reg.Snapshot().WriteJSON(w)
}

// ActiveSessions returns the number of registered sessions (the
// leak-check the drain and soak tests pin to zero).
func (s *Server) ActiveSessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// TenantInflight returns a tenant's currently reserved in-flight chunk
// budget.
func (s *Server) TenantInflight(tenant string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t := s.tenants[tenant]; t != nil {
		return t.inflight
	}
	return 0
}

// sweepIdle removes every session idle past the deadline.
func (s *Server) sweepIdle(now time.Time) int {
	deadline := now.Add(-s.cfg.idleTimeout())
	s.mu.Lock()
	var idle []*session
	for _, sess := range s.sessions {
		if sess.idleSince(deadline) {
			idle = append(idle, sess)
		}
	}
	s.mu.Unlock()
	for _, sess := range idle {
		s.remove(sess, removeExpired)
	}
	return len(idle)
}

// Start listens on the configured address and serves in the
// background; Addr reports the bound address. Use Serve for the
// blocking run-until-canceled form.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.addr())
	if err != nil {
		return err
	}
	s.ln = ln
	s.hsrv = &http.Server{Handler: s.Handler()}
	go s.hsrv.Serve(ln)
	stop := make(chan struct{})
	s.mu.Lock()
	s.janitorStop = stop
	s.mu.Unlock()
	go s.janitor(stop)
	return nil
}

// janitor periodically expires idle sessions until stop is closed.
func (s *Server) janitor(stop <-chan struct{}) {
	period := s.cfg.idleTimeout() / 4
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case now := <-t.C:
			s.sweepIdle(now)
		}
	}
}

// Addr returns the bound listen address after Start.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Serve runs until ctx is canceled, then drains.
func (s *Server) Serve(ctx context.Context) error {
	if err := s.Start(); err != nil {
		return err
	}
	<-ctx.Done()
	return s.Drain(context.Background())
}

// Drain gracefully shuts the server down: admissions stop immediately
// (creates answer 503), existing sessions keep streaming and may
// finalize within DrainTimeout — terminal (done/failed) sessions are
// released as they are seen — and whatever remains after the timeout
// is canceled (a checkpointing session keeps its last durable
// snapshot for ResumeStreamed) and removed. On return the registry is
// empty and the listener, if any, is closed.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	if s.janitorStop != nil {
		close(s.janitorStop)
		s.janitorStop = nil
	}
	s.mu.Unlock()

	deadline := time.NewTimer(s.cfg.drainTimeout())
	defer deadline.Stop()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
drain:
	for {
		// Release sessions that have reached a terminal state; their
		// results were delivered in the finalize response.
		s.mu.Lock()
		var terminal []*session
		n := len(s.sessions)
		for _, sess := range s.sessions {
			switch sess.currentState() {
			case StateDone, StateFailed:
				terminal = append(terminal, sess)
			}
		}
		s.mu.Unlock()
		for _, sess := range terminal {
			s.remove(sess, removeDrained)
		}
		if n == len(terminal) {
			break
		}
		select {
		case <-deadline.C:
			break drain
		case <-ctx.Done():
			break drain
		case <-tick.C:
		}
	}

	// Cancel and remove the stragglers: streaming sessions that never
	// finalized and finalizes still running at the deadline.
	s.mu.Lock()
	rest := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		rest = append(rest, sess)
	}
	s.mu.Unlock()
	for _, sess := range rest {
		s.remove(sess, removeDrained) // remove aborts any running finalize
	}

	if s.hsrv != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		return s.hsrv.Shutdown(sctx)
	}
	return nil
}
