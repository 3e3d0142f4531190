package repro

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/grid"
	"repro/internal/server"
	"repro/internal/uvwsim"
)

// Gridding-as-a-service: the facade side of internal/server. The
// server package owns sessions, quotas and the wire protocol but never
// imports the facade; ServerBackend is the adapter that turns its
// session configs into Observations and its streamed bytes into
// gridding passes.

// Server re-exports, so operators embedding the service configure it
// without importing internal packages.
type (
	// GridServer is the multi-tenant streaming gridding server.
	GridServer = server.Server
	// GridServerConfig configures it (quotas, timeouts, wire caps).
	GridServerConfig = server.Config
	// GridSessionConfig is the wire-facing observation config clients
	// open sessions with.
	GridSessionConfig = server.SessionConfig
	// GridServerClient drives the server's HTTP API.
	GridServerClient = server.Client
	// GridSessionResult is a finalized session's grid fingerprint.
	GridSessionResult = server.Result
)

// ErrInvalidServerConfig marks server configuration rejections
// (the server-side analogue of ErrInvalidConfig).
var ErrInvalidServerConfig = server.ErrInvalidConfig

// NewGridServer validates cfg and builds a server gridding through
// the facade backend.
func NewGridServer(cfg GridServerConfig, backend *ServerBackend) (*GridServer, error) {
	if backend == nil {
		backend = &ServerBackend{}
	}
	return server.New(cfg, backend)
}

// GridFingerprint pins the exact bits of a grid: the SHA-256 of its
// little-endian complex128 bytes (correlation-plane-major, real then
// imaginary per cell) plus human-readable diagnostics for diagnosing a
// mismatch. It is the conformance currency of the repository: the
// golden tests, the server's session results and WriteGridBinary all
// speak this byte order.
type GridFingerprint struct {
	SHA256   string  `json:"sha256"`
	GridSize int     `json:"grid_size"`
	SumAbs   float64 `json:"sum_abs"`
	PeakAbs  float64 `json:"peak_abs"`
	Nonzero  int     `json:"nonzero"`
}

// FingerprintGrid hashes and summarizes a grid.
func FingerprintGrid(g *Grid) GridFingerprint {
	h := sha256.New()
	var buf [16]byte
	sum, peak := 0.0, 0.0
	nonzero := 0
	for c := 0; c < grid.NrCorrelations; c++ {
		for _, v := range g.Data[c] {
			binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(real(v)))
			binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(imag(v)))
			h.Write(buf[:])
			a := math.Hypot(real(v), imag(v))
			sum += a
			if a > peak {
				peak = a
			}
			if v != 0 {
				nonzero++
			}
		}
	}
	return GridFingerprint{
		SHA256:   hex.EncodeToString(h.Sum(nil)),
		GridSize: g.N,
		SumAbs:   sum,
		PeakAbs:  peak,
		Nonzero:  nonzero,
	}
}

// WriteGridBinary streams a grid in the fingerprint byte order, so
// hashing the written bytes reproduces FingerprintGrid(g).SHA256.
func WriteGridBinary(w io.Writer, g *Grid) error {
	for c := 0; c < grid.NrCorrelations; c++ {
		if err := binary.Write(w, binary.LittleEndian, g.Data[c]); err != nil {
			return err
		}
	}
	return nil
}

// planCacheEntry holds the expensive, immutable-after-build parts of
// an observation: station layout, uvw simulator, execution plan and
// the derived image size. Kernels and visibility storage are per
// session (kernels carry per-run knobs like shards and observers;
// visibilities are the session's mutable data).
type planCacheEntry struct {
	stations  []Station
	sim       *uvwsim.Simulator
	plan      *Plan
	imageSize float64
}

// The plan cache follows the FFT plan cache pattern: read-mostly
// lookups under an RWMutex, plans built outside any lock, first
// stored entry wins so concurrent sessions of the same configuration
// share one plan.
var (
	planCacheMu sync.RWMutex
	planCache   = make(map[string]*planCacheEntry)

	planCacheHits, planCacheMisses atomic.Int64
)

// ServerPlanCacheStats reports cumulative plan-cache hits and misses
// (tests pin that repeated configurations stop paying for plan
// builds).
func ServerPlanCacheStats() (hits, misses int64) {
	return planCacheHits.Load(), planCacheMisses.Load()
}

// resetServerPlanCache clears the cache and its counters (test seam).
func resetServerPlanCache() {
	planCacheMu.Lock()
	planCache = make(map[string]*planCacheEntry)
	planCacheMu.Unlock()
	planCacheHits.Store(0)
	planCacheMisses.Store(0)
}

// planKey fingerprints every field that shapes the plan. Workers is
// included defensively: the parallel plan builder is deterministic,
// but sharing across worker counts buys little and costs an invariant.
func planKey(c ObservationConfig) string {
	return fmt.Sprintf("s%d.t%d.c%d.f%g.w%g.g%d.sg%d.k%d.m%d.a%d.mts%d.ws%g.core%t.ha%g.wk%d",
		c.NrStations, c.NrTimesteps, c.NrChannels, c.StartFrequency, c.ChannelWidth,
		c.GridSize, c.SubgridSize, c.KernelSupport, c.GridMargin, c.ATermInterval,
		c.MaxTimestepsPerSubgrid, c.WStepLambda, c.CoreOnly, c.HourAngleStartDeg, c.Workers)
}

// ServerBackend implements the server's gridding backend on the
// facade: session configs become Observations (through the read-mostly
// plan cache), streamed wire samples fill their visibilities, and
// finalize runs the gridding pass — checkpointing when the session
// opted in.
type ServerBackend struct {
	// Fault is the per-item failure policy of session gridding passes
	// (zero value: fail fast). The soak suite injects chaos hooks here.
	Fault FaultConfig
	// Observer, when set, receives every session's pipeline metrics
	// and spans in addition to the server's own session metrics.
	Observer *Observer
	// DisablePlanCache builds every session from scratch (ablation and
	// equivalence-test seam).
	DisablePlanCache bool
}

// observationConfig maps a wire session config onto the facade config.
func (b *ServerBackend) observationConfig(cfg server.SessionConfig) ObservationConfig {
	return ObservationConfig{
		NrStations:        cfg.NrStations,
		NrTimesteps:       cfg.NrTimesteps,
		NrChannels:        cfg.NrChannels,
		StartFrequency:    cfg.StartFrequency,
		ChannelWidth:      cfg.ChannelWidth,
		GridSize:          cfg.GridSize,
		SubgridSize:       cfg.SubgridSize,
		KernelSupport:     cfg.KernelSupport,
		GridMargin:        cfg.GridMargin,
		ATermInterval:     cfg.ATermInterval,
		Workers:           cfg.Workers,
		GridShards:        cfg.GridShards,
		MaxInflightChunks: cfg.MaxInflightChunks,
		CheckpointDir:     cfg.CheckpointDir,
		CheckpointEvery:   cfg.CheckpointEvery,
		Observer:          b.Observer,
	}
}

// Open builds a session: plan and simulator from the cache (or a
// fresh build that populates it), fresh kernels carrying the session's
// streaming and checkpoint knobs, and zeroed visibility storage.
func (b *ServerBackend) Open(cfg server.SessionConfig) (server.BackendSession, error) {
	oc := b.observationConfig(cfg)
	o, err := b.buildObservation(oc)
	if err != nil {
		return nil, err
	}
	if err := o.AllocateVisibilities(); err != nil {
		return nil, err
	}
	return &backendSession{o: o, ft: b.Fault}, nil
}

func (b *ServerBackend) buildObservation(oc ObservationConfig) (*Observation, error) {
	if b.DisablePlanCache {
		return oc.BuildPlan()
	}
	key := planKey(oc)
	planCacheMu.RLock()
	e := planCache[key]
	planCacheMu.RUnlock()
	if e == nil {
		planCacheMisses.Add(1)
		full, err := oc.BuildPlan()
		if err != nil {
			return nil, err
		}
		fresh := &planCacheEntry{
			stations: full.Stations, sim: full.Simulator,
			plan: full.Plan, imageSize: full.ImageSize,
		}
		planCacheMu.Lock()
		if won, ok := planCache[key]; ok {
			e = won
		} else {
			planCache[key] = fresh
			e = fresh
		}
		planCacheMu.Unlock()
	} else {
		planCacheHits.Add(1)
	}
	// Per-session kernels: they carry the session's shards, in-flight
	// bound, checkpoint directory and observer, and their scratch
	// pools must not be shared across concurrently gridding sessions
	// of different knob sets.
	k, err := NewKernels(Params{
		GridSize:          oc.GridSize,
		SubgridSize:       oc.SubgridSize,
		ImageSize:         e.imageSize,
		Frequencies:       oc.Frequencies(),
		Workers:           oc.Workers,
		Precision:         oc.Precision,
		GridShards:        oc.GridShards,
		MaxInflightChunks: oc.MaxInflightChunks,
		CheckpointDir:     oc.CheckpointDir,
		CheckpointEvery:   oc.CheckpointEvery,
		Observer:          oc.Observer,
	})
	if err != nil {
		return nil, err
	}
	return &Observation{
		Config:    oc,
		Stations:  e.stations,
		Simulator: e.sim,
		Plan:      e.plan,
		Kernels:   k,
		ImageSize: e.imageSize,
	}, nil
}

// backendSession adapts one Observation to the server's session
// interface.
type backendSession struct {
	o  *Observation
	ft FaultConfig

	mu   sync.Mutex
	grid *Grid
}

// Dims returns the observation dimensions.
func (s *backendSession) Dims() (nrBaselines, nrTimesteps, nrChannels int) {
	return len(s.o.Vis.Data), s.o.Vis.NrTimesteps, s.o.Vis.NrChannels
}

// SetVisibilities stores wire samples (8 float32 per visibility,
// dataio correlation order) into the observation.
func (s *backendSession) SetVisibilities(baseline, sampleOffset int, samples []float32) error {
	if len(samples)%8 != 0 {
		return fmt.Errorf("repro: %d floats is not a whole number of visibilities", len(samples))
	}
	vs := s.o.Vis
	if baseline < 0 || baseline >= len(vs.Data) {
		return fmt.Errorf("repro: baseline %d outside [0, %d)", baseline, len(vs.Data))
	}
	n := len(samples) / 8
	data := vs.Data[baseline]
	if sampleOffset < 0 || sampleOffset+n > len(data) {
		return fmt.Errorf("repro: samples [%d, %d) outside the baseline's %d samples",
			sampleOffset, sampleOffset+n, len(data))
	}
	for i := 0; i < n; i++ {
		var m Matrix2
		for p := 0; p < 4; p++ {
			m[p] = complex(float64(samples[8*i+2*p]), float64(samples[8*i+2*p+1]))
		}
		data[sampleOffset+i] = m
	}
	return nil
}

// Run executes the gridding pass and fingerprints the grid.
func (s *backendSession) Run(ctx context.Context) (*server.Result, error) {
	g, _, rep, err := s.o.gridPass(ctx, nil, s.ft, false)
	if err != nil {
		return nil, err
	}
	fp := FingerprintGrid(g)
	s.mu.Lock()
	s.grid = g
	s.mu.Unlock()
	res := &server.Result{
		GridSize: fp.GridSize,
		SHA256:   fp.SHA256,
		SumAbs:   fp.SumAbs,
		PeakAbs:  fp.PeakAbs,
		Nonzero:  fp.Nonzero,
	}
	if rep != nil {
		res.Notes = append(res.Notes, rep.Notes...)
		if rep.Degraded() {
			res.Notes = append(res.Notes, rep.String())
		}
	}
	return res, nil
}

// WriteGrid streams the finished grid in fingerprint byte order.
func (s *backendSession) WriteGrid(w io.Writer) error {
	s.mu.Lock()
	g := s.grid
	s.mu.Unlock()
	if g == nil {
		return fmt.Errorf("repro: session has no finished grid")
	}
	return WriteGridBinary(w, g)
}
