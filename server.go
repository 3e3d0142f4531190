package repro

import (
	"bytes"
	"context"
	"encoding/hex"
	"fmt"
	"io"
	"sync"

	"repro/internal/grid"
	"repro/internal/server"
)

// Gridding-as-a-service: the facade side of internal/server. The
// server package owns sessions, quotas and the wire protocol but never
// imports the facade; ServerBackend is the adapter that turns its
// session configs into Observations and its streamed bytes into
// gridding passes.

type (
	// GridServer is the multi-tenant streaming gridding server.
	GridServer = server.Server
	// GridServerConfig configures it (quotas, timeouts, wire caps).
	GridServerConfig = server.Config
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
// stream (grid.WriteStream: correlation-plane-major, each cell that is
// not all-zero bits after the count of zero cells since the previous
// one, as little-endian float64 real then imaginary) plus diagnostics
// for a mismatch, and the stream's length. It is the conformance currency
// of the repository: the golden tests, the server's session results
// and WriteGridBinary all speak this stream.
type GridFingerprint struct {
	SHA256    string  `json:"sha256"`
	GridSize  int     `json:"grid_size"`
	SumAbs    float64 `json:"sum_abs"`
	PeakAbs   float64 `json:"peak_abs"`
	Nonzero   int     `json:"nonzero"`
	GridBytes int64   `json:"grid_bytes"`
}

// FingerprintGrid hashes and summarizes a grid (grid.Fingerprint with
// the hash in hex) and measures its stream, in one pass.
func FingerprintGrid(g *Grid) GridFingerprint {
	fp, n, _ := grid.WriteStream(nil, g)
	return gridFingerprint(fp, n)
}

// gridFingerprint is fp with the hash in hex and n, its stream's length.
func gridFingerprint(fp grid.Fingerprint, n int64) GridFingerprint {
	return GridFingerprint{
		SHA256:    hex.EncodeToString(fp.SHA256[:]),
		GridSize:  fp.GridSize,
		SumAbs:    fp.SumAbs,
		PeakAbs:   fp.PeakAbs,
		Nonzero:   int(fp.Nonzero),
		GridBytes: n,
	}
}

// WriteGridBinary writes a grid's stream, so hashing the written bytes
// reproduces FingerprintGrid(g).SHA256 and their count its GridBytes.
func WriteGridBinary(w io.Writer, g *Grid) error {
	_, _, err := grid.WriteStream(w, g)
	return err
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

// Open builds a session: plan and simulator from the plan cache (or a
// fresh build that populates it), fresh kernels carrying the session's
// streaming and checkpoint knobs, and zeroed visibility storage.
func (b *ServerBackend) Open(cfg server.SessionConfig) (server.BackendSession, error) {
	oc := b.observationConfig(cfg)
	geo, err := oc.cachedGeometry(oc.Workers)
	if err != nil {
		return nil, err
	}
	// Per-session kernels: their scratch pools must not be shared across
	// concurrently gridding sessions of different knob sets.
	o, err := newObservation(oc, geo)
	if err != nil {
		return nil, err
	}
	if err := o.AllocateVisibilities(); err != nil {
		return nil, err
	}
	return &backendSession{o: o, ft: b.Fault}, nil
}

// backendSession adapts one Observation to the server's session
// interface.
type backendSession struct {
	o  *Observation
	ft FaultConfig

	mu     sync.Mutex
	stream []byte // the finished grid's stream, written as Run hashed it
}

// Dims returns the observation dimensions.
func (s *backendSession) Dims() (nrBaselines, nrTimesteps, nrChannels int) {
	return len(s.o.Vis.Data), s.o.Vis.NrTimesteps, s.o.Vis.NrChannels
}

// SetVisibilities stores wire samples (8 float32 per visibility: re, im
// of each correlation in Matrix2 order) into the observation.
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

// Run executes the gridding pass, fingerprints the grid and keeps its
// stream, written in the same pass, for the download; the grid itself
// is dropped.
func (s *backendSession) Run(ctx context.Context) (*server.Result, error) {
	g, _, rep, err := s.o.gridPass(ctx, nil, s.ft, false)
	if err != nil {
		return nil, err
	}
	var stream bytes.Buffer
	sum, n, _ := grid.WriteStream(&stream, g) // a bytes.Buffer does not fail
	fp := gridFingerprint(sum, n)
	s.mu.Lock()
	s.stream = stream.Bytes()
	s.mu.Unlock()
	res := &server.Result{
		GridSize:  fp.GridSize,
		SHA256:    fp.SHA256,
		SumAbs:    fp.SumAbs,
		PeakAbs:   fp.PeakAbs,
		Nonzero:   fp.Nonzero,
		GridBytes: fp.GridBytes,
	}
	if rep != nil {
		res.Notes = append(res.Notes, rep.Notes...)
		if rep.Degraded() {
			res.Notes = append(res.Notes, rep.String())
		}
	}
	return res, nil
}

// WriteGrid writes the finished grid's stream.
func (s *backendSession) WriteGrid(w io.Writer) error {
	s.mu.Lock()
	stream := s.stream
	s.mu.Unlock()
	if stream == nil {
		return fmt.Errorf("repro: session has no finished grid")
	}
	_, err := w.Write(stream)
	return err
}
