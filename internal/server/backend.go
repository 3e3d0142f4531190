package server

import (
	"context"
	"fmt"
	"io"
)

// SessionConfig is the observation configuration a client opens a
// session with. It is the wire-facing subset of the facade's
// ObservationConfig: geometry and dimensions plus the streaming knobs;
// durable-state locations are assigned by the server, never by the
// client.
type SessionConfig struct {
	NrStations     int     `json:"nr_stations"`
	NrTimesteps    int     `json:"nr_timesteps"`
	NrChannels     int     `json:"nr_channels"`
	StartFrequency float64 `json:"start_frequency"`
	ChannelWidth   float64 `json:"channel_width"`
	GridSize       int     `json:"grid_size"`
	SubgridSize    int     `json:"subgrid_size"`
	KernelSupport  int     `json:"kernel_support"`
	GridMargin     int     `json:"grid_margin"`
	ATermInterval  int     `json:"aterm_interval"`
	// Workers bounds the session's gridding parallelism (0: host
	// default; 1 makes the pass bit-reproducible).
	Workers int `json:"workers,omitempty"`
	// GridShards and MaxInflightChunks are the PR 5 streaming knobs. A
	// zero MaxInflightChunks is resolved to the server's
	// SessionInflightDefault at admission, so every session holds a
	// finite share of its tenant's in-flight budget.
	GridShards        int `json:"grid_shards,omitempty"`
	MaxInflightChunks int `json:"max_inflight_chunks,omitempty"`
	// Checkpoint opts the session into durable gridding checkpoints
	// (requires the server's CheckpointRoot); CheckpointEvery is the
	// period in streamed chunks (0: the scheduler default).
	Checkpoint      bool `json:"checkpoint,omitempty"`
	CheckpointEvery int  `json:"checkpoint_every,omitempty"`

	// CheckpointDir is assigned by the server under its CheckpointRoot
	// when Checkpoint is set; it is never decoded from the wire.
	CheckpointDir string `json:"-"`
}

// validate rejects obviously malformed session configs before the
// backend pays for a plan build; the backend's own validation remains
// authoritative.
func (c *SessionConfig) validate() error {
	switch {
	case c.NrStations < 2:
		return fmt.Errorf("nr_stations %d < 2", c.NrStations)
	case c.NrTimesteps < 1 || c.NrChannels < 1:
		return fmt.Errorf("empty observation %dx%d", c.NrTimesteps, c.NrChannels)
	case c.GridSize < 2 || c.SubgridSize < 1 || c.SubgridSize > c.GridSize:
		return fmt.Errorf("bad grid geometry %d/%d", c.GridSize, c.SubgridSize)
	case c.Workers < 0:
		return fmt.Errorf("negative workers %d", c.Workers)
	case c.GridShards < 0:
		return fmt.Errorf("negative grid_shards %d", c.GridShards)
	case c.MaxInflightChunks < 0:
		return fmt.Errorf("negative max_inflight_chunks %d", c.MaxInflightChunks)
	case c.CheckpointEvery < 0:
		return fmt.Errorf("negative checkpoint_every %d", c.CheckpointEvery)
	case c.CheckpointEvery > 0 && !c.Checkpoint:
		return fmt.Errorf("checkpoint_every set without checkpoint")
	}
	return nil
}

// Result is the outcome of a finalized session: the grid fingerprint
// (the same stream hash the conformance suite pins), the length of the
// grid stream WriteGrid sends, and degradation notes from the
// fault-tolerance report.
type Result struct {
	GridSize  int      `json:"grid_size"`
	SHA256    string   `json:"sha256"`
	SumAbs    float64  `json:"sum_abs"`
	PeakAbs   float64  `json:"peak_abs"`
	Nonzero   int      `json:"nonzero"`
	GridBytes int64    `json:"grid_bytes"`
	Notes     []string `json:"notes,omitempty"`
}

// Backend turns session configs into gridding sessions. The root
// package implements it on the facade (repro.ServerBackend); tests
// substitute fakes.
type Backend interface {
	// Open builds the session state (plan, kernels, visibility
	// storage) for a validated config. Errors are reported to the
	// client as a config rejection.
	Open(cfg SessionConfig) (BackendSession, error)
}

// BackendSession is one observation being streamed and gridded.
// The server serializes SetVisibilities calls per session (one stream
// request at a time) and calls Run at most once.
type BackendSession interface {
	// Dims returns the observation dimensions the wire data must
	// match.
	Dims() (nrBaselines, nrTimesteps, nrChannels int)
	// SetVisibilities stores one run of wire samples (8 float32 per
	// visibility: re, im of each correlation in Matrix2 order) at the
	// baseline's sample offset.
	SetVisibilities(baseline, sampleOffset int, samples []float32) error
	// Run executes the streamed gridding pass and fingerprints the
	// resulting grid. A canceled context aborts it with the library's
	// usual cancellation semantics (checkpointing sessions keep their
	// last durable snapshot).
	Run(ctx context.Context) (*Result, error)
	// WriteGrid writes the finished grid's stream: the Result.GridBytes
	// bytes its SHA-256 is computed over. It fails before a successful
	// Run.
	WriteGrid(w io.Writer) error
}
