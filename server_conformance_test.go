package repro

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/server"
)

// Server <-> library conformance, extending the golden-grid pattern
// across the network boundary: an observation streamed over the wire
// protocol into a live server must produce the exact same grid SHA-256
// as the gridding pass run locally on the same data. The wire carries float32, so the local reference
// grids the float32-quantized values — the identical bytes the server
// decodes — making the comparison bit-for-bit, not approximate.

// conformanceConfig is small enough to grid twice in a test but big
// enough to cover many subgrids per baseline.
func conformanceConfig() ObservationConfig {
	return ObservationConfig{
		NrStations:     6,
		NrTimesteps:    16,
		NrChannels:     2,
		StartFrequency: 150e6,
		ChannelWidth:   200e3,
		GridSize:       128,
		SubgridSize:    16,
		KernelSupport:  4,
		GridMargin:     8,
		ATermInterval:  8,
		// Workers 1 and a single shard pin the accumulation order, so
		// the local and remote passes are bit-identical by construction.
		Workers:           1,
		GridShards:        1,
		MaxInflightChunks: 2,
	}
}

// conformanceWire builds the observation, fills it from a fixed sky
// model, and returns both the float32 wire samples and the
// observation with its visibilities quantized through those exact
// float32 values.
func conformanceWire(t *testing.T) (*Observation, [][]float32) {
	t.Helper()
	cfg := conformanceConfig()
	o, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	pix := o.ImageSize / float64(cfg.GridSize)
	model := SkyModel{
		{L: 14 * pix, M: -9 * pix, I: 1},
		{L: -22 * pix, M: 17 * pix, I: 0.5},
	}
	if err := o.FillFromModel(model); err != nil {
		t.Fatal(err)
	}
	wire := make([][]float32, len(o.Vis.Data))
	for b, data := range o.Vis.Data {
		buf := make([]float32, len(data)*8)
		for i, m := range data {
			for p := 0; p < 4; p++ {
				buf[8*i+2*p] = float32(real(m[p]))
				buf[8*i+2*p+1] = float32(imag(m[p]))
			}
			// Quantize the local copy through the wire's float32, so
			// the reference pass grids the bytes the server will see.
			var q Matrix2
			for p := 0; p < 4; p++ {
				q[p] = complex(float64(buf[8*i+2*p]), float64(buf[8*i+2*p+1]))
			}
			data[i] = q
		}
		wire[b] = buf
	}
	return o, wire
}

// sessionConfigFor mirrors the observation config onto the wire form.
func sessionConfigFor(cfg ObservationConfig) server.SessionConfig {
	return server.SessionConfig{
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
	}
}

// streamWire replays the wire samples into one server session and
// returns its finalize result.
func streamWire(t *testing.T, c *server.Client, scfg server.SessionConfig, wire [][]float32) server.Result {
	t.Helper()
	info, err := c.CreateSession(scfg)
	if err != nil {
		t.Fatal(err)
	}
	if info.NrBaselines != len(wire) {
		t.Fatalf("server expects %d baselines, the observation has %d", info.NrBaselines, len(wire))
	}
	// Stream in smallish frames so the session crosses many frame
	// boundaries, including a partial final frame per baseline.
	const frameVis = 7
	err = c.StreamVis(info.SessionID, func(w *server.FrameWriter) error {
		for b, buf := range wire {
			n := len(buf) / 8
			for off := 0; off < n; off += frameVis {
				end := off + frameVis
				if end > n {
					end = n
				}
				if err := w.WriteVis(b, off, buf[off*8:end*8]); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Finalize(info.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	// Transfer equality: hashing the fetched grid bytes reproduces the
	// result hash, so a client can verify its copy end to end.
	sha, n, err := c.FetchGridSHA256(info.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	if sha != res.SHA256 {
		t.Fatalf("grid transfer hash %s != result hash %s (%d bytes)", sha, res.SHA256, n)
	}
	if n != res.GridBytes || n >= int64(res.GridSize)*int64(res.GridSize)*4*16 {
		t.Fatalf("grid transfer carried %d bytes, result declares %d, dense cells are %d",
			n, res.GridBytes, int64(res.GridSize)*int64(res.GridSize)*4*16)
	}
	if err := c.Delete(info.SessionID); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestServerConformance is the tentpole acceptance check: the
// wire-streamed session grid is bit-identical (same SHA-256) to the
// local streamed gridding pass on the same float32-quantized data —
// and a second session of the same config reproduces it through the
// plan cache.
func TestServerConformance(t *testing.T) {
	o, wire := conformanceWire(t)
	g, _, _, err := o.GridAllStreamed(context.Background(), nil, FaultConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want := FingerprintGrid(g)
	if want.Nonzero == 0 {
		t.Fatal("local reference gridded an all-zero grid")
	}

	resetServerPlanCache()
	srv, err := NewGridServer(GridServerConfig{}, &ServerBackend{})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	c := &server.Client{Base: hs.URL, Tenant: "conformance", HTTP: hs.Client()}
	scfg := sessionConfigFor(conformanceConfig())

	res := streamWire(t, c, scfg, wire)
	if res.SHA256 != want.SHA256 {
		t.Fatalf("wire-streamed session grid %s != local streamed grid %s\nserver: %+v\nlocal:  %+v",
			res.SHA256, want.SHA256, res, want)
	}
	if res.GridSize != want.GridSize || res.Nonzero != want.Nonzero ||
		res.SumAbs != want.SumAbs || res.PeakAbs != want.PeakAbs {
		t.Fatalf("fingerprint diagnostics diverge: server %+v, local %+v", res, want)
	}

	// A second session of the same configuration rides the plan cache
	// and must land on the identical hash.
	res2 := streamWire(t, c, scfg, wire)
	if res2.SHA256 != want.SHA256 {
		t.Fatalf("plan-cached session grid %s != local grid %s", res2.SHA256, want.SHA256)
	}
	hits, misses := ServerPlanCacheStats()
	if misses != 1 || hits < 1 {
		t.Fatalf("plan cache saw %d hits / %d misses across two same-config sessions, want >=1 / 1", hits, misses)
	}
}

// TestServerConformanceCacheEquivalence: the plan cache must be
// invisible to the numbers — on fresh servers, the session that misses
// the cache (building its plan from scratch) and the session that hits
// it hash identically.
func TestServerConformanceCacheEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("second server pass in -short mode")
	}
	_, wire := conformanceWire(t)
	scfg := sessionConfigFor(conformanceConfig())

	hash := func() string {
		srv, err := NewGridServer(GridServerConfig{}, &ServerBackend{})
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(srv.Handler())
		defer hs.Close()
		c := &server.Client{Base: hs.URL, HTTP: hs.Client()}
		return streamWire(t, c, scfg, wire).SHA256
	}
	resetServerPlanCache()
	miss := hash()
	hit := hash()
	if hits, misses := ServerPlanCacheStats(); misses != 1 || hits < 1 {
		t.Fatalf("plan cache saw %d hits / %d misses across the two sessions, want >=1 / 1", hits, misses)
	}
	if miss != hit {
		t.Fatalf("cache-miss plan grid %s != cache-hit plan grid %s", miss, hit)
	}
}

// TestServerConfigErrors extends the facade's typed-config pattern to
// the server knobs (ISSUE 9 satellite 4): every rejection is an
// ErrInvalidServerConfig naming the offending field.
func TestServerConfigErrors(t *testing.T) {
	cases := []struct {
		name string
		cfg  GridServerConfig
	}{
		{"bad addr", GridServerConfig{Addr: "no-port"}},
		{"negative sessions", GridServerConfig{MaxSessions: -1}},
		{"negative tenant quota", GridServerConfig{MaxSessionsPerTenant: -1}},
		{"negative tenant budget", GridServerConfig{MaxInflightPerTenant: -1}},
		{"default over budget", GridServerConfig{SessionInflightDefault: 9, MaxInflightPerTenant: 3}},
		{"negative idle timeout", GridServerConfig{IdleTimeout: -1}},
		{"negative drain timeout", GridServerConfig{DrainTimeout: -1}},
		{"tiny frame cap", GridServerConfig{MaxFrameBytes: 10}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewGridServer(tc.cfg, nil)
			if err == nil {
				t.Fatal("bad server config accepted")
			}
			if !errors.Is(err, ErrInvalidServerConfig) {
				t.Errorf("error %v does not match ErrInvalidServerConfig", err)
			}
			var ce *server.ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("error %T is not a *ConfigError", err)
			}
			if ce.Field == "" {
				t.Error("rejection names no field")
			}
		})
	}
}

// TestServerWideFieldCreate: a session whose derived field of view is
// too wide for its grid is refused with a 400 that names it, and the
// refusals do not use up the tenant's quota: after four of them a valid
// session of the same tenant is created.
func TestServerWideFieldCreate(t *testing.T) {
	srv, err := NewGridServer(GridServerConfig{}, &ServerBackend{})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	c := &server.Client{Base: hs.URL, Tenant: "wide", HTTP: hs.Client()}
	wide := server.SessionConfig{
		NrStations: 3, NrTimesteps: 2, NrChannels: 1, StartFrequency: 50e6, ChannelWidth: 1e6,
		GridSize: 4096, SubgridSize: 24, KernelSupport: 8, GridMargin: 16, Workers: 1,
	}
	for i := 0; i < 4; i++ {
		_, err := c.CreateSession(wide)
		if err == nil || !strings.Contains(err.Error(), "HTTP 400") || !strings.Contains(err.Error(), "field of view") {
			t.Fatalf("wide-field create %d: %v, want a 400 naming the field of view", i, err)
		}
	}
	valid := sessionConfigFor(conformanceConfig())
	if _, err := c.CreateSession(valid); err != nil {
		t.Fatalf("valid create after four wide-field ones: %v", err)
	}
}
