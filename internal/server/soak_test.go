// Soak and chaos tests for the serving layer, run with the real
// facade backend (repro.ServerBackend) rather than the fake: N
// tenants x M sessions with mid-stream cancellations and injected
// kernel panics, under -race in CI. The external test package breaks
// the import cycle: internal/server never imports the facade, but its
// test binary may.
package server_test

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/internal/faultinject"
	"repro/internal/faulttol"
	"repro/internal/obs"
	"repro/internal/server"
)

// soakSessionConfig is a deliberately small observation (6 baselines,
// 8x2 samples, 64-pixel grid) so a soak of dozens of sessions stays
// test-suite fast; the plan cache makes the repeats nearly free.
func soakSessionConfig() server.SessionConfig {
	return server.SessionConfig{
		NrStations: 4, NrTimesteps: 8, NrChannels: 2,
		StartFrequency: 150e6, ChannelWidth: 200e3,
		GridSize: 64, SubgridSize: 16, KernelSupport: 4,
		GridMargin: 4, ATermInterval: 8,
		Workers: 1, GridShards: 1, MaxInflightChunks: 2,
	}
}

// fillWire builds one session's worth of deterministic wire samples.
func fillWire(nb, nt, nc int, seed int) [][]float32 {
	wire := make([][]float32, nb)
	for b := range wire {
		buf := make([]float32, nt*nc*8)
		for i := range buf {
			buf[i] = float32((seed+13*b+i)%31) * 0.125
		}
		wire[b] = buf
	}
	return wire
}

// TestSoakMultiTenant is the race-mode soak of ISSUE 9: several
// tenants run sessions concurrently against one server with injected
// kernel panics (SkipAndFlag, so sessions survive degraded) and
// mid-stream cancellations; after the drain the registry must be
// empty and no in-flight gauge may ever have exceeded its budget.
func TestSoakMultiTenant(t *testing.T) {
	const (
		tenants           = 3
		sessionsPerTenant = 4
		workersPerTenant  = 2
		inflightBudget    = 6
	)
	observer := obs.New(0)
	back := &repro.ServerBackend{
		// A 15% injected panic rate under SkipAndFlag: some sessions
		// complete degraded (notes in their result), none crash the
		// server. Selection is deterministic in the work item and seed,
		// so the degraded count is stable run to run.
		Fault: repro.FaultConfig{
			Policy: faulttol.SkipAndFlag,
			Hook:   faultinject.PanicHook(faultinject.Selector{Fraction: 0.15, Seed: 7}),
		},
	}
	cfg := server.Config{
		MaxSessions:          tenants * workersPerTenant * 2,
		MaxSessionsPerTenant: workersPerTenant + 1,
		MaxInflightPerTenant: inflightBudget,
		Observer:             observer,
	}
	s, err := server.New(cfg, back)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	scfg := soakSessionConfig()
	hitsBefore, _ := repro.ServerPlanCacheStats()

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		finished int
		canceled int
		degraded int
	)
	fail := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		t.Errorf(format, args...)
	}
	for tn := 0; tn < tenants; tn++ {
		for wk := 0; wk < workersPerTenant; wk++ {
			wg.Add(1)
			go func(tn, wk int) {
				defer wg.Done()
				c := &server.Client{Base: hs.URL, Tenant: fmt.Sprintf("tenant-%d", tn), HTTP: hs.Client()}
				for sn := wk; sn < sessionsPerTenant; sn += workersPerTenant {
					info, err := c.CreateSession(scfg)
					if err != nil {
						fail("tenant %d session %d: create: %v", tn, sn, err)
						return
					}
					wire := fillWire(info.NrBaselines, info.NrTimesteps, info.NrChannels, tn*100+sn)
					// Every third session is canceled mid-stream: the
					// writer aborts halfway and the session is deleted
					// without ever finalizing.
					abort := sn%3 == 2
					err = c.StreamVis(info.SessionID, func(w *server.FrameWriter) error {
						for b, buf := range wire {
							if abort && b >= len(wire)/2 {
								return errors.New("soak: client walked away mid-stream")
							}
							if err := w.WriteVis(b, 0, buf); err != nil {
								return err
							}
						}
						return nil
					})
					if abort {
						if err == nil {
							fail("tenant %d session %d: aborted stream reported success", tn, sn)
						}
						if err := c.Delete(info.SessionID); err != nil {
							fail("tenant %d session %d: delete after abort: %v", tn, sn, err)
						}
						mu.Lock()
						canceled++
						mu.Unlock()
						continue
					}
					if err != nil {
						fail("tenant %d session %d: stream: %v", tn, sn, err)
						return
					}
					res, err := c.Finalize(info.SessionID)
					if err != nil {
						fail("tenant %d session %d: finalize: %v", tn, sn, err)
						return
					}
					if res.SHA256 == "" {
						fail("tenant %d session %d: no grid hash", tn, sn)
					}
					mu.Lock()
					finished++
					if len(res.Notes) > 0 {
						degraded++
					}
					mu.Unlock()
					if err := c.Delete(info.SessionID); err != nil {
						fail("tenant %d session %d: delete: %v", tn, sn, err)
					}
				}
			}(tn, wk)
		}
	}
	wg.Wait()

	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Leak check: the drain leaves nothing registered, and every
	// reservation was returned.
	if got := s.ActiveSessions(); got != 0 {
		t.Fatalf("%d sessions leaked past the drain", got)
	}
	snap := observer.Metrics.Snapshot()
	if got := snap.Gauges[server.GaugeInflightChunks]; got != 0 {
		t.Errorf("inflight gauge %v after drain, want 0", got)
	}
	// Quota check: no high-watermark ever exceeded its budget.
	if peak := snap.Gauges[server.GaugeInflightChunksPeak]; peak > tenants*inflightBudget {
		t.Errorf("global inflight peak %v exceeded the %d budget", peak, tenants*inflightBudget)
	}
	for tn := 0; tn < tenants; tn++ {
		name := server.TenantInflightPeakGauge(fmt.Sprintf("tenant-%d", tn))
		if peak := snap.Gauges[name]; peak > inflightBudget {
			t.Errorf("%s = %v exceeded the %d budget", name, peak, inflightBudget)
		}
	}

	expectFinished := tenants * sessionsPerTenant
	mu.Lock()
	defer mu.Unlock()
	if finished+canceled != expectFinished {
		t.Errorf("%d finished + %d canceled != %d sessions", finished, canceled, expectFinished)
	}
	if canceled == 0 {
		t.Error("soak ran without exercising a mid-stream cancellation")
	}
	if degraded == 0 {
		t.Error("soak ran without exercising an injected-panic degradation")
	}
	t.Logf("soak: %d finished (%d degraded by injected panics), %d canceled mid-stream", finished, degraded, canceled)

	// The plan cache carried the repeats: every session shares one
	// configuration, so all but the first build must have hit.
	hits, _ := repro.ServerPlanCacheStats()
	if hits == hitsBefore {
		t.Error("plan cache saw no hits across a single-config soak")
	}
}

// TestSoakFailFastPanic injects a certain kernel panic under the
// fail-fast policy: the session must fail gracefully — a typed 500,
// state failed, server still serving — and the drain must still leave
// an empty registry.
func TestSoakFailFastPanic(t *testing.T) {
	back := &repro.ServerBackend{
		Fault: repro.FaultConfig{
			Policy: faulttol.FailFast,
			Hook:   faultinject.PanicHook(faultinject.Selector{Fraction: 1}),
		},
	}
	s, err := server.New(server.Config{}, back)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	c := &server.Client{Base: hs.URL, Tenant: "chaos", HTTP: hs.Client()}

	info, err := c.CreateSession(soakSessionConfig())
	if err != nil {
		t.Fatal(err)
	}
	wire := fillWire(info.NrBaselines, info.NrTimesteps, info.NrChannels, 1)
	err = c.StreamVis(info.SessionID, func(w *server.FrameWriter) error {
		for b, buf := range wire {
			if err := w.WriteVis(b, 0, buf); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Finalize(info.SessionID)
	if err == nil {
		t.Fatal("finalize succeeded despite a certain injected panic")
	}
	if !strings.Contains(err.Error(), "HTTP 500") || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("panic session error %v, want a typed 500", err)
	}
	// The server survived; the failed session is still registered
	// until deleted or drained.
	if got := s.ActiveSessions(); got != 1 {
		t.Fatalf("%d sessions after the failed finalize, want 1", got)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := s.ActiveSessions(); got != 0 {
		t.Fatalf("%d sessions leaked past the drain", got)
	}
}
