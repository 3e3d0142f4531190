package server

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/frame"
)

// TestConfigValidate pins the typed-validation contract: every bad
// knob is rejected with a *ConfigError naming the field, every
// rejection matches ErrInvalidConfig, and the zero config (plus
// reasonable explicit values) passes.
func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name      string
		cfg       Config
		wantField string // "" means the config must validate
	}{
		{"zero value", Config{}, ""},
		{"explicit everything", Config{
			Addr: "127.0.0.1:8321", MaxSessions: 16, MaxSessionsPerTenant: 4,
			MaxInflightPerTenant: 32, SessionInflightDefault: 2,
			IdleTimeout: time.Minute, DrainTimeout: 10 * time.Second,
			MaxFrameBytes: 1 << 16,
		}, ""},
		{"port 0 asks the kernel", Config{Addr: "127.0.0.1:0"}, ""},

		{"addr without port", Config{Addr: "127.0.0.1"}, "Addr"},
		{"addr without host", Config{Addr: ":8321"}, "Addr"},
		{"addr port not a number", Config{Addr: "127.0.0.1:http"}, "Addr"},
		{"addr port too large", Config{Addr: "127.0.0.1:65536"}, "Addr"},

		{"negative session cap", Config{MaxSessions: -1}, "MaxSessions"},
		{"negative tenant session cap", Config{MaxSessionsPerTenant: -2}, "MaxSessionsPerTenant"},
		{"negative tenant budget", Config{MaxInflightPerTenant: -1}, "MaxInflightPerTenant"},
		{"negative session default", Config{SessionInflightDefault: -1}, "SessionInflightDefault"},
		{"default exceeds tenant budget", Config{
			SessionInflightDefault: 8, MaxInflightPerTenant: 4,
		}, "SessionInflightDefault"},
		{"resolved default exceeds tiny budget", Config{
			// SessionInflightDefault resolves to 4 > the explicit budget
			// of 2: no default session could ever be admitted.
			MaxInflightPerTenant: 2,
		}, "SessionInflightDefault"},
		{"negative idle timeout", Config{IdleTimeout: -time.Second}, "IdleTimeout"},
		{"negative drain timeout", Config{DrainTimeout: -time.Second}, "DrainTimeout"},
		{"negative frame cap", Config{MaxFrameBytes: -1}, "MaxFrameBytes"},
		{"frame cap below one sample", Config{MaxFrameBytes: MinFramePayloadCap - 1}, "MaxFrameBytes"},
		{"frame cap at one sample", Config{MaxFrameBytes: MinFramePayloadCap}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.wantField == "" {
				if err != nil {
					t.Fatalf("valid config rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("bad %s accepted", tc.wantField)
			}
			if !errors.Is(err, ErrInvalidConfig) {
				t.Errorf("error %v does not match ErrInvalidConfig", err)
			}
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("error %T is not a *ConfigError", err)
			}
			if ce.Field != tc.wantField {
				t.Errorf("rejected field %q, want %q (reason: %s)", ce.Field, tc.wantField, ce.Reason)
			}
			if !strings.Contains(err.Error(), tc.wantField) {
				t.Errorf("error %q does not name the field %q", err, tc.wantField)
			}
		})
	}
}

// TestConfigResolvedDefaults pins the documented zero-value defaults:
// they are load-bearing (admission quotas, timeouts) so a silent
// change would shift server behaviour under every operator who relies
// on the zero config.
func TestConfigResolvedDefaults(t *testing.T) {
	c := &Config{}
	if got := c.addr(); got != "127.0.0.1:0" {
		t.Errorf("default addr %q", got)
	}
	if got := c.maxSessions(); got != 64 {
		t.Errorf("default max sessions %d", got)
	}
	if got := c.maxSessionsPerTenant(); got != 4 {
		t.Errorf("default tenant sessions %d", got)
	}
	if got := c.maxInflightPerTenant(); got != 64 {
		t.Errorf("default tenant inflight %d", got)
	}
	if got := c.sessionInflightDefault(); got != 4 {
		t.Errorf("default session inflight %d", got)
	}
	if got := c.idleTimeout(); got != 2*time.Minute {
		t.Errorf("default idle timeout %v", got)
	}
	if got := c.drainTimeout(); got != 30*time.Second {
		t.Errorf("default drain timeout %v", got)
	}
	if got := c.maxFrameBytes(); got != frame.DefaultMaxPayload {
		t.Errorf("default frame cap %d", got)
	}
}

// TestSessionConfigValidate covers the wire-facing session config
// checks the server applies before paying for a backend open.
func TestSessionConfigValidate(t *testing.T) {
	good := SessionConfig{
		NrStations: 4, NrTimesteps: 8, NrChannels: 2,
		GridSize: 64, SubgridSize: 8,
	}
	if err := good.validate(); err != nil {
		t.Fatalf("valid session config rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*SessionConfig)
	}{
		{"one station", func(c *SessionConfig) { c.NrStations = 1 }},
		{"no timesteps", func(c *SessionConfig) { c.NrTimesteps = 0 }},
		{"no channels", func(c *SessionConfig) { c.NrChannels = 0 }},
		{"tiny grid", func(c *SessionConfig) { c.GridSize = 1 }},
		{"subgrid over grid", func(c *SessionConfig) { c.SubgridSize = 128 }},
		{"negative workers", func(c *SessionConfig) { c.Workers = -1 }},
		{"negative shards", func(c *SessionConfig) { c.GridShards = -1 }},
		{"negative inflight", func(c *SessionConfig) { c.MaxInflightChunks = -1 }},
		{"negative checkpoint period", func(c *SessionConfig) { c.CheckpointEvery = -1 }},
		{"checkpoint period without checkpoint", func(c *SessionConfig) { c.CheckpointEvery = 8 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := good
			tc.mut(&c)
			if err := c.validate(); err == nil {
				t.Fatal("bad session config accepted")
			}
		})
	}
}
