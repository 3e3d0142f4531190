package server

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"time"

	"repro/internal/frame"
	"repro/internal/obs"
)

// Config configures the gridding server. The zero value listens on a
// kernel-assigned loopback port with conservative defaults; every
// resolved default is documented on its field.
type Config struct {
	// Addr is the listen address ("host:port"; an empty or "0" port
	// asks the kernel for one). Empty selects "127.0.0.1:0".
	Addr string
	// MaxSessions caps concurrently registered sessions across all
	// tenants (<= 0: 64).
	MaxSessions int
	// MaxSessionsPerTenant caps one tenant's concurrently registered
	// sessions (<= 0: 4).
	MaxSessionsPerTenant int
	// MaxInflightPerTenant caps the sum of resolved MaxInflightChunks
	// bounds across one tenant's registered sessions — the admission
	// side of the PR 5 streaming memory bound (<= 0: 64).
	MaxInflightPerTenant int
	// SessionInflightDefault is the MaxInflightChunks bound assigned to
	// sessions that do not request one (<= 0: 4). It is what ties every
	// admitted session to a finite share of the tenant budget.
	SessionInflightDefault int
	// IdleTimeout expires sessions (any state but finalizing) that go
	// untouched this long (<= 0: 2 minutes).
	IdleTimeout time.Duration
	// DrainTimeout bounds the graceful drain: after admissions stop,
	// active sessions get this long to finish before their contexts are
	// canceled (checkpointed sessions keep their last snapshot)
	// (<= 0: 30 seconds).
	DrainTimeout time.Duration
	// MaxFrameBytes caps one wire frame's payload
	// (<= 0: frame.DefaultMaxPayload).
	MaxFrameBytes int
	// CheckpointRoot, when non-empty, lets sessions opt into durable
	// checkpoints: each checkpointing session gets its own directory
	// under this root. Empty rejects checkpoint requests.
	CheckpointRoot string
	// Observer receives the server's session metrics; nil disables
	// them at the usual zero cost.
	Observer *obs.Observer
}

// ErrInvalidConfig marks every server configuration rejection; match
// it with errors.Is. The concrete error is a *ConfigError naming the
// offending field (the same typed-validation pattern as the facade's
// ObservationConfig).
var ErrInvalidConfig = errors.New("server: invalid config")

// ConfigError is a typed configuration rejection: which Config field
// is wrong and why. It unwraps to ErrInvalidConfig.
type ConfigError struct {
	Field  string
	Reason string
}

// Error formats the rejection.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("server: invalid %s: %s", e.Field, e.Reason)
}

// Unwrap makes every ConfigError match ErrInvalidConfig.
func (e *ConfigError) Unwrap() error { return ErrInvalidConfig }

// Validate checks the configuration without resolving defaults.
func (c *Config) Validate() error {
	if c.Addr != "" {
		host, port, err := net.SplitHostPort(c.Addr)
		if err != nil {
			return &ConfigError{Field: "Addr", Reason: fmt.Sprintf("%q is not host:port (%v)", c.Addr, err)}
		}
		if host == "" {
			return &ConfigError{Field: "Addr", Reason: fmt.Sprintf("%q has no host", c.Addr)}
		}
		if port != "" {
			p, err := strconv.Atoi(port)
			if err != nil || p < 0 || p > 65535 {
				return &ConfigError{Field: "Addr", Reason: fmt.Sprintf("port %q outside [0, 65535]", port)}
			}
		}
	}
	switch {
	case c.MaxSessions < 0:
		return &ConfigError{Field: "MaxSessions", Reason: fmt.Sprintf("negative session cap %d", c.MaxSessions)}
	case c.MaxSessionsPerTenant < 0:
		return &ConfigError{Field: "MaxSessionsPerTenant", Reason: fmt.Sprintf("negative tenant session cap %d", c.MaxSessionsPerTenant)}
	case c.MaxInflightPerTenant < 0:
		return &ConfigError{Field: "MaxInflightPerTenant", Reason: fmt.Sprintf("negative tenant in-flight budget %d", c.MaxInflightPerTenant)}
	case c.SessionInflightDefault < 0:
		return &ConfigError{Field: "SessionInflightDefault", Reason: fmt.Sprintf("negative per-session in-flight default %d", c.SessionInflightDefault)}
	case c.sessionInflightDefault() > c.maxInflightPerTenant():
		return &ConfigError{Field: "SessionInflightDefault", Reason: fmt.Sprintf(
			"per-session default %d exceeds the tenant budget %d: no default session could ever be admitted",
			c.sessionInflightDefault(), c.maxInflightPerTenant())}
	case c.IdleTimeout < 0:
		return &ConfigError{Field: "IdleTimeout", Reason: fmt.Sprintf("negative idle timeout %v", c.IdleTimeout)}
	case c.DrainTimeout < 0:
		return &ConfigError{Field: "DrainTimeout", Reason: fmt.Sprintf("negative drain timeout %v", c.DrainTimeout)}
	case c.MaxFrameBytes < 0:
		return &ConfigError{Field: "MaxFrameBytes", Reason: fmt.Sprintf("negative frame cap %d", c.MaxFrameBytes)}
	case c.MaxFrameBytes > 0 && c.MaxFrameBytes < MinFramePayloadCap:
		return &ConfigError{Field: "MaxFrameBytes", Reason: fmt.Sprintf(
			"frame cap %d below the %d-byte minimum (one visibility sample)", c.MaxFrameBytes, MinFramePayloadCap)}
	}
	return nil
}

// Resolved defaults.

func (c *Config) addr() string {
	if c.Addr == "" {
		return "127.0.0.1:0"
	}
	return c.Addr
}

func (c *Config) maxSessions() int {
	if c.MaxSessions <= 0 {
		return 64
	}
	return c.MaxSessions
}

func (c *Config) maxSessionsPerTenant() int {
	if c.MaxSessionsPerTenant <= 0 {
		return 4
	}
	return c.MaxSessionsPerTenant
}

func (c *Config) maxInflightPerTenant() int {
	if c.MaxInflightPerTenant <= 0 {
		return 64
	}
	return c.MaxInflightPerTenant
}

func (c *Config) sessionInflightDefault() int {
	if c.SessionInflightDefault <= 0 {
		return 4
	}
	return c.SessionInflightDefault
}

func (c *Config) idleTimeout() time.Duration {
	if c.IdleTimeout <= 0 {
		return 2 * time.Minute
	}
	return c.IdleTimeout
}

func (c *Config) drainTimeout() time.Duration {
	if c.DrainTimeout <= 0 {
		return 30 * time.Second
	}
	return c.DrainTimeout
}

func (c *Config) maxFrameBytes() int {
	if c.MaxFrameBytes <= 0 {
		return frame.DefaultMaxPayload
	}
	return c.MaxFrameBytes
}
