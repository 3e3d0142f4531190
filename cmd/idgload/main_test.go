package main

import (
	"errors"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro"
)

// TestIDGLoadExitCodes pins the command's CLI contract: a knob out of
// range exits 1 with a message naming it (the observation's own
// fields by their ObservationConfig names), and a tiny -verify run
// against an in-process server exits 0 with every session verified.
func TestIDGLoadExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the idgload binary in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "idgload")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"no tenants", []string{"-tenants", "0"}, "-tenants must be >= 1"},
		{"empty frames", []string{"-frame-vis", "0"}, "-frame-vis must be >= 1"},
		{"negative in-flight", []string{"-max-inflight", "-1"}, "-max-inflight must be >= 0"},
		{"no channels", []string{"-channels", "0"}, "invalid NrChannels"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(bin, tc.args...).CombinedOutput()
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.ExitCode() != 1 {
				t.Fatalf("got %v, want exit status 1\n%s", err, out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Fatalf("output lacks %q:\n%s", tc.want, out)
			}
		})
	}

	t.Run("verify", func(t *testing.T) {
		srv, err := repro.NewGridServer(repro.GridServerConfig{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(srv.Handler())
		defer hs.Close()
		out, err := exec.Command(bin, "-addr", hs.URL, "-tenants", "1", "-sessions", "1", "-concurrency", "1",
			"-stations", "4", "-steps", "8", "-channels", "2", "-grid", "64", "-subgrid", "16", "-verify").CombinedOutput()
		if err != nil {
			t.Fatalf("tiny run: %v\n%s", err, out)
		}
		if !strings.Contains(string(out), "1/1 sessions verified") {
			t.Fatalf("output lacks the verified count:\n%s", out)
		}
	})
}
