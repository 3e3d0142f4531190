package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestServerExitCodes pins the server's CLI contract: a negative knob or
// an unusable -addr exits 1 with a message naming the flag, and a server
// on a kernel-assigned port writes its address, drains on SIGTERM and
// exits 0.
func TestServerExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the idgserver binary in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "idgserver")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	type exitCase struct{ name, flag, value string }
	cases := []exitCase{
		{"address without port", "addr", "127.0.0.1"},
		{"port out of range", "addr", "127.0.0.1:70000"},
	}
	for _, knob := range []string{"max-sessions", "tenant-sessions", "tenant-inflight", "session-inflight", "max-frame-bytes"} {
		cases = append(cases, exitCase{"negative " + knob, knob, "-1"})
	}
	for _, knob := range []string{"idle-timeout", "drain-timeout"} {
		cases = append(cases, exitCase{"negative " + knob, knob, "-1s"})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(bin, "-"+tc.flag, tc.value).CombinedOutput()
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.ExitCode() != 1 {
				t.Fatalf("got %v, want exit status 1\n%s", err, out)
			}
			if !strings.Contains(string(out), "idgserver: -"+tc.flag) {
				t.Fatalf("output does not name -%s:\n%s", tc.flag, out)
			}
		})
	}

	t.Run("drain on SIGTERM", func(t *testing.T) {
		addrFile := filepath.Join(t.TempDir(), "addr")
		var out bytes.Buffer
		cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-addr-file", addrFile)
		cmd.Stdout, cmd.Stderr = &out, &out
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		defer cmd.Process.Kill()
		for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(20 * time.Millisecond) {
			if b, err := os.ReadFile(addrFile); err == nil && strings.HasSuffix(string(b), "\n") {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("server never wrote its address")
			}
		}
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		if err := cmd.Wait(); err != nil {
			t.Fatalf("got %v after SIGTERM, want exit 0\n%s", err, out.String())
		}
		if !strings.Contains(out.String(), "drained") {
			t.Fatalf("output lacks \"drained\":\n%s", out.String())
		}
	})
}
