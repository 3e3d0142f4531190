package main

import (
	"net"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestWorkerExitCodes pins the worker's CLI contract: an assignment
// outside the run and a coordinator nobody listens on each end in a
// non-zero exit with a message naming the problem.
func TestWorkerExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the idgworker binary in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "idgworker")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	// A port that was just free: nothing accepts on it.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closed := l.Addr().String()
	l.Close()

	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"index out of range", []string{"-coordinator", closed, "-index", "5", "-workers", "2"}, "worker 5 of 2 is not a valid assignment"},
		{"unreachable coordinator", []string{"-coordinator", closed}, "dialing coordinator"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(bin, tc.args...).CombinedOutput()
			if _, ok := err.(*exec.ExitError); !ok {
				t.Fatalf("got %v, want a non-zero exit\n%s", err, out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Fatalf("output lacks %q:\n%s", tc.want, out)
			}
		})
	}
}
