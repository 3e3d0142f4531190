package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestIDGBenchExitCodes pins the command's CLI contract: a -scale that
// is not a positive finite number exits 1 naming the flag, an unknown
// experiment exits 2, a failing experiment exits 1 after the profiling
// defers have run (its -cpuprofile is written), and a model-only
// experiment exits 0.
func TestIDGBenchExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the idgbench binary in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "idgbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	prof := filepath.Join(t.TempDir(), "cpu.out")
	for _, tc := range []struct {
		name string
		args []string
		code int
		want string
	}{
		{"zero scale", []string{"-experiment", "table1", "-scale", "0"}, 1, "-scale"},
		{"negative scale", []string{"-experiment", "table1", "-scale", "-1"}, 1, "-scale"},
		{"NaN scale", []string{"-experiment", "table1", "-scale", "NaN"}, 1, "-scale"},
		{"unknown experiment", []string{"-experiment", "fig99"}, 2, "no experiment matched"},
		{"failing measured run", []string{"-experiment", "measured", "-grid-shards", "-3", "-cpuprofile", prof}, 1, "GridShards"},
		{"table1", []string{"-experiment", "table1"}, 0, "=== table1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(bin, tc.args...).CombinedOutput()
			code := 0
			if err != nil {
				var ee *exec.ExitError
				if !errors.As(err, &ee) {
					t.Fatalf("exec: %v", err)
				}
				code = ee.ExitCode()
			}
			if code != tc.code {
				t.Fatalf("exit status %d, want %d\n%s", code, tc.code, out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Fatalf("output lacks %q:\n%s", tc.want, out)
			}
		})
	}
	if st, err := os.Stat(prof); err != nil || st.Size() == 0 {
		t.Errorf("the failing run left no CPU profile at %s: %v", prof, err)
	}
}
