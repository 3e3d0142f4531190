package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestUVCoverageExitCodes pins the command's CLI contract: a knob out of
// range exits 1 with a message naming the flag, and a tiny run exits 0
// with its PGM written.
func TestUVCoverageExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the uvcoverage binary in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "uvcoverage")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"one station", []string{"-stations", "1"}, "-stations must be >= 2"},
		{"narrow raster", []string{"-width", "3"}, "-width must be >= 4"},
		{"empty PGM", []string{"-pgm-size", "0", "-pgm", filepath.Join(t.TempDir(), "f.pgm")}, "-pgm-size must be >= 1"},
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

	t.Run("tiny run", func(t *testing.T) {
		pgm := filepath.Join(t.TempDir(), "uv.pgm")
		out, err := exec.Command(bin, "-stations", "4", "-steps", "8", "-width", "4", "-pgm", pgm, "-pgm-size", "16").CombinedOutput()
		if err != nil {
			t.Fatalf("tiny run: %v\n%s", err, out)
		}
		if st, err := os.Stat(pgm); err != nil || st.Size() == 0 {
			t.Errorf("%s not written: %v", pgm, err)
		}
	})
}
