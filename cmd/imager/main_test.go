package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestImagerExitCodes pins the imager's CLI contract: bad knobs exit
// non-zero with a message naming the problem, and a tiny run exits 0
// with its three images written.
func TestImagerExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the imager binary in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "imager")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"bad fault policy", []string{"-fault-policy", "sometimes"}, `unknown policy "sometimes"`},
		{"checkpoint period without directory", []string{"-checkpoint-every", "2"}, "-checkpoint-every needs -checkpoint-dir"},
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

	t.Run("tiny run", func(t *testing.T) {
		dir := t.TempDir()
		out, err := exec.Command(bin, "-stations", "10", "-steps", "32", "-channels", "2", "-grid", "256", "-out", dir).CombinedOutput()
		if err != nil {
			t.Fatalf("tiny run: %v\n%s", err, out)
		}
		for _, name := range []string{"dirty.pgm", "residual.pgm", "restored.pgm"} {
			if st, err := os.Stat(filepath.Join(dir, name)); err != nil || st.Size() == 0 {
				t.Errorf("%s not written: %v", name, err)
			}
		}
	})
}
