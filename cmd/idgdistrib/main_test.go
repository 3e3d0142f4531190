package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestDistribExitCodes pins the coordinator's CLI contract: a run with
// no workers, an unknown partition axis, a worker binary that does not
// exist and two workers on the W-planes axis without -wstep each end
// in a non-zero exit with a message naming the problem; and a tiny two-worker run prints a JSON sha256 that is the
// SHA-256 of the grid it writes with -out.
func TestDistribExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the idgdistrib and idgworker binaries in -short mode")
	}
	dir := t.TempDir()
	bin, worker := filepath.Join(dir, "idgdistrib"), filepath.Join(dir, "idgworker")
	for pkg, out := range map[string]string{".": bin, "../idgworker": worker} {
		if out, err := exec.Command("go", "build", "-o", out, pkg).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	obs := []string{"-stations", "6", "-steps", "16", "-channels", "2", "-grid", "64", "-subgrid", "16", "-margin", "8", "-aterm-interval", "8"}

	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"no workers", []string{"-workers", "0", "-worker-bin", worker}, "need at least one distrib worker, got 0"},
		{"unknown axis", []string{"-axis", "columns", "-worker-bin", worker}, "columns"},
		{"missing worker binary", []string{"-workers", "1", "-max-restarts", "0", "-worker-bin", filepath.Join(dir, "nope")}, "worker 0: failed after 1 attempt(s)"},
		{"wplanes without wstep", []string{"-workers", "2", "-axis", "wplanes", "-worker-bin", worker}, "invalid WStepLambda"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(bin, append(tc.args, obs...)...).CombinedOutput()
			if _, ok := err.(*exec.ExitError); !ok {
				t.Fatalf("got %v, want a non-zero exit\n%s", err, out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Fatalf("output lacks %q:\n%s", tc.want, out)
			}
		})
	}

	t.Run("two workers", func(t *testing.T) {
		gridPath := filepath.Join(dir, "grid.bin")
		args := append([]string{"-workers", "2", "-worker-bin", worker, "-json", "-out", gridPath}, obs...)
		cmd := exec.Command(bin, args...)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		stdout, err := cmd.Output()
		if err != nil {
			t.Fatalf("%v\n%s", err, stderr.String())
		}
		var res struct {
			SHA256   string `json:"sha256"`
			Nonzero  int    `json:"nonzero"`
			Workers  int    `json:"workers"`
			Restarts int    `json:"restarts"`
		}
		if err := json.NewDecoder(strings.NewReader(string(stdout))).Decode(&res); err != nil {
			t.Fatalf("no JSON fingerprint on stdout: %v\n%s", err, stdout)
		}
		written, err := os.ReadFile(gridPath)
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(written); hex.EncodeToString(sum[:]) != res.SHA256 {
			t.Errorf("printed sha256 %s is not the SHA-256 of the -out file", res.SHA256)
		}
		if res.Workers != 2 || res.Restarts != 0 || res.Nonzero == 0 || len(written) != 4*64*64*16 {
			t.Errorf("result %+v over %d written bytes", res, len(written))
		}
		if !strings.Contains(stderr.String(), "coordinator stage") {
			t.Errorf("no stage table on stderr:\n%s", stderr.String())
		}
	})
}
