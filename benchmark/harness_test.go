package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

const manifestPath = "../BENCHMARK.json"

// BENCHMARK.json is what the acceptance driver reads; metrics.go is
// what the program prints. They must say the same thing.
func TestManifestMatchesDeclarations(t *testing.T) {
	got, err := readManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if want := buildManifest(); !reflect.DeepEqual(got, want) {
		g, _ := json.MarshalIndent(got, "", "  ")
		w, _ := json.MarshalIndent(want, "", "  ")
		t.Fatalf("BENCHMARK.json differs from metrics.go (regenerate with -print-manifest)\nfile:\n%s\ndeclared:\n%s", g, w)
	}
	// Exactly the contract's keys: nothing the driver would refuse.
	var raw map[string]json.RawMessage
	data, _ := os.ReadFile(manifestPath)
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if len(raw) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, the contract has 6", len(raw))
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over the 64 KiB limit", len(data))
	}
}

func TestManifestWithinContractLimits(t *testing.T) {
	m := buildManifest()
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range m.Workloads {
		use(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") || w.Why == "" {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	setup := false
	for _, d := range m.EndToEnd {
		use(d.Name)
		if d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", d.Name)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
			for _, o := range m.EndToEnd {
				if *o.Bound > *d.Bound {
					t.Errorf("setup_s must carry the largest bound, %s has %g", o.Name, *o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("one end-to-end metric must be setup_s, in s, lower is better")
	}
	for _, d := range m.PerLayer {
		use(d.Name)
		if d.Bound != nil {
			t.Errorf("%s: per-layer metrics carry no bound", d.Name)
		}
	}
	for _, d := range append(m.EndToEnd, m.PerLayer...) {
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is outside the contract's alphabet or length", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", m.RunSeconds)
	}
	for _, arg := range m.Command {
		if strings.HasPrefix(arg, "/") || strings.Contains(arg, "..") {
			t.Errorf("command argument %q leaves the checkout", arg)
		}
	}
}

// The smoke mode runs every workload on tiny shapes, traced and
// untraced, through the same code as the real run, and checks the
// summary round-trips against BENCHMARK.json: every metric printed is
// declared, every declared metric is printed.
func TestSmokeEveryWorkload(t *testing.T) {
	man, err := readManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	declared := func(ms []manifestMetric) map[string]string {
		out := make(map[string]string)
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	for _, w := range man.Workloads {
		for _, traced := range []bool{false, true} {
			out := t.TempDir()
			res, err := runWorkload(w.Name, 7, 0.05, traced, true, out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			// Through JSON and back, as the driver reads it.
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var back result
			if err := json.Unmarshal(line, &back); err != nil {
				t.Fatalf("%s: result line does not parse: %v\n%s", w.Name, err, line)
			}
			want := declared(man.EndToEnd)
			if traced {
				want = declared(man.PerLayer)
			}
			for name, m := range back.Metrics {
				if unit, ok := want[name]; !ok {
					t.Errorf("%s traced=%v: printed metric %s is not declared", w.Name, traced, name)
				} else if unit != m.Unit {
					t.Errorf("%s: metric %s printed in %q, declared in %q", w.Name, name, m.Unit, unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %v", w.Name, traced, name, m.Value)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, name, m.Value)
				}
			}
			for name := range want {
				if _, ok := back.Metrics[name]; !ok {
					t.Errorf("%s traced=%v: declared metric %s is not printed", w.Name, traced, name)
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(out, "trace-"+w.Name+".json")); err != nil {
					t.Errorf("%s: no trace file: %v", w.Name, err)
				}
				if left, _ := filepath.Glob(filepath.Join(out, "ckpt-*")); len(left) != 0 {
					t.Errorf("%s: checkpoint directories left behind: %v", w.Name, left)
				}
			}
		}
	}
}

func TestUnknownWorkloadIsAnError(t *testing.T) {
	if _, err := runWorkload("nope", 1, 0.05, false, true, t.TempDir()); err == nil {
		t.Error("unknown workload ran")
	}
}

func TestVerdict(t *testing.T) {
	steady := func(m float64) []float64 { return []float64{m * 0.99, m, m * 1.01, m, m * 1.005} }
	noisy := func(m float64) []float64 { return []float64{m * 0.7, m, m * 1.3, m * 0.8, m * 1.2} }
	cases := []struct {
		name   string
		better string
		a, b   []float64
		want   string
	}{
		{"same", "lower", steady(10), steady(10), "ok"},
		{"slower within bound", "lower", steady(10), steady(10.4), "ok"},
		{"slower beyond bound", "lower", steady(10), steady(11), "regressed"},
		{"faster", "lower", steady(10), steady(8), "ok"},
		{"throughput drop", "higher", steady(10), steady(9), "regressed"},
		{"throughput gain", "higher", steady(10), steady(12), "ok"},
		{"drop inside the noise", "higher", noisy(10), steady(9), "unresolved"},
	}
	for _, c := range cases {
		if _, got := verdict(c.better, 0.05, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, cycle float64) string {
		f := suiteFile{Seconds: 1}
		for i := 0; i < 4; i++ {
			f.Runs = append(f.Runs, suiteRun{Workload: "dense", Seed: int64(i), Result: result{
				Correct: true, Attempted: 1,
				Metrics: map[string]metricValue{
					"cycle_s":     {cycle * (1 + 0.001*float64(i)), "s"},
					"grid_mvis_s": {1.2, "MVis/s"},
				},
			}})
		}
		// A traced run in the same file is not an end-to-end sample.
		f.Runs = append(f.Runs, suiteRun{Workload: "dense", Trace: 1, Result: result{
			Metrics: map[string]metricValue{"cycle_s": {99, "s"}},
		}})
		path := filepath.Join(dir, name)
		data, _ := json.Marshal(f)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slow := write("a.json", 2.5), write("same.json", 2.5), write("slow.json", 3.5)

	var out bytes.Buffer
	regressed, err := compareFiles(&out, manifestPath, a, same)
	if err != nil || regressed {
		t.Fatalf("equal files: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	if !strings.Contains(out.String(), "cycle_s") || !strings.Contains(out.String(), "ok") || strings.Contains(out.String(), "peak_rss_mb") {
		t.Errorf("unexpected table:\n%s", out.String())
	}
	out.Reset()
	regressed, err = compareFiles(&out, manifestPath, a, slow)
	if err != nil || !regressed || !strings.Contains(out.String(), "regressed") {
		t.Errorf("40%% slower cycle: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	if _, err := compareFiles(&out, manifestPath, a, filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file compared")
	}
}
