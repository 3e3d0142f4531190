// Command benchjson converts `go test -bench` output on stdin into a
// machine-readable JSON report on stdout. It understands the standard
// benchmark line format including -benchmem columns and custom
// b.ReportMetric units, so scripts/bench.sh can write the committed
// kernel record without scraping free-form text:
//
//	go test -bench Kernel -benchmem . | benchjson > BENCH_kernels.json
//
// It gates nothing: wall-clock rows move between runs on a shared host
// by more than the changes they would have to resolve, so speed claims
// use alternating parent/change pairs instead (benchmark/README.md).
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// BytesPerOp/AllocsPerOp are present only under -benchmem.
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	// VisPerSec is derived from the kernels' MVis/s custom metric.
	VisPerSec *float64 `json:"vis_per_sec,omitempty"`
	// Metrics holds every other custom b.ReportMetric column.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the top-level JSON document.
type Report struct {
	GOOS       string      `json:"goos,omitempty"`
	GOARCH     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	rep, err := Parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// Parse consumes `go test -bench` output line by line.
func Parse(sc *bufio.Scanner) (*Report, error) {
	rep := &Report{}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			rep.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			b, err := parseLine(line)
			if err != nil {
				return nil, err
			}
			rep.Benchmarks = append(rep.Benchmarks, b)
		}
	}
	return rep, sc.Err()
}

// parseLine parses one result line: a name, an iteration count, then
// repeated "<value> <unit>" pairs.
func parseLine(line string) (Benchmark, error) {
	f := strings.Fields(line)
	if len(f) < 2 {
		return Benchmark{}, fmt.Errorf("short benchmark line %q", line)
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Benchmark{}, fmt.Errorf("bad iteration count in %q: %v", line, err)
	}
	b := Benchmark{Name: f[0], Iterations: iters}
	for i := 2; i+1 < len(f); i += 2 {
		val, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Benchmark{}, fmt.Errorf("bad value %q in %q: %v", f[i], line, err)
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			b.NsPerOp = val
		case "B/op":
			v := val
			b.BytesPerOp = &v
		case "allocs/op":
			v := val
			b.AllocsPerOp = &v
		case "MVis/s":
			v := val * 1e6
			b.VisPerSec = &v
			addMetric(&b, unit, val)
		default:
			addMetric(&b, unit, val)
		}
	}
	return b, nil
}

func addMetric(b *Benchmark, unit string, val float64) {
	if b.Metrics == nil {
		b.Metrics = make(map[string]float64)
	}
	b.Metrics[unit] = val
}
