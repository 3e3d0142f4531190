package main

import (
	"bufio"
	"strings"
	"testing"
)

func TestParseBenchOutput(t *testing.T) {
	const out = `goos: linux
goarch: amd64
pkg: repro
cpu: generic
BenchmarkGridderKernel-8   	     193	   5922618 ns/op	         0.3458 MVis/s	       0 B/op	       0 allocs/op
BenchmarkPlain   	     100	      1000 ns/op
PASS
`
	rep, err := Parse(bufio.NewScanner(strings.NewReader(out)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(rep.Benchmarks))
	}
	b := rep.Benchmarks[0]
	if b.Name != "BenchmarkGridderKernel-8" || b.Iterations != 193 {
		t.Fatalf("bad first benchmark: %+v", b)
	}
	if b.VisPerSec == nil || *b.VisPerSec != 0.3458e6 {
		t.Fatalf("MVis/s not converted: %+v", b.VisPerSec)
	}
	if b.AllocsPerOp == nil || *b.AllocsPerOp != 0 {
		t.Fatalf("allocs/op not parsed: %+v", b.AllocsPerOp)
	}
	if rep.Benchmarks[1].VisPerSec != nil {
		t.Fatal("plain benchmark must not have VisPerSec")
	}
}
