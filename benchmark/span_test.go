package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

const ms = time.Millisecond

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100 * ms, Parent: noSpan},
		{Name: "grid", Start: 10 * ms, End: 50 * ms, Parent: 0},
		{Name: "kernel", Start: 20 * ms, End: 45 * ms, Parent: 1},
		{Name: "degrid", Start: 60 * ms, End: 90 * ms, Parent: 0},
	}
	want := []time.Duration{30 * ms, 15 * ms, 25 * ms, 30 * ms}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got, want[i])
		}
	}
}

// Two clients' sessions overlap in time under one root; the covered
// interval is their union, not their sum, and a child running past its
// parent's end is clipped.
func TestSelfTimeMergesOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100 * ms, Parent: noSpan},
		{Name: "a", Start: 10 * ms, End: 60 * ms, Parent: 0},
		{Name: "b", Start: 40 * ms, End: 80 * ms, Parent: 0},
		{Name: "c", Start: 90 * ms, End: 120 * ms, Parent: 0},
	}
	if got, want := selfTimes(spans)[0], 20*ms; got != want {
		t.Errorf("root self time = %v, want %v (100 - [10,80] - [90,100])", got, want)
	}
}

func TestTracerRecordsParentsAndNilTracerStillTimes(t *testing.T) {
	tr := newTracer("w")
	var inner int
	tr.run(noSpan, "outer", func(id int) {
		tr.run(id, "inner", func(id2 int) { inner = id2; time.Sleep(2 * ms) })
	})
	if len(tr.spans) != 2 || tr.spans[inner].Parent != 0 || tr.spans[0].Parent != noSpan {
		t.Fatalf("unexpected span tree: %+v", tr.spans)
	}
	if tr.spans[inner].End-tr.spans[inner].Start < 2*ms {
		t.Errorf("inner span shorter than its sleep: %+v", tr.spans[inner])
	}
	if self := tr.selfByName(); self["outer"]+self["inner"] != tr.spans[0].End-tr.spans[0].Start {
		t.Errorf("self times %v do not add up to the root span", self)
	}

	var untraced *tracer
	ran := false
	d := untraced.run(noSpan, "x", func(id int) {
		ran = id == noSpan
		time.Sleep(2 * ms)
	})
	if !ran || d < 2*ms {
		t.Errorf("nil tracer: ran=%v d=%v", ran, d)
	}
	if len(untraced.selfByName()) != 0 {
		t.Error("nil tracer should have no self times")
	}
}

func TestChromeTraceFile(t *testing.T) {
	tr := newTracer("dense")
	tr.run(noSpan, "op.cycle", func(id int) { tr.run(id, "fft.grid", func(int) {}) })
	path := filepath.Join(t.TempDir(), "sub", "trace-dense.json")
	if err := tr.writeChromeTrace(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 || doc.TraceEvents[1].Name != "fft.grid" || doc.TraceEvents[1].Ph != "X" ||
		doc.TraceEvents[1].Tid != doc.TraceEvents[0].Tid || doc.TraceEvents[0].Args["workload"] != "dense" {
		t.Errorf("unexpected trace events: %+v", doc.TraceEvents)
	}
}
