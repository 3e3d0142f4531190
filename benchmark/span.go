package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one traced call into a layer. Spans are recorded by the
// benchmark around its own calls (the program under test runs with a
// nil observer), kept in memory, and written out at exit.
type span struct {
	Name     string
	Workload string
	Start    time.Duration // since tracer start
	End      time.Duration
	Parent   int // index into tracer.spans, -1 for a root
}

// tracer collects spans. A nil *tracer is the untraced run: run still
// executes and times f, and records nothing.
type tracer struct {
	workload string
	t0       time.Time
	mu       sync.Mutex
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// noSpan is the parent of root spans (and every span id of a nil
// tracer).
const noSpan = -1

// run times f as a child of parent and returns its wall time; f
// receives the new span's id to parent its own calls with.
func (t *tracer) run(parent int, name string, f func(id int)) time.Duration {
	if t == nil {
		start := time.Now()
		f(noSpan)
		return time.Since(start)
	}
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Workload: t.workload, Parent: parent})
	t.mu.Unlock()
	start := time.Now()
	f(id)
	end := time.Now()
	t.mu.Lock()
	t.spans[id].Start, t.spans[id].End = start.Sub(t.t0), end.Sub(t.t0)
	t.mu.Unlock()
	return end.Sub(start)
}

// selfTimes returns, per span, its duration minus the part of that
// interval its direct children cover (overlapping children are merged
// first, so concurrent children are not subtracted twice).
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, until := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < until {
				lo = until
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				until = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// selfByName sums self time per span name.
func (t *tracer) selfByName() map[string]time.Duration {
	out := make(map[string]time.Duration)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, d := range selfTimes(t.spans) {
		out[t.spans[i].Name] += d
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace format.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`  // microseconds
	Dur  float64           `json:"dur"` // microseconds
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// writeChromeTrace writes the spans as chrome://tracing JSON. Each
// root span and its descendants share a lane (tid), so concurrent
// clients render side by side.
func (t *tracer) writeChromeTrace(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	lane := make([]int, len(spans))
	roots := make(map[string]int)
	events := make([]chromeEvent, len(spans))
	for i, s := range spans {
		if s.Parent < 0 {
			if _, ok := roots[s.Name]; !ok {
				roots[s.Name] = len(roots) + 1
			}
			lane[i] = roots[s.Name]
		} else {
			lane[i] = lane[s.Parent]
		}
		events[i] = chromeEvent{
			Name: s.Name, Cat: s.Workload, Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: lane[i],
			Args: map[string]string{"workload": s.Workload},
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
