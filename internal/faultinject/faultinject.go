// Package faultinject is a deterministic fault-injection harness for
// the IDG pipelines. It corrupts visibilities with NaN/Inf values,
// builds faulttol hooks that panic or delay inside selected work
// items, and selects its victims by hashing stable item coordinates —
// the same seed always hits the same items regardless of worker
// scheduling, so chaos tests can predict the exact degradation the
// pipeline must report.
package faultinject

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/faulttol"
	"repro/internal/plan"
)

// hash64 is FNV-1a over a fixed-width key; deterministic across runs
// and platforms (unlike hash/maphash).
func hash64(seed uint64, parts ...int) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset) ^ (seed * prime)
	for _, p := range parts {
		v := uint64(p)
		for b := 0; b < 8; b++ {
			h ^= (v >> (8 * b)) & 0xff
			h *= prime
		}
	}
	return h
}

// selected maps a hash to a Bernoulli(fraction) draw.
func selected(h uint64, fraction float64) bool {
	if fraction <= 0 {
		return false
	}
	if fraction >= 1 {
		return true
	}
	return float64(h>>11)/float64(1<<53) < fraction
}

// Selector deterministically picks a fraction of work items by
// hashing (Baseline, TimeStart, Channel0) with a seed.
type Selector struct {
	// Fraction is the expected fraction of items selected in [0, 1].
	Fraction float64
	// Seed varies the selection.
	Seed uint64
}

// Selected reports whether the item is a victim.
func (s Selector) Selected(item plan.WorkItem) bool {
	return selected(hash64(s.Seed, item.Baseline, item.TimeStart, item.Channel0), s.Fraction)
}

// Count returns how many of the given items the selector hits.
func (s Selector) Count(items []plan.WorkItem) int {
	n := 0
	for i := range items {
		if s.Selected(items[i]) {
			n++
		}
	}
	return n
}

// SelectedVisibilities sums the visibilities covered by selected
// items — the exact degradation a skip-and-flag run must report when
// every selected item fails permanently.
func (s Selector) SelectedVisibilities(items []plan.WorkItem) int64 {
	var n int64
	for i := range items {
		if s.Selected(items[i]) {
			n += int64(items[i].NrVisibilities())
		}
	}
	return n
}

// PanicHook returns a hook that panics inside the selected items — a
// crashing kernel.
func PanicHook(sel Selector) faulttol.Hook {
	return func(item plan.WorkItem) {
		if sel.Selected(item) {
			panic("faultinject: injected kernel panic")
		}
	}
}

// DelayHook returns a hook that sleeps for d inside selected items — a
// straggling worker for cancellation and deadline tests.
func DelayHook(sel Selector, d time.Duration) faulttol.Hook {
	return func(item plan.WorkItem) {
		if sel.Selected(item) {
			time.Sleep(d)
		}
	}
}

// Kill is the panic value thrown by CrashHook to simulate the process
// dying at a checkpoint-protocol point: unlike an injected kernel
// panic it is thrown outside the faulttol recovery scope, so it
// unwinds the whole streamed pass exactly like a kill -9 would end it
// (modulo deferred cleanup). Chaos tests recover it at the top and
// then exercise the resume path.
type Kill struct {
	// Event is the checkpoint-protocol point the crash fired at.
	Event checkpoint.Event
	// Chunk is the last committed chunk index at the crash (-1 if
	// none).
	Chunk int
}

// String describes the simulated crash.
func (k Kill) String() string {
	return fmt.Sprintf("faultinject: simulated kill at %s (chunk %d)", k.Event, k.Chunk)
}

// CrashHook returns a checkpoint.Hook that panics with a Kill at the
// first occurrence of event ev with a committed-chunk index >=
// atChunk (use atChunk < 0 for the first occurrence of ev at all).
// The hook fires at most once, so a resumed run that installs the
// same hook value is not re-killed. Crash points are deterministic:
// the scheduler fires checkpoint events from its coordinating
// goroutine in chunk order.
func CrashHook(ev checkpoint.Event, atChunk int) checkpoint.Hook {
	var fired atomic.Bool
	return func(e checkpoint.Event, chunk int) {
		if e != ev || chunk < atChunk {
			return
		}
		if fired.CompareAndSwap(false, true) {
			panic(Kill{Event: e, Chunk: chunk})
		}
	}
}

// Corruption identifies one corrupted visibility sample.
type Corruption struct {
	Baseline, Timestep, Channel int
}

// CorruptVisibilities overwrites a deterministic fraction of samples
// with NaNs (every correlation) and returns the corrupted sample
// coordinates. The same seed corrupts the same samples.
func CorruptVisibilities(vs *core.VisibilitySet, fraction float64, seed uint64) []Corruption {
	nan := complex(math.NaN(), math.NaN())
	var out []Corruption
	for b := range vs.Data {
		for t := 0; t < vs.NrTimesteps; t++ {
			for c := 0; c < vs.NrChannels; c++ {
				if !selected(hash64(seed, b, t, c), fraction) {
					continue
				}
				for p := 0; p < 4; p++ {
					vs.Data[b][t*vs.NrChannels+c][p] = nan
				}
				out = append(out, Corruption{Baseline: b, Timestep: t, Channel: c})
			}
		}
	}
	return out
}
