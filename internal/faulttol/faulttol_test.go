package faulttol

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/plan"
)

func TestPolicyStringRoundtrip(t *testing.T) {
	for _, p := range []Policy{FailFast, SkipAndFlag} {
		got, err := ParsePolicy(p.String())
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", p.String(), err)
		}
		if got != p {
			t.Fatalf("ParsePolicy(%q) = %v, want %v", p.String(), got, p)
		}
	}
	for _, name := range []string{"explode", "retry"} {
		_, err := ParsePolicy(name)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unknown policy %q", name)) {
			t.Fatalf("ParsePolicy(%q) = %v, want the unknown-policy error", name, err)
		}
	}
	if s := Policy(99).String(); !strings.Contains(s, "99") {
		t.Fatalf("unknown policy String() = %q", s)
	}
}

func TestRunPassesThroughResults(t *testing.T) {
	if err := Run(func() error { return nil }); err != nil {
		t.Fatalf("nil-returning fn: %v", err)
	}
	sentinel := errors.New("boom")
	if err := Run(func() error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("error-returning fn: %v", err)
	}
}

func TestRunConvertsPanicToKernelPanic(t *testing.T) {
	err := Run(func() error { panic("index out of range") })
	if !errors.Is(err, ErrKernelPanic) {
		t.Fatalf("panic not classified as kernel panic: %v", err)
	}
	if errors.Is(err, ErrBadInput) {
		t.Fatalf("plain panic classified as bad input: %v", err)
	}
	if !strings.Contains(err.Error(), "index out of range") {
		t.Fatalf("panic value lost: %v", err)
	}
}

func TestRunPreservesBadInputPanics(t *testing.T) {
	cause := fmt.Errorf("%w: mismatched buffers", ErrBadInput)
	err := Run(func() error { panic(cause) })
	if !errors.Is(err, ErrBadInput) {
		t.Fatalf("bad-input panic not typed: %v", err)
	}
	if errors.Is(err, ErrKernelPanic) {
		t.Fatalf("bad-input panic double-classified as kernel panic: %v", err)
	}
}

func TestCanceledWrapsBothSentinels(t *testing.T) {
	err := Canceled(context.DeadlineExceeded)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("not ErrCanceled: %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("context sentinel lost: %v", err)
	}
	if !errors.Is(Canceled(nil), ErrCanceled) {
		t.Fatal("Canceled(nil) not ErrCanceled")
	}
}

func TestItemErrorFormatsAndUnwraps(t *testing.T) {
	ie := &ItemError{Baseline: 7, TimeStart: 32, Channel0: 2,
		Err: fmt.Errorf("%w: oops", ErrKernelPanic)}
	if !errors.Is(ie, ErrKernelPanic) {
		t.Fatalf("ItemError does not unwrap to cause: %v", ie)
	}
	msg := ie.Error()
	for _, want := range []string{"baseline 7", "t0 32", "ch0 2", "oops"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("Error() = %q missing %q", msg, want)
		}
	}
}

func TestReportAccounting(t *testing.T) {
	r := NewReport(Config{MaxErrors: 2})
	r.RecordSuccess()
	r.RecordSuccess()
	for i := 0; i < 4; i++ {
		r.RecordSkip(&ItemError{Baseline: i, Err: ErrKernelPanic}, 100)
	}
	if r.ItemsProcessed != 2 {
		t.Fatalf("success counts: %+v", r)
	}
	if r.ItemsSkipped != 4 || r.DroppedVisibilities != 400 {
		t.Fatalf("skip counts: %+v", r)
	}
	if len(r.ItemErrors) != 2 {
		t.Fatalf("error sample not bounded: %d", len(r.ItemErrors))
	}
	if !r.Degraded() {
		t.Fatal("report with skips not Degraded")
	}
	s := r.String()
	if !strings.Contains(s, "4 skipped") || !strings.Contains(s, "400 visibilities") {
		t.Fatalf("String() = %q", s)
	}
}

func TestReportMerge(t *testing.T) {
	a := NewReport(Config{})
	a.RecordSuccess()
	b := NewReport(Config{})
	b.RecordSuccess()
	b.RecordSkip(&ItemError{Err: ErrKernelPanic}, 64)
	a.Merge(b)
	a.Merge(nil)
	if a.ItemsProcessed != 2 || a.ItemsSkipped != 1 || a.DroppedVisibilities != 64 {
		t.Fatalf("merge result: %+v", a)
	}
	if len(a.ItemErrors) != 1 {
		t.Fatalf("merged error sample: %d", len(a.ItemErrors))
	}
}

// TestReportConcurrentUse exercises the report from many goroutines;
// meaningful under -race.
func TestReportConcurrentUse(t *testing.T) {
	r := NewReport(Config{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.RecordSuccess()
				r.RecordSkip(&ItemError{Err: ErrKernelPanic}, 1)
			}
		}()
	}
	wg.Wait()
	if r.ItemsProcessed != 800 || r.ItemsSkipped != 800 || r.DroppedVisibilities != 800 {
		t.Fatalf("concurrent counts off: %+v", r)
	}
}

func TestHookReceivesItem(t *testing.T) {
	var got []int
	cfg := Config{Hook: func(item plan.WorkItem) {
		got = append(got, item.Baseline)
	}}
	cfg.Hook(plan.WorkItem{Baseline: 5})
	if len(got) != 1 || got[0] != 5 {
		t.Fatalf("hook args: %v", got)
	}
}

func TestReportStateRoundTrip(t *testing.T) {
	rep := NewReport(Config{Policy: SkipAndFlag})
	rep.ItemsProcessed = 7
	rep.ItemsSkipped = 1
	rep.DroppedVisibilities = 640

	st := rep.State()
	restored := NewReport(Config{Policy: SkipAndFlag})
	restored.RestoreState(st)
	if restored.ItemsProcessed != 7 || restored.ItemsSkipped != 1 ||
		restored.DroppedVisibilities != 640 {
		t.Fatalf("restored report %+v", restored)
	}
}

func TestReportNotes(t *testing.T) {
	rep := NewReport(Config{})
	rep.AddNote("checkpoint: fell back one snapshot")
	if rep.Degraded() {
		t.Fatal("a note alone must not mark the run degraded")
	}
	other := NewReport(Config{})
	other.AddNote("checkpoint: no usable snapshot; restarted clean")
	rep.Merge(other)
	if len(rep.Notes) != 2 {
		t.Fatalf("merged notes = %v", rep.Notes)
	}
}
