// Package faulttol is the fault-tolerance layer of the IDG pipelines.
// Real interferometer data is riddled with RFI-corrupted samples, and
// a production gridding service cannot let one bad work item take down
// a whole imaging run: this package defines the error taxonomy shared
// by the pipelines (bad input, kernel panic, cancellation), the
// per-work-item failure policy (fail fast or skip-and-flag), the
// panic-isolating runner that converts a crashed kernel into a typed
// error, and the degradation report that accounts for every visibility
// dropped under graceful degradation.
//
// A work item is attempted once. The gridder and degridder are
// deterministic functions of their inputs, so an item that fails
// in-process fails again on the same input; faults that do recover are
// process-level (a crash or kill), and checkpoint resume and worker
// relaunch handle those.
package faulttol

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/plan"
)

// Sentinel errors classifying work-item failures. Wrapped errors
// always match via errors.Is.
var (
	// ErrBadInput marks deterministic input problems (non-finite
	// visibilities, mismatched dimensions).
	ErrBadInput = errors.New("faulttol: bad input")
	// ErrKernelPanic marks a panic recovered from a kernel or worker.
	ErrKernelPanic = errors.New("faulttol: kernel panic")
	// ErrCanceled marks a run aborted by context cancellation or
	// deadline expiry.
	ErrCanceled = errors.New("faulttol: canceled")
)

// Policy selects what the pipeline does with a failing work item.
type Policy int

const (
	// FailFast aborts the whole run on the first item failure
	// (the pre-fault-tolerance behavior, minus the crash).
	FailFast Policy = iota
	// SkipAndFlag drops failing items, records
	// them in the degradation report, and lets the run complete.
	SkipAndFlag
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case FailFast:
		return "fail-fast"
	case SkipAndFlag:
		return "skip-and-flag"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy converts a policy name (as printed by String) back.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "fail-fast", "failfast":
		return FailFast, nil
	case "skip-and-flag", "skip":
		return SkipAndFlag, nil
	}
	return FailFast, fmt.Errorf("faulttol: unknown policy %q", s)
}

// Hook runs before every work item when set in Config. It is the seam
// the fault-injection harness uses: a hook may panic (the runner
// recovers it like a kernel panic) or delay.
type Hook func(item plan.WorkItem)

// Config selects the failure policy of one pipeline run.
type Config struct {
	// Policy is the per-item failure disposition.
	Policy Policy
	// MaxErrors caps the per-item errors kept in the report
	// (default 16); the counts are always exact.
	MaxErrors int
	// Hook, when non-nil, runs before every item inside the
	// recovery scope. Used by fault injection; nil in production.
	Hook Hook
}

// ItemError is the typed per-work-item failure: which visibility block
// failed and the underlying cause.
type ItemError struct {
	// Baseline, TimeStart and Channel0 identify the work item's
	// visibility block.
	Baseline, TimeStart, Channel0 int
	// Err is the underlying cause (wraps a sentinel).
	Err error
}

// Error formats the failure.
func (e *ItemError) Error() string {
	return fmt.Sprintf("work item (baseline %d, t0 %d, ch0 %d) failed: %v",
		e.Baseline, e.TimeStart, e.Channel0, e.Err)
}

// Unwrap exposes the cause for errors.Is/As.
func (e *ItemError) Unwrap() error { return e.Err }

// Run executes fn, converting a panic into an error: a panic value
// that already wraps ErrBadInput is passed through as that error,
// anything else becomes an ErrKernelPanic.
func Run(fn func() error) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			if e, ok := rec.(error); ok && errors.Is(e, ErrBadInput) {
				err = e
				return
			}
			err = fmt.Errorf("%w: %v", ErrKernelPanic, rec)
		}
	}()
	return fn()
}

// Canceled wraps a context error so it matches both ErrCanceled and
// the original context sentinel.
func Canceled(cause error) error {
	if cause == nil {
		return ErrCanceled
	}
	return fmt.Errorf("%w: %w", ErrCanceled, cause)
}

// Report is the degradation report of one pipeline run under
// SkipAndFlag: exact counts of processed and skipped work
// items, the visibilities dropped with them, and a bounded sample of
// the per-item errors. Safe for concurrent use by the worker pool.
type Report struct {
	mu        sync.Mutex
	maxErrors int

	// ItemsProcessed counts work items that completed.
	ItemsProcessed int
	// ItemsSkipped counts items dropped under SkipAndFlag.
	ItemsSkipped int
	// DroppedVisibilities is the exact number of visibilities the
	// skipped items covered.
	DroppedVisibilities int64
	// ItemErrors samples up to MaxErrors skipped-item failures.
	ItemErrors []*ItemError
	// Notes records run-level degradation events that are not tied to
	// one work item: checkpoint fallbacks, clean restarts. Notes never
	// affect Degraded().
	Notes []string
}

// NewReport allocates a report for the given config.
func NewReport(cfg Config) *Report {
	max := cfg.MaxErrors
	if max <= 0 {
		max = 16
	}
	return &Report{maxErrors: max}
}

// RecordSuccess counts one completed item.
func (r *Report) RecordSuccess() {
	r.mu.Lock()
	r.ItemsProcessed++
	r.mu.Unlock()
}

// RecordSkip counts one dropped item and its visibilities.
func (r *Report) RecordSkip(e *ItemError, droppedVis int64) {
	r.mu.Lock()
	r.ItemsSkipped++
	r.DroppedVisibilities += droppedVis
	if len(r.ItemErrors) < r.maxErrors {
		r.ItemErrors = append(r.ItemErrors, e)
	}
	r.mu.Unlock()
}

// AddNote appends a run-level degradation note.
func (r *Report) AddNote(note string) {
	r.mu.Lock()
	r.Notes = append(r.Notes, note)
	r.mu.Unlock()
}

// ReportState is the serializable core of a Report: the exact counts,
// without the bounded error sample or notes. Checkpoints persist it so
// a resumed run's report continues from the interrupted run's counts.
type ReportState struct {
	ItemsProcessed      int
	ItemsSkipped        int
	DroppedVisibilities int64
}

// State snapshots the report's counts.
func (r *Report) State() ReportState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return ReportState{
		ItemsProcessed:      r.ItemsProcessed,
		ItemsSkipped:        r.ItemsSkipped,
		DroppedVisibilities: r.DroppedVisibilities,
	}
}

// RestoreState overwrites the report's counts with a checkpointed
// state (the sampled ItemErrors of the interrupted run are not
// persisted and stay empty).
func (r *Report) RestoreState(st ReportState) {
	r.mu.Lock()
	r.ItemsProcessed = st.ItemsProcessed
	r.ItemsSkipped = st.ItemsSkipped
	r.DroppedVisibilities = st.DroppedVisibilities
	r.mu.Unlock()
}

// Merge folds other into r (used when a run spans several pipeline
// invocations, e.g. W-stacking layers or major cycles).
func (r *Report) Merge(other *Report) {
	if other == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ItemsProcessed += other.ItemsProcessed
	r.ItemsSkipped += other.ItemsSkipped
	r.DroppedVisibilities += other.DroppedVisibilities
	for _, e := range other.ItemErrors {
		if len(r.ItemErrors) >= r.maxErrors {
			break
		}
		r.ItemErrors = append(r.ItemErrors, e)
	}
	r.Notes = append(r.Notes, other.Notes...)
}

// Degraded reports whether any work was dropped.
func (r *Report) Degraded() bool { return r.ItemsSkipped > 0 }

// String renders a one-line degradation summary.
func (r *Report) String() string {
	return fmt.Sprintf("faulttol: %d items ok, %d skipped, %d visibilities dropped",
		r.ItemsProcessed, r.ItemsSkipped, r.DroppedVisibilities)
}
