package repro

import (
	"context"
	"errors"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/faulttol"
	"repro/internal/grid"
)

// TestFacadeSkipAndFlagSurvivesCorruption: through the public API,
// corrupt an observation, flag the corruption, grid under
// skip-and-flag, and verify the image stays finite with a clean
// report.
func TestFacadeSkipAndFlagSurvivesCorruption(t *testing.T) {
	obs, err := smallObservation().Build()
	if err != nil {
		t.Fatal(err)
	}
	pix := obs.ImageSize / float64(obs.Config.GridSize)
	if err := obs.FillFromModel(SkyModel{{L: 20 * pix, M: -12 * pix, I: 2}}); err != nil {
		t.Fatal(err)
	}
	corrupted := faultinject.CorruptVisibilities(obs.Vis, 0.01, 77)
	if len(corrupted) == 0 {
		t.Fatal("nothing corrupted")
	}
	stats, err := obs.FlagVisibilities(FlaggingConfig{NonFinite: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.NonFinite != int64(len(corrupted)) {
		t.Fatalf("flagged %d non-finite samples, corrupted %d", stats.NonFinite, len(corrupted))
	}

	g, _, rep, err := obs.GridAllStreamed(context.Background(), nil, FaultConfig{Policy: faulttol.SkipAndFlag})
	if err != nil {
		t.Fatal(err)
	}
	// Flagged samples are zero-weight, not dropped: nothing degrades.
	if rep.Degraded() {
		t.Fatalf("flagged run degraded: %v", rep)
	}
	for c := range g.Data {
		for _, v := range g.Data[c] {
			re, im := real(v), imag(v)
			if math.IsNaN(re) || math.IsInf(re, 0) || math.IsNaN(im) || math.IsInf(im, 0) {
				t.Fatal("grid not finite")
			}
		}
	}
}

// Unflagged corruption under fail-fast is rejected as bad input, and
// under skip-and-flag it is dropped with exact accounting.
func TestFacadeUnflaggedCorruptionPolicies(t *testing.T) {
	obs, err := smallObservation().Build()
	if err != nil {
		t.Fatal(err)
	}
	faultinject.CorruptVisibilities(obs.Vis, 0.01, 3)

	if _, _, _, err := obs.GridAllStreamed(context.Background(), nil, FaultConfig{Policy: faulttol.FailFast}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("fail-fast over NaN data: got %v, want ErrBadInput", err)
	}
	var ie *faulttol.ItemError
	if _, _, _, err := obs.GridAllStreamed(context.Background(), nil, FaultConfig{Policy: faulttol.FailFast}); !errors.As(err, &ie) {
		t.Fatalf("failure not a faulttol.ItemError: %v", err)
	}

	g, _, rep, err := obs.GridAllStreamed(context.Background(), nil, FaultConfig{Policy: faulttol.SkipAndFlag})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded() || rep.DroppedVisibilities == 0 {
		t.Fatalf("degradation not reported: %v", rep)
	}
	for c := range g.Data {
		for _, v := range g.Data[c] {
			if math.IsNaN(real(v)) || math.IsNaN(imag(v)) {
				t.Fatal("NaN leaked into the grid")
			}
		}
	}
}

// TestFacadeCancellation: every context-accepting facade entry point
// returns ErrCanceled on an already-canceled context.
func TestFacadeCancellation(t *testing.T) {
	obs, err := smallObservation().Build()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, _, err := obs.GridAll(ctx, nil); !errors.Is(err, ErrCanceled) {
		t.Fatalf("GridAll: %v", err)
	}
	if _, err := obs.DegridAll(ctx, nil, grid.NewGrid(obs.Config.GridSize)); !errors.Is(err, ErrCanceled) {
		t.Fatalf("DegridAll: %v", err)
	}
	if _, err := obs.DirtyImage(ctx, nil); !errors.Is(err, ErrCanceled) {
		t.Fatalf("DirtyImage: %v", err)
	}
	if _, err := obs.psf(ctx); !errors.Is(err, ErrCanceled) {
		t.Fatalf("PSF: %v", err)
	}
	// The canceled error also matches the context sentinel.
	_, _, err = obs.GridAll(ctx, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("context sentinel lost: %v", err)
	}
}

// TestFacadeRetryBackoffAndBudget: gridding and degridding share one
// item-attempt loop, so under the Retry policy both wait out
// RetryBackoff between the attempts of a flaky item, and both stop
// retrying a permanently failing item once RetryBudget is spent,
// leaving the exhaustion note in the report.
func TestFacadeRetryBackoffAndBudget(t *testing.T) {
	obs, err := smallObservation().Build()
	if err != nil {
		t.Fatal(err)
	}
	pix := obs.ImageSize / float64(obs.Config.GridSize)
	if err := obs.FillFromModel(SkyModel{{L: 20 * pix, M: -12 * pix, I: 2}}); err != nil {
		t.Fatal(err)
	}
	g, _, err := obs.GridAll(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	victim := obs.Plan.Items[len(obs.Plan.Items)/2]
	isVictim := func(item WorkItem) bool {
		return item.Baseline == victim.Baseline && item.TimeStart == victim.TimeStart && item.Channel0 == victim.Channel0
	}
	passes := map[string]func(FaultConfig) (*FaultReport, error){
		"GridAllStreamed": func(ft FaultConfig) (*FaultReport, error) {
			_, _, rep, err := obs.GridAllStreamed(context.Background(), nil, ft)
			return rep, err
		},
		"DegridVisibilitiesFT": func(ft FaultConfig) (*FaultReport, error) {
			_, rep, err := obs.Kernels.DegridVisibilitiesFT(context.Background(), obs.Plan, obs.Vis, nil, g, ft)
			return rep, err
		},
	}
	for name, pass := range passes {
		t.Run(name+"/backoff", func(t *testing.T) {
			const backoff = 30 * time.Millisecond
			var mu sync.Mutex
			var attempts []time.Time
			rep, err := pass(FaultConfig{
				Policy: faulttol.Retry, MaxRetries: 2, RetryBackoff: backoff,
				Hook: func(item WorkItem, attempt int) {
					if !isVictim(item) {
						return
					}
					mu.Lock()
					attempts = append(attempts, time.Now())
					mu.Unlock()
					if attempt == 1 {
						panic("flaky injected fault")
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.ItemsRetried != 1 || rep.Degraded() {
				t.Fatalf("report = %s, want exactly one retried item and no skips", rep)
			}
			if len(attempts) != 2 {
				t.Fatalf("victim was attempted %d times, want 2", len(attempts))
			}
			if gap := attempts[1].Sub(attempts[0]); gap < backoff {
				t.Fatalf("re-attempt came %v after the failure, want >= RetryBackoff %v", gap, backoff)
			}
		})
		t.Run(name+"/budget", func(t *testing.T) {
			ft := FaultConfig{
				Policy: faulttol.Retry, MaxRetries: 5,
				RetryBackoff: 20 * time.Millisecond,
				RetryBudget:  20 * time.Millisecond, // covers the first backoff only
				Hook: func(item WorkItem, attempt int) {
					if isVictim(item) {
						panic("permanent injected fault")
					}
				},
			}
			rep, err := pass(ft)
			var ie *faulttol.ItemError
			if !errors.As(err, &ie) {
				t.Fatalf("permanently failing item: got %v, want a faulttol.ItemError", err)
			}
			if ie.Attempts < 2 || ie.Attempts >= 1+ft.MaxRetries {
				t.Fatalf("item made %d attempts; the budget covers one retry, not all %d", ie.Attempts, ft.MaxRetries)
			}
			if !slices.Contains(rep.Notes, "faulttol: retry backoff budget exhausted; remaining failures were not retried") {
				t.Fatalf("report notes %v lack the budget-exhaustion note", rep.Notes)
			}
		})
	}
}

func TestParseFaultPolicyFacade(t *testing.T) {
	for name, want := range map[string]FaultPolicy{
		"fail-fast":     faulttol.FailFast,
		"retry":         faulttol.Retry,
		"skip-and-flag": faulttol.SkipAndFlag,
	} {
		got, err := ParseFaultPolicy(name)
		if err != nil || got != want {
			t.Fatalf("ParseFaultPolicy(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseFaultPolicy("nonsense"); err == nil {
		t.Fatal("bad policy accepted")
	}
}

// NewVisibilitySet through the facade returns typed errors instead of
// panicking on bad dimensions.
func TestFacadeVisibilitySetErrors(t *testing.T) {
	if _, err := NewVisibilitySet(nil, nil, 1); !errors.Is(err, ErrBadInput) {
		t.Fatalf("empty set: %v", err)
	}
	if _, err := NewVisibilitySet([]Baseline{{P: 0, Q: 1}}, [][]UVW{{{U: 1}}}, 0); !errors.Is(err, ErrBadInput) {
		t.Fatalf("zero channels: %v", err)
	}
}
