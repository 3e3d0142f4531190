package repro

import (
	"context"
	"errors"
	"math"
	"testing"

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

func TestParseFaultPolicyFacade(t *testing.T) {
	for name, want := range map[string]FaultPolicy{
		"fail-fast":     faulttol.FailFast,
		"skip-and-flag": faulttol.SkipAndFlag,
	} {
		got, err := ParseFaultPolicy(name)
		if err != nil || got != want {
			t.Fatalf("ParseFaultPolicy(%q) = %v, %v", name, got, err)
		}
	}
	for _, name := range []string{"nonsense", "retry"} {
		if _, err := ParseFaultPolicy(name); err == nil {
			t.Fatalf("policy %q accepted", name)
		}
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
