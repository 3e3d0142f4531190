package layout

import (
	"math"
	"testing"
)

func TestSKA1LowCounts(t *testing.T) {
	cfg := SKA1LowConfig()
	st := Generate(cfg)
	if len(st) != 150 {
		t.Fatalf("got %d stations, want 150", len(st))
	}
	if NrBaselines(len(st)) != 11175 {
		t.Fatalf("got %d baselines, want 11175 (paper Section VI-A)", NrBaselines(len(st)))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(SKA1LowConfig())
	b := Generate(SKA1LowConfig())
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("station %d differs between runs", i)
		}
	}
}

func TestCoreStationsInsideCore(t *testing.T) {
	cfg := SKA1LowConfig()
	st := Generate(cfg)
	nCore := int(float64(cfg.NrStations) * cfg.CoreFraction)
	for i := 0; i < nCore; i++ {
		r := math.Hypot(st[i].E, st[i].N)
		if r > cfg.CoreRadius+1e-9 {
			t.Fatalf("core station %d at radius %.1f m > core radius %.1f m", i, r, cfg.CoreRadius)
		}
	}
}

func TestArmStationsSpanRadii(t *testing.T) {
	cfg := SKA1LowConfig()
	st := Generate(cfg)
	nCore := int(float64(cfg.NrStations) * cfg.CoreFraction)
	minR, maxR := math.Inf(1), 0.0
	for _, s := range st[nCore:] {
		r := math.Hypot(s.E, s.N)
		minR = math.Min(minR, r)
		maxR = math.Max(maxR, r)
	}
	if minR > 2*cfg.CoreRadius {
		t.Fatalf("innermost arm station at %.0f m; arms should start near the core", minR)
	}
	if maxR < 0.8*cfg.MaxRadius {
		t.Fatalf("outermost arm station at %.0f m; arms should reach ~%.0f m", maxR, cfg.MaxRadius)
	}
	if maxR > 1.1*cfg.MaxRadius {
		t.Fatalf("arm station beyond max radius: %.0f m", maxR)
	}
}

func TestUniqueNames(t *testing.T) {
	st := Generate(SKA1LowConfig())
	seen := make(map[string]bool, len(st))
	for _, s := range st {
		if seen[s.Name] {
			t.Fatalf("duplicate station name %q", s.Name)
		}
		seen[s.Name] = true
	}
}

func TestLOFARLikeConfig(t *testing.T) {
	st := Generate(LOFARLikeConfig())
	if len(st) != 50 {
		t.Fatalf("got %d stations, want 50", len(st))
	}
}

func TestGenerateValidation(t *testing.T) {
	for _, cfg := range []Config{
		{NrStations: 1, ArmCount: 3},
		{NrStations: 10, ArmCount: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for %+v", cfg)
				}
			}()
			Generate(cfg)
		}()
	}
}
