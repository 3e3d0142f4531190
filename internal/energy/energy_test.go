package energy

import (
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/perfmodel"
)

// TestFig15Efficiencies pins the paper's headline energy numbers
// (Section VI-D): PASCAL achieves 32 and 23 GFlops/W for the gridder
// and degridder, FIJI about 13, and HASWELL only about 1.5.
func TestFig15Efficiencies(t *testing.T) {
	d := perfmodel.PaperDataset()
	cases := []struct {
		p         *arch.Platform
		gridder   float64
		degridder float64
		tol       float64
	}{
		{arch.Pascal(), 32, 23, 2.0},
		{arch.Fiji(), 13, 13, 1.5},
		{arch.Haswell(), 1.5, 1.5, 0.3},
	}
	for _, c := range cases {
		g := Efficiency(c.p, perfmodel.GridderCounts(d))
		dg := Efficiency(c.p, perfmodel.DegridderCounts(d))
		if math.Abs(g.GFlopsPerWatt-c.gridder) > c.tol {
			t.Fatalf("%s gridder %.1f GFlops/W, paper reports %.1f", c.p.Name, g.GFlopsPerWatt, c.gridder)
		}
		if math.Abs(dg.GFlopsPerWatt-c.degridder) > c.tol {
			t.Fatalf("%s degridder %.1f GFlops/W, paper reports %.1f", c.p.Name, dg.GFlopsPerWatt, c.degridder)
		}
	}
}

// TestGPUOrderOfMagnitudeLessEnergy: "also in terms of total energy
// consumption, the GPUs outperform the CPU by an order of magnitude.
// This is even true when the power consumption of the host is taken
// into account" (Section VI-D).
func TestGPUOrderOfMagnitudeLessEnergy(t *testing.T) {
	d := perfmodel.PaperDataset()
	cpu, err := Cycle(arch.Haswell(), d)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*arch.Platform{arch.Fiji(), arch.Pascal()} {
		gpu, err := Cycle(p, d)
		if err != nil {
			t.Fatal(err)
		}
		if ratio := cpu.Total() / gpu.Total(); ratio < 5 {
			t.Fatalf("%s uses only %.1fx less energy than HASWELL including host", p.Name, ratio)
		}
		if gpu.HostJoules <= 0 {
			t.Fatalf("%s host energy missing", p.Name)
		}
	}
}

// TestEnergyDominatedByKernels mirrors Fig. 14: most energy is spent
// in the gridder and degridder.
func TestEnergyDominatedByKernels(t *testing.T) {
	d := perfmodel.PaperDataset()
	for _, p := range arch.Platforms() {
		c, err := Cycle(p, d)
		if err != nil {
			t.Fatal(err)
		}
		frac := (c.Gridder.DeviceJoules + c.Degridder.DeviceJoules) / c.DeviceTotal()
		if frac < 0.9 {
			t.Fatalf("%s: gridder+degridder only %.0f%% of device energy", p.Name, 100*frac)
		}
	}
}

func TestCycleRejectsBadDataset(t *testing.T) {
	if _, err := Cycle(arch.Pascal(), perfmodel.Dataset{}); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestEfficiencyZeroDivGuard(t *testing.T) {
	// A zero-ops kernel (splitter) has zero flops and must report
	// zero efficiency without dividing by zero.
	d := perfmodel.PaperDataset()
	e := Efficiency(arch.Pascal(), perfmodel.SplitterCounts(d))
	if e.GFlopsPerWatt != 0 {
		t.Fatalf("splitter efficiency = %g, want 0", e.GFlopsPerWatt)
	}
	if e.Seconds <= 0 || e.DeviceJoules <= 0 {
		t.Fatal("splitter still consumes time and energy")
	}
}
