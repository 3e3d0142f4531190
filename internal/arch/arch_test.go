package arch

import (
	"math"
	"testing"
)

// TestTableIValues pins the platform descriptions to Table I of the
// paper.
func TestTableIValues(t *testing.T) {
	h, f, p := Haswell(), Fiji(), Pascal()

	if h.NrFPUs() != 448 {
		t.Fatalf("Haswell FPUs = %d, want 448", h.NrFPUs())
	}
	if f.NrFPUs() != 4096 {
		t.Fatalf("Fiji FPUs = %d, want 4096", f.NrFPUs())
	}
	if p.NrFPUs() != 2560 {
		t.Fatalf("Pascal FPUs = %d, want 2560", p.NrFPUs())
	}

	cases := []struct {
		pl         *Platform
		peak, bw   float64
		tdp, clock float64
	}{
		{h, 2.78, 136, 290, 2.60},
		{f, 8.60, 512, 275, 1.05},
		{p, 9.22, 320, 180, 1.80},
	}
	for _, c := range cases {
		if c.pl.PeakTFlops != c.peak || c.pl.MemBandwidthGBs != c.bw ||
			c.pl.TDPWatts != c.tdp || c.pl.ClockGHz != c.clock {
			t.Fatalf("%s: Table I values wrong: %+v", c.pl.Name, c.pl)
		}
	}
}

func TestFijiPeakConsistentWithConfig(t *testing.T) {
	// For the GPUs the peak follows from FPUs x 2 x clock.
	f := Fiji()
	want := float64(f.NrFPUs()) * 2 * f.ClockGHz * 1e9 / 1e12
	if math.Abs(want-f.PeakTFlops) > 0.01 {
		t.Fatalf("Fiji peak %g inconsistent with config (%g)", f.PeakTFlops, want)
	}
	p := Pascal()
	want = float64(p.NrFPUs()) * 2 * p.ClockGHz * 1e9 / 1e12
	if math.Abs(want-p.PeakTFlops) > 0.01 {
		t.Fatalf("Pascal peak %g inconsistent with config (%g)", p.PeakTFlops, want)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"HASWELL", "FIJI", "PASCAL"} {
		p, err := ByName(name)
		if err != nil || p.Name != name {
			t.Fatalf("ByName(%q) failed: %v", name, err)
		}
	}
	if _, err := ByName("EPYC"); err == nil {
		t.Fatal("expected error for unknown platform")
	}
}

func TestMixFractionLimits(t *testing.T) {
	for _, p := range Platforms() {
		// Pure FMA stream reaches the peak.
		if f := p.MixFraction(1e9); math.Abs(f-1) > 1e-6 {
			t.Fatalf("%s: fraction at huge rho = %g, want 1", p.Name, f)
		}
		// Fractions never exceed 1 (the ops definition counts a
		// sincos pair as only 2 ops).
		for _, rho := range []float64{0, 0.5, 1, 2, 4, 8, 17, 64, 1024} {
			if f := p.MixFraction(rho); f < 0 || f > 1 {
				t.Fatalf("%s: fraction(%g) = %g out of range", p.Name, rho, f)
			}
		}
	}
}

func TestMixFractionMonotone(t *testing.T) {
	for _, p := range Platforms() {
		prev := -1.0
		for rho := 0.25; rho <= 4096; rho *= 2 {
			f := p.MixFraction(rho)
			if f < prev-1e-12 {
				t.Fatalf("%s: fraction not monotone at rho=%g", p.Name, rho)
			}
			prev = f
		}
	}
}

// TestSincosHardwareAdvantage reproduces the core observation of
// Fig. 12: at the kernels' rho = 17, Pascal retains nearly its full
// throughput thanks to the SFUs, while Fiji and Haswell lose half or
// more of theirs.
func TestSincosHardwareAdvantage(t *testing.T) {
	h, f, p := Haswell(), Fiji(), Pascal()
	fh := h.MixFraction(KernelRho)
	ff := f.MixFraction(KernelRho)
	fp := p.MixFraction(KernelRho)
	if fp < 0.90 {
		t.Fatalf("Pascal fraction at rho=17 is %.3f, want >= 0.90 (SFU overlap)", fp)
	}
	if ff > 0.60 || ff < 0.40 {
		t.Fatalf("Fiji fraction at rho=17 is %.3f, want ~0.5 (quarter-rate ALUs)", ff)
	}
	if fh > 0.30 {
		t.Fatalf("Haswell fraction at rho=17 is %.3f, want <= 0.30 (software sincos)", fh)
	}
	if !(fp > ff && ff > fh) {
		t.Fatalf("ordering violated: pascal %.3f, fiji %.3f, haswell %.3f", fp, ff, fh)
	}
}

// TestPascalSFUSaturation: for very small rho the SFU queue becomes
// the bottleneck and even Pascal's throughput falls.
func TestPascalSFUSaturation(t *testing.T) {
	p := Pascal()
	if f := p.MixFraction(1); f > 0.5 {
		t.Fatalf("Pascal at rho=1 should be SFU-bound, got fraction %.3f", f)
	}
	// But still far better than the ALU platforms.
	if p.MixFraction(1) < 2*Fiji().MixFraction(1) {
		t.Fatal("Pascal should dominate Fiji at small rho")
	}
}

func TestMixFractionPanicsOnNegativeRho(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Haswell().MixFraction(-1)
}

func TestMixOpsPerSec(t *testing.T) {
	p := Pascal()
	if got := p.MixOpsPerSec(1e9); math.Abs(got-9.22e12) > 1e9 {
		t.Fatalf("peak ops = %g", got)
	}
}

// TestHostLike pins the synthetic host platform used by cmd/idgbench
// for its measured-vs-roofline readout.
func TestHostLike(t *testing.T) {
	h := HostLike(4, 4)
	if h.NrComputeUnits != 4 {
		t.Fatalf("cores = %d", h.NrComputeUnits)
	}
	// Peak must be cores * clock * FPU issue * vector width * 2 (FMA),
	// at the lane width the caller measured with.
	for _, lanes := range []int{1, 4, 8} {
		hl := HostLike(4, lanes)
		want := 4 * 2.7e9 * 2 * float64(lanes) * 2 / 1e12
		if hl.VectorSize != lanes || math.Abs(hl.PeakTFlops-want) > 1e-9 {
			t.Fatalf("lanes=%d: VectorSize = %d, PeakTFlops = %g, want %g", lanes, hl.VectorSize, hl.PeakTFlops, want)
		}
	}
	// Degenerate counts clamp to one unit instead of a zero roof.
	if h0 := HostLike(0, 0); h0.NrComputeUnits < 1 || h0.VectorSize < 1 || h0.PeakTFlops <= 0 {
		t.Fatalf("HostLike(0, 0) = %+v", h0)
	}
	// The sincos-bound mix fraction must behave like the other ALU
	// platforms: well below peak at rho=1, approaching peak at high rho.
	if f := h.MixFraction(1); f > 0.2 {
		t.Fatalf("host at rho=1 should be sincos-bound, got fraction %.3f", f)
	}
	if f := h.MixFraction(4096); f < 0.9 {
		t.Fatalf("host at rho=4096 should approach peak, got fraction %.3f", f)
	}
	// HOST is a diagnostic platform, not a paper row: it must not leak
	// into the Fig. 9-16 platform sweeps.
	for _, p := range Platforms() {
		if p.Name == h.Name {
			t.Fatal("HostLike leaked into Platforms()")
		}
	}
}
