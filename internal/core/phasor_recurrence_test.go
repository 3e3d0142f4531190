package core

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/grid"
	"repro/internal/plan"
	"repro/internal/uvwsim"
	"repro/internal/xmath"
)

// recurrenceTestSetup builds a pair of kernels over the same uniform
// channel comb: one using the phasor rotation recurrence, one forced
// onto the direct per-channel sincos path.
func recurrenceTestSetup(t *testing.T, nc int) (rec, direct *Kernels) {
	t.Helper()
	freqs := make([]float64, nc)
	for i := range freqs {
		freqs[i] = 150e6 + float64(i)*250e3
	}
	params := Params{
		GridSize: 256, SubgridSize: 16, ImageSize: 0.1, Frequencies: freqs,
	}
	rec, err := NewKernels(params)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.uniformScale {
		t.Fatal("uniform channel comb not detected")
	}
	params.disablePhasorRecurrence = true
	direct, err = NewKernels(params)
	if err != nil {
		t.Fatal(err)
	}
	if direct.uniformScale {
		t.Fatal("disablePhasorRecurrence must force the direct path")
	}
	return rec, direct
}

// recurrencePhaseBound returns the worst-case per-phasor angle error
// of the recurrence path against the direct path for a work item: the
// documented rotation bound at the configured re-sync interval, plus
// one more maxPhase*eps for reconstructing the phase affinely
// (base + c*delta) instead of as phaseIndex*scale[c] - phaseOffset.
func recurrencePhaseBound(k *Kernels, item plan.WorkItem, uvw []uvwsim.UVW) float64 {
	const eps = 0x1p-52
	uOff, vOff := k.uvOffset(item.X0, item.Y0)
	wOff := item.WOffset
	maxPhase := 0.0
	for i := range k.l {
		l, m, n := k.l[i], k.m[i], k.n[i]
		phaseOffset := twoPi * (uOff*l + vOff*m + wOff*n)
		for _, c3 := range uvw {
			phaseIndex := c3.U*l + c3.V*m + c3.W*n
			for c := 0; c < item.NrChannels; c++ {
				p := math.Abs(phaseIndex*k.scale[item.Channel0+c] - phaseOffset)
				if p > maxPhase {
					maxPhase = p
				}
			}
		}
	}
	return xmath.PhasorErrorBound(xmath.DefaultPhasorResync, maxPhase) + maxPhase*eps
}

// sincosEvalError bounds the absolute error of the kernels' one
// sine/cosine evaluator (xmath.SincosFast and its lanes, SincosVec)
// against math.Sincos over the kernels' argument range: measured
// 2.52e-10, at the ends of its polynomials' [-pi/2, pi/2] (xmath's
// TestSincosFastAccuracy holds it to this bound).
const sincosEvalError = 2.6e-10

// evaluatedPhaseBound is recurrencePhaseBound for two paths that
// evaluate the phasor of one (pixel, time step, channel) at different
// arguments — the recurrence at its resync base, the direct path and
// the reference kernels at the channel itself — and so may see the
// evaluator's error twice, once on each side, before any recurrence
// error (xmath.TestPhasorRecurrenceWithinBound isolates that one).
func evaluatedPhaseBound(k *Kernels, item plan.WorkItem, uvw []uvwsim.UVW) float64 {
	return recurrencePhaseBound(k, item, uvw) + 2*sincosEvalError
}

// TestGridderRecurrenceWithinBound is the kernel-level property test
// of the recurrence: over random work items the recurrence gridder
// matches the direct gridder to within the documented phasor bound,
// plus the evaluator's error on either side, accumulated over the
// item's visibilities.
func TestGridderRecurrenceWithinBound(t *testing.T) {
	const nc, nt = 16, 20
	rec, direct := recurrenceTestSetup(t, nc)
	rnd := newTestRand(41)
	for trial := 0; trial < 10; trial++ {
		item := plan.WorkItem{NrTimesteps: nt, NrChannels: nc, X0: 100, Y0: 90}
		uvw := make([]uvwsim.UVW, nt)
		for i := range uvw {
			uvw[i] = uvwsim.UVW{U: 50 * rnd(), V: 50 * rnd(), W: 5 * rnd()}
		}
		vis := make([]xmath.Matrix2, nt*nc)
		maxAmp := 0.0
		for i := range vis {
			for p := 0; p < 4; p++ {
				vis[i][p] = complex(rnd(), rnd())
				if a := cmplx.Abs(vis[i][p]); a > maxAmp {
					maxAmp = a
				}
			}
		}
		a := grid.NewSubgrid(16, item.X0, item.Y0)
		b := grid.NewSubgrid(16, item.X0, item.Y0)
		rec.GridSubgrid(item, uvw, vis, nil, nil, a)
		direct.GridSubgrid(item, uvw, vis, nil, nil, b)
		// Each of the nt*nc phasors is off by at most the phase bound,
		// rotating its visibility by at most sqrt(2)*bound in each
		// component; 2x slack for the summation rounding.
		tol := 2 * math.Sqrt2 * float64(nt*nc) * maxAmp * evaluatedPhaseBound(rec, item, uvw)
		if d := a.MaxAbsDiff(b); d > tol {
			t.Fatalf("trial %d: recurrence gridder differs from direct by %g (bound %g)", trial, d, tol)
		}
	}
}

// TestDegridderRecurrenceWithinBound is the degridder analogue: each
// predicted visibility sums one phasor per pixel, so the error bound
// scales with the pixel count.
func TestDegridderRecurrenceWithinBound(t *testing.T) {
	const nc, nt = 16, 20
	rec, direct := recurrenceTestSetup(t, nc)
	rnd := newTestRand(43)
	for trial := 0; trial < 10; trial++ {
		item := plan.WorkItem{NrTimesteps: nt, NrChannels: nc, X0: 80, Y0: 120}
		uvw := make([]uvwsim.UVW, nt)
		for i := range uvw {
			uvw[i] = uvwsim.UVW{U: 50 * rnd(), V: 50 * rnd(), W: 5 * rnd()}
		}
		in := grid.NewSubgrid(16, item.X0, item.Y0)
		maxAmp := 0.0
		for c := range in.Data {
			for i := range in.Data[c] {
				in.Data[c][i] = complex(rnd(), rnd())
				if a := cmplx.Abs(in.Data[c][i]); a > maxAmp {
					maxAmp = a
				}
			}
		}
		visA := make([]xmath.Matrix2, nt*nc)
		visB := make([]xmath.Matrix2, nt*nc)
		rec.DegridSubgrid(item, in, uvw, nil, nil, visA)
		direct.DegridSubgrid(item, in, uvw, nil, nil, visB)
		npix := 16 * 16
		tol := 2 * math.Sqrt2 * float64(npix) * maxAmp * evaluatedPhaseBound(rec, item, uvw)
		maxDiff := 0.0
		for i := range visA {
			for p := 0; p < 4; p++ {
				if d := cmplx.Abs(visA[i][p] - visB[i][p]); d > maxDiff {
					maxDiff = d
				}
			}
		}
		if maxDiff > tol {
			t.Fatalf("trial %d: recurrence degridder differs from direct by %g (bound %g)", trial, maxDiff, tol)
		}
	}
}

// TestRecurrenceFallbackNonUniform: a non-uniform channel comb must
// disable the recurrence at kernel construction, and the kernels must
// still agree with the reference transcription.
func TestRecurrenceFallbackNonUniform(t *testing.T) {
	freqs := []float64{150e6, 150.3e6, 150.9e6, 151.0e6, 152.2e6}
	params := Params{
		GridSize: 256, SubgridSize: 16, ImageSize: 0.1, Frequencies: freqs,
	}
	k, err := NewKernels(params)
	if err != nil {
		t.Fatal(err)
	}
	if k.uniformScale {
		t.Fatal("non-uniform channel comb must disable the recurrence")
	}
	if k.useRecurrence(len(freqs)) {
		t.Fatal("useRecurrence must report false for non-uniform channels")
	}
	params.disableBatching = true
	ref, err := NewKernels(params)
	if err != nil {
		t.Fatal(err)
	}

	const nt = 7
	nc := len(freqs)
	item := plan.WorkItem{NrTimesteps: nt, NrChannels: nc, X0: 60, Y0: 140}
	rnd := newTestRand(47)
	uvw := make([]uvwsim.UVW, nt)
	for i := range uvw {
		uvw[i] = uvwsim.UVW{U: 30 * rnd(), V: 30 * rnd(), W: 3 * rnd()}
	}
	vis := make([]xmath.Matrix2, nt*nc)
	for i := range vis {
		for p := 0; p < 4; p++ {
			vis[i][p] = complex(rnd(), rnd())
		}
	}
	a := grid.NewSubgrid(16, item.X0, item.Y0)
	b := grid.NewSubgrid(16, item.X0, item.Y0)
	k.GridSubgrid(item, uvw, vis, nil, nil, a)
	ref.GridSubgrid(item, uvw, vis, nil, nil, b)
	if d := a.MaxAbsDiff(b); d > 1e-12 {
		t.Fatalf("non-uniform fallback differs from reference by %g", d)
	}
}
