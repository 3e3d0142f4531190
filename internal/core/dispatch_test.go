package core

import (
	"context"
	"math"
	"math/cmplx"
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/xmath"
)

// coreHostTiers enumerates every SIMD tier this host can execute, so
// the per-tier tests cover the full dispatch matrix on capable
// hardware and degrade to the scalar row elsewhere. The forceSIMD seam
// exercises the same tier resolution the IDG_SIMD environment override
// feeds (ci runs the short suite again under IDG_SIMD=scalar/avx2 to
// cover the env entry point itself).
func coreHostTiers() []xmath.SIMDTier {
	tiers := []xmath.SIMDTier{xmath.SIMDScalar}
	for tr := xmath.SIMDAVX2; tr <= xmath.DetectedSIMD(); tr++ {
		tiers = append(tiers, tr)
	}
	return tiers
}

// forceTier pins a Kernels value's dispatch tier via the test seam.
func forceTier(tier xmath.SIMDTier) func(*Params) {
	return func(p *Params) { p.forceSIMD = &tier }
}

// TestFloat32VectorKernelsMatchScalar pins the hand-vectorized
// eight-lane float32 path against the generic float32 tiles: both
// apply the same resync cadence and the same float64 seeding, so they
// agree to within twice the documented float32 bound (each side's
// drift plus accumulation rounding) on hardware where the vector
// kernels run at all.
func TestFloat32VectorKernelsMatchScalar(t *testing.T) {
	if dispatchFor(xmath.ActiveSIMD()).gridVec32 == nil {
		t.Skip("vector kernels unavailable on this CPU")
	}
	const sg, nt, nc = 16, 10, 21 // nc with a 5-channel tail past 2 octs
	item, uvw, vis, maxAmp := tilingItem(97, nt, nc)
	in, pixAmp := randomSubgrid(sg, item, 101)
	vecK := tilingKernels(t, sg, nc, func(p *Params) { p.Precision = Float32 })
	scalK := tilingKernels(t, sg, nc, func(p *Params) {
		p.Precision = Float32
		forceTier(xmath.SIMDScalar)(p)
	})
	phaseBound := recurrencePhaseBound(vecK, item, uvw)

	a := grid.NewSubgrid(sg, item.X0, item.Y0)
	b := grid.NewSubgrid(sg, item.X0, item.Y0)
	vecK.GridSubgrid(item, uvw, vis, nil, nil, a)
	scalK.GridSubgrid(item, uvw, vis, nil, nil, b)
	tol := 2 * float32GridBound(nt*nc, maxAmp, phaseBound)
	if d := a.MaxAbsDiff(b); d > tol {
		t.Fatalf("float32 vector gridder differs from scalar by %g (bound %g)", d, tol)
	}

	va := make([]xmath.Matrix2, nt*nc)
	vb := make([]xmath.Matrix2, nt*nc)
	vecK.DegridSubgrid(item, in, uvw, nil, nil, va)
	scalK.DegridSubgrid(item, in, uvw, nil, nil, vb)
	npix := sg * sg
	tol = 2 * float32GridBound(npix, pixAmp, phaseBound)
	for i := range va {
		for p := 0; p < 4; p++ {
			if d := cmplx.Abs(va[i][p] - vb[i][p]); d > tol {
				t.Fatalf("float32 vector degridder differs from scalar by %g at vis %d (bound %g)", d, i, tol)
			}
		}
	}
}

// TestDispatchPerTier runs both precisions at every executable tier
// (forceSIMD seam) against the reference transcription: the dispatch
// table must route to a kernel whose result stays within the
// documented per-precision bound no matter which tier is active.
func TestDispatchPerTier(t *testing.T) {
	const sg, nt, nc = 12, 8, 21 // tails on both lane widths
	item, uvw, vis, maxAmp := tilingItem(103, nt, nc)
	ref := tilingKernels(t, sg, nc, func(p *Params) { p.DisableBatching = true })
	want := grid.NewSubgrid(sg, item.X0, item.Y0)
	ref.GridSubgrid(item, uvw, vis, nil, nil, want)
	phaseBound := recurrencePhaseBound(ref, item, uvw)
	for _, tier := range coreHostTiers() {
		for _, prec := range []Precision{Float64, Float32} {
			k := tilingKernels(t, sg, nc, func(p *Params) {
				p.Precision = prec
				forceTier(tier)(p)
			})
			got := grid.NewSubgrid(sg, item.X0, item.Y0)
			k.GridSubgrid(item, uvw, vis, nil, nil, got)
			tol := 2*2*math.Sqrt2*float64(nt*nc)*maxAmp*phaseBound + 1e-9
			if prec == Float32 {
				tol = 2*float32GridBound(nt*nc, maxAmp, phaseBound) + 1e-9
			}
			if d := got.MaxAbsDiff(want); d > tol {
				t.Fatalf("tier %v %v: gridder differs from reference by %g (bound %g)", tier, prec, d, tol)
			}
		}
	}
}

// TestSIMDInfo pins the dispatch report: the strings the commands log
// must reflect the tier resolution and kernel selection actually in
// effect.
func TestSIMDInfo(t *testing.T) {
	def := tilingKernels(t, 8, 8, nil)
	si := def.SIMDInfo()
	if _, err := xmath.ParseSIMDTier(si.Detected); err != nil {
		t.Fatalf("Detected %q does not parse: %v", si.Detected, err)
	}
	active, err := xmath.ParseSIMDTier(si.Active)
	if err != nil {
		t.Fatalf("Active %q does not parse: %v", si.Active, err)
	}
	if active > xmath.DetectedSIMD() {
		t.Fatalf("active tier %v exceeds detected %v", active, xmath.DetectedSIMD())
	}
	if xmath.ActiveSIMD() >= xmath.SIMDAVX2 {
		want32 := "avx2+fma 8-lane"
		if xmath.ActiveSIMD() >= xmath.SIMDAVX512 {
			want32 = "avx2+fma 8-lane, evex 2-pixel blocks"
		}
		if si.Tiles64 != "avx2+fma 4-lane: time-blocked recurrence, direct phasors" || si.Tiles32 != want32 {
			t.Fatalf("vector-capable host reports tiles64=%q tiles32=%q", si.Tiles64, si.Tiles32)
		}
	} else if si.Tiles64 != "generic" || si.Tiles32 != "generic" {
		t.Fatalf("scalar host reports tiles64=%q tiles32=%q", si.Tiles64, si.Tiles32)
	}
	// tilingKernels configures SincosAccurate, so the batch evaluator
	// must degrade to the configured scalar function and say so.
	if si.Sincos != "scalar (configured)" {
		t.Fatalf("configured-evaluator kernels report sincos=%q", si.Sincos)
	}
	// The default evaluator batches through SincosVec.
	defFast := tilingKernels(t, 8, 8, func(p *Params) { p.Sincos = nil })
	if got := defFast.SIMDInfo().Sincos; !strings.HasPrefix(got, "sincosvec/") {
		t.Fatalf("default-evaluator kernels report sincos=%q", got)
	}
	// Forced-scalar kernels report generic tiles.
	if si := tilingKernels(t, 8, 8, forceTier(xmath.SIMDScalar)).SIMDInfo(); si.Tiles64 != "generic" || si.Tiles32 != "generic" {
		t.Fatalf("forceSIMD=scalar reports tiles64=%q tiles32=%q", si.Tiles64, si.Tiles32)
	}
	if !strings.Contains(si.String(), "simd: detected=") {
		t.Fatalf("SIMDInfo.String() = %q", si.String())
	}
}

// TestKernelPathVector32Counter: the float32 vector path reports its
// own dispatch counter, so measured float32 numbers are attributable
// to the kernel that produced them.
func TestKernelPathVector32Counter(t *testing.T) {
	if dispatchFor(xmath.ActiveSIMD()).gridVec32 == nil {
		t.Skip("vector kernels unavailable on this CPU")
	}
	const sg, nt, nc = 8, 4, 16
	item, uvw, vis, _ := tilingItem(113, nt, nc)
	ob := obs.New(0)
	k := tilingKernels(t, sg, nc, func(p *Params) {
		p.Precision = Float32
		p.Observer = ob
	})
	out := grid.NewSubgrid(sg, item.X0, item.Y0)
	k.GridSubgrid(item, uvw, vis, nil, nil, out)
	pv := make([]xmath.Matrix2, nt*nc)
	k.DegridSubgrid(item, out, uvw, nil, nil, pv)
	snap := ob.Metrics.Snapshot()
	if got := snap.Counters[obs.MetricKernelPathVector32]; got != 2 {
		t.Fatalf("%s = %d, want 2 (one gridder + one degridder call)",
			obs.MetricKernelPathVector32, got)
	}
	if got := snap.Counters[obs.MetricKernelPathTiled32]; got != 0 {
		t.Fatalf("generic float32 path counted %d on a vector-capable host", got)
	}
}

// TestShortAndNonUniformItemsTakeVectorPath: on a vector-capable tier
// no float64 item shape may fall back to the generic scalar tile — not
// the one- and two-channel items below the recurrence threshold, not a
// non-uniform comb.
func TestShortAndNonUniformItemsTakeVectorPath(t *testing.T) {
	skipWithoutVectorKernels(t)
	const sg, nt = 8, 6
	for _, freqs := range [][]float64{{150e6}, {150e6, 150.25e6}, nonUniformComb} {
		nc := len(freqs)
		item, uvw, vis, _ := tilingItem(127, nt, nc)
		ob := obs.New(0)
		k := tilingKernels(t, sg, nc, func(p *Params) {
			p.Frequencies = freqs
			p.Observer = ob
		})
		out := grid.NewSubgrid(sg, item.X0, item.Y0)
		k.GridSubgrid(item, uvw, vis, nil, nil, out)
		snap := ob.Metrics.Snapshot()
		if got := snap.Counters[obs.MetricKernelPathVector]; got != 1 {
			t.Errorf("nc=%d: %s = %d, want 1", nc, obs.MetricKernelPathVector, got)
		}
		if got := snap.Counters[obs.MetricKernelPathTiled64]; got != 0 {
			t.Errorf("nc=%d: generic float64 tile counted %d on a vector-capable tier", nc, got)
		}
	}

	// And through a whole pass over a plan of the sparse workload's item
	// shape (two channels, at most eight time steps per subgrid).
	sc := defaultScenarioConfig()
	sc.nc, sc.tmax, sc.atermInterval = 2, 8, 16
	s, ob := observedScenario(t, sc)
	s.fillFromModel(nil)
	g := grid.NewGrid(s.plan.GridSize)
	if _, err := s.kernels.GridVisibilities(context.Background(), s.plan, s.vs, nil, g); err != nil {
		t.Fatal(err)
	}
	snap := ob.Metrics.Snapshot()
	if got, want := snap.Counters[obs.MetricKernelPathVector], int64(len(s.plan.Items)); got != want {
		t.Errorf("short-item pass: %s = %d, want %d (every item)", obs.MetricKernelPathVector, got, want)
	}
	if got := snap.Counters[obs.MetricKernelPathTiled64]; got != 0 {
		t.Errorf("short-item pass: generic float64 tile counted %d", got)
	}
}
