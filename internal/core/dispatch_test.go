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

// TestFloat32VectorKernelsMatchScalar pins the assembled float32 lanes
// of every vector tier the host has against the scalar tier's Go lanes,
// which round each product before adding it: all apply the same resync
// cadence and the same float64 seeding, so they agree to within twice
// the documented float32 bound (each side's drift plus accumulation
// rounding). The channel counts cover one and several registers of
// channels, the resync boundary and a third chunk.
func TestFloat32VectorKernelsMatchScalar(t *testing.T) {
	if len(coreHostTiers()) < 2 {
		t.Skip("vector kernels unavailable on this CPU")
	}
	const sg, nt = 16, 10
	for _, nc := range []int{3, 5, 8, 16, 21, 37, 64, 66, 130} {
		item, uvw, vis, maxAmp := tilingItem(97, nt, nc)
		in, pixAmp := randomSubgrid(sg, item, 101)
		scalK := tilingKernels(t, sg, nc, func(p *Params) {
			p.Precision = Float32
			forceTier(xmath.SIMDScalar)(p)
		})
		phaseBound := recurrencePhaseBound(scalK, item, uvw)
		b := grid.NewSubgrid(sg, item.X0, item.Y0)
		scalK.GridSubgrid(item, uvw, vis, nil, nil, b)
		vb := make([]xmath.Matrix2, nt*nc)
		scalK.DegridSubgrid(item, in, uvw, nil, nil, vb)
		for _, tier := range coreHostTiers()[1:] {
			vecK := tilingKernels(t, sg, nc, func(p *Params) {
				p.Precision = Float32
				forceTier(tier)(p)
			})
			a := grid.NewSubgrid(sg, item.X0, item.Y0)
			vecK.GridSubgrid(item, uvw, vis, nil, nil, a)
			tol := 2 * float32GridBound(nt*nc, maxAmp, phaseBound)
			if d := a.MaxAbsDiff(b); d > tol {
				t.Fatalf("nc=%d %v: float32 vector gridder differs from scalar by %g (bound %g)", nc, tier, d, tol)
			}
			va := make([]xmath.Matrix2, nt*nc)
			vecK.DegridSubgrid(item, in, uvw, nil, nil, va)
			tol = 2 * float32GridBound(sg*sg, pixAmp, phaseBound)
			if d := maxVisDiff(va, vb); d > tol {
				t.Fatalf("nc=%d %v: float32 vector degridder differs from scalar by %g (bound %g)", nc, tier, d, tol)
			}
		}
	}
}

// TestDispatchPerTier runs one item of every shape — uniform combs from
// two channels to three resync chunks, and the short and non-uniform
// shapes — through every tier the host has, in both precisions, against
// the reference transcription within the documented bounds, and holds
// the SIMDInfo strings to the dispatch: every tier's strings name the
// pixel-lane gridder and the fused degridder. Between tiers: in float64
// the scalar tier's Go lanes are avx2's bits in both directions, and
// every tier grids the same bits; the avx512 degridder differs by the
// association of the lane fold (the ZMM fold has twice the lanes) whatever
// the shape, in both precisions. Float32 on the scalar tier rounds each
// product before adding it, so it stays within the float32 bound of
// avx2 in both directions without being its bits.
func TestDispatchPerTier(t *testing.T) {
	const sg = 12
	for _, sh := range shortAndUniformShapes(8, 2, 3, 5, 8, 16, 21, 24, 37, 64, 66, 130) {
		nt, nc := sh.nt, sh.nc
		item, uvw, vis, maxAmp := tilingItem(103, nt, nc)
		in, pixAmp := randomSubgrid(sg, item, 107)
		ref := tilingKernels(t, sg, nc, func(p *Params) {
			sh.mod(p)
			p.disableBatching = true
		})
		want := grid.NewSubgrid(sg, item.X0, item.Y0)
		ref.GridSubgrid(item, uvw, vis, nil, nil, want)
		wantVis := make([]xmath.Matrix2, nt*nc)
		ref.DegridSubgrid(item, in, uvw, nil, nil, wantVis)
		phaseBound := recurrencePhaseBound(ref, item, uvw)
		tol64 := 2*2*math.Sqrt2*float64(nt*nc)*maxAmp*phaseBound + 1e-9
		tolVis64 := 2*2*math.Sqrt2*float64(sg*sg)*pixAmp*phaseBound + 1e-9
		grids := map[Precision]map[xmath.SIMDTier]*grid.Subgrid{Float64: {}, Float32: {}}
		visOf := map[Precision]map[xmath.SIMDTier][]xmath.Matrix2{Float64: {}, Float32: {}}
		for _, tier := range coreHostTiers() {
			for _, prec := range []Precision{Float64, Float32} {
				k := tilingKernels(t, sg, nc, func(p *Params) {
					p.Precision = prec
					sh.mod(p)
					forceTier(tier)(p)
				})
				for _, tiles := range []string{k.SIMDInfo().Tiles64, k.SIMDInfo().Tiles32} {
					if !strings.Contains(tiles, "pixel-lane gridder") || !strings.Contains(tiles, "fused degridder") {
						t.Fatalf("%s tier %v: tiles=%q", sh.name, tier, tiles)
					}
				}
				got := grid.NewSubgrid(sg, item.X0, item.Y0)
				k.GridSubgrid(item, uvw, vis, nil, nil, got)
				gotVis := make([]xmath.Matrix2, nt*nc)
				k.DegridSubgrid(item, in, uvw, nil, nil, gotVis)
				tol, tolVis := tol64, tolVis64
				if prec == Float32 {
					tol = 2*float32GridBound(nt*nc, maxAmp, phaseBound) + 1e-9
					tolVis = 2*float32GridBound(sg*sg, pixAmp, phaseBound) + 1e-9
				}
				grids[prec][tier], visOf[prec][tier] = got, gotVis
				d := got.MaxAbsDiff(want)
				if d > tol {
					t.Fatalf("%s tier %v %v: gridder differs from reference by %g (bound %g)", sh.name, tier, prec, d, tol)
				}
				if prec == Float32 {
					t.Logf("%s tier %v float32 gridder: error %.3g, %.2g of the bound", sh.name, tier, d, d/tol)
				}
				d = maxVisDiff(gotVis, wantVis)
				if d > tolVis {
					t.Fatalf("%s tier %v %v: degridder differs from reference by %g (bound %g)", sh.name, tier, prec, d, tolVis)
				}
				if prec == Float32 {
					t.Logf("%s tier %v float32 degridder: error %.3g, %.2g of the largest visibility, %.2g of the bound",
						sh.name, tier, d, d/maxVisDiff(wantVis, make([]xmath.Matrix2, len(wantVis))), d/tolVis)
				}
			}
		}
		for _, tier := range coreHostTiers()[1:] {
			if !subgridsEqual(grids[Float64][tier], grids[Float64][xmath.SIMDScalar]) {
				t.Fatalf("%s: the float64 gridder's bits differ between %v and scalar", sh.name, tier)
			}
		}
		if xmath.DetectedSIMD() < xmath.SIMDAVX2 {
			continue
		}
		if !visEqual(visOf[Float64][xmath.SIMDAVX2], visOf[Float64][xmath.SIMDScalar]) {
			t.Fatalf("%s: the float64 degridder's bits differ between avx2 and scalar", sh.name)
		}
		// Float32: each side's drift plus accumulation rounding.
		if d, tol := grids[Float32][xmath.SIMDAVX2].MaxAbsDiff(grids[Float32][xmath.SIMDScalar]), 2*float32GridBound(nt*nc, maxAmp, phaseBound); d > tol {
			t.Fatalf("%s: float32 gridder avx2 against scalar differs by %g (bound %g)", sh.name, d, tol)
		}
		if d, tol := maxVisDiff(visOf[Float32][xmath.SIMDAVX2], visOf[Float32][xmath.SIMDScalar]), 2*float32GridBound(sg*sg, pixAmp, phaseBound); d > tol {
			t.Fatalf("%s: float32 degridder avx2 against scalar differs by %g (bound %g)", sh.name, d, tol)
		}
		if xmath.DetectedSIMD() < xmath.SIMDAVX512 {
			continue
		}
		for _, prec := range []Precision{Float64, Float32} {
			if !subgridsEqual(grids[prec][xmath.SIMDAVX512], grids[prec][xmath.SIMDAVX2]) {
				t.Fatalf("%s %v: the gridder's bits differ between avx512 and avx2", sh.name, prec)
			}
			if visEqual(visOf[prec][xmath.SIMDAVX512], visOf[prec][xmath.SIMDAVX2]) {
				t.Fatalf("%s %v: the avx512 degridder's bits are avx2's: the ZMM fold did not run", sh.name, prec)
			}
		}
		// Sixteen roundings per accumulated term, terms of at most
		// sqrt2*amp: measured 0.15-0.45 % of this.
		if d, tol := maxVisDiff(visOf[Float64][xmath.SIMDAVX512], visOf[Float64][xmath.SIMDAVX2]), 16*float64(sg*sg)*math.Sqrt2*pixAmp*0x1p-52; d > tol {
			t.Fatalf("%s: float64 degridder avx512 against avx2 differs by %g (reassociation bound %g)", sh.name, d, tol)
		}
	}
}

// maxVisDiff is the largest component distance between two visibility
// sets.
func maxVisDiff(a, b []xmath.Matrix2) float64 {
	m := 0.0
	for i := range a {
		for p := 0; p < 4; p++ {
			m = math.Max(m, cmplx.Abs(a[i][p]-b[i][p]))
		}
	}
	return m
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
	// Per tier through the forceSIMD seam: the float64 string names the
	// bodies that tier dispatches, so a 512-bit number is never read
	// against a 256-bit description or the other way round.
	for _, tier := range coreHostTiers() {
		want64, want32 := tiles64Scalar, tiles32Scalar
		lanes64, lanes32 := 1, 1 // the roofline's vector size: the widest body per precision
		switch tier {
		case xmath.SIMDAVX2:
			want64, want32 = tiles64AVX2, tiles32AVX2
			lanes64, lanes32 = 4, 8
		case xmath.SIMDAVX512:
			want64, want32 = tiles64AVX512, tiles32AVX512
			lanes64, lanes32 = 8, 16
		}
		ti := tilingKernels(t, 8, 8, forceTier(tier)).SIMDInfo()
		if ti.Active != tier.String() || ti.Tiles64 != want64 || ti.Tiles32 != want32 || ti.Sincos != "sincosvec/"+tier.String() {
			t.Fatalf("forceSIMD=%v reports active=%q tiles64=%q tiles32=%q sincos=%q", tier, ti.Active, ti.Tiles64, ti.Tiles32, ti.Sincos)
		}
		ti32 := tilingKernels(t, 8, 8, func(p *Params) {
			p.Precision = Float32
			forceTier(tier)(p)
		}).SIMDInfo()
		if ti.Lanes != lanes64 || ti32.Lanes != lanes32 {
			t.Fatalf("forceSIMD=%v reports %d float64 and %d float32 lanes, want %d and %d", tier, ti.Lanes, ti32.Lanes, lanes64, lanes32)
		}
	}
	if !strings.Contains(si.String(), "simd: detected=") {
		t.Fatalf("SIMDInfo.String() = %q", si.String())
	}
}

// TestKernelPathVector32Counter: the float32 tiles report their own
// dispatch counter, so measured float32 numbers are attributable to the
// kernel that produced them.
func TestKernelPathVector32Counter(t *testing.T) {
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
}

// TestShortAndNonUniformItemsTakeVectorPath: every item shape of either
// precision runs the pixel-lane tiles — the one- and two-channel items
// below the recurrence threshold and a non-uniform comb too.
func TestShortAndNonUniformItemsTakeVectorPath(t *testing.T) {
	const sg, nt = 8, 6
	vector := map[Precision]string{Float64: obs.MetricKernelPathVector, Float32: obs.MetricKernelPathVector32}
	for _, prec := range []Precision{Float64, Float32} {
		for _, freqs := range [][]float64{{150e6}, {150e6, 150.25e6}, nonUniformComb} {
			nc := len(freqs)
			item, uvw, vis, _ := tilingItem(127, nt, nc)
			ob := obs.New(0)
			k := tilingKernels(t, sg, nc, func(p *Params) {
				p.Frequencies = freqs
				p.Precision = prec
				p.Observer = ob
			})
			out := grid.NewSubgrid(sg, item.X0, item.Y0)
			k.GridSubgrid(item, uvw, vis, nil, nil, out)
			snap := ob.Metrics.Snapshot()
			if got := snap.Counters[vector[prec]]; got != 1 {
				t.Errorf("%v nc=%d: %s = %d, want 1", prec, nc, vector[prec], got)
			}
		}

		// And through a whole pass, there and back, over a plan of the
		// sparse workload's item shape (two channels, at most eight time
		// steps per subgrid).
		sc := defaultScenarioConfig()
		sc.nc, sc.tmax, sc.atermInterval, sc.precision = 2, 8, 16, prec
		s, ob := observedScenario(t, sc)
		s.fillFromModel(nil)
		g := grid.NewGrid(s.plan.GridSize)
		if _, err := gridPlain(context.Background(), s.kernels, s.plan, s.vs, nil, g); err != nil {
			t.Fatal(err)
		}
		if _, err := degridPlain(context.Background(), s.kernels, s.plan, s.vs, nil, g); err != nil {
			t.Fatal(err)
		}
		snap := ob.Metrics.Snapshot()
		if got, want := snap.Counters[vector[prec]], int64(2*len(s.plan.Items)); got != want {
			t.Errorf("%v short-item passes: %s = %d, want %d (every item, both ways)", prec, vector[prec], got, want)
		}
	}
}
