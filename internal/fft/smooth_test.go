package fft

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/xmath"
)

// smoothSizes is the conformance table of the lane-parallel mixed-radix
// schedule: every leaf (2, 3, 5, 8) and every combine radix, alone and
// stacked, at sizes on both sides of the whole-plane tile limit.
var smoothSizes = []int{6, 10, 12, 15, 20, 24, 30, 40, 48, 60}

// dft2DDirect is the separable direct 2-D DFT (rows, then columns).
func dft2DDirect(x []complex128, n int) []complex128 {
	out := make([]complex128, n*n)
	for r := 0; r < n; r++ {
		copy(out[r*n:], DFTDirect(x[r*n:(r+1)*n]))
	}
	col := make([]complex128, n)
	for c := 0; c < n; c++ {
		for r := 0; r < n; r++ {
			col[r] = out[r*n+c]
		}
		for r, v := range DFTDirect(col) {
			out[r*n+c] = v
		}
	}
	return out
}

func TestSmoothMatchesDirectDFTAndInverts(t *testing.T) {
	for _, n := range smoothSizes {
		if NewPlan(n).smooth == nil {
			t.Fatalf("n=%d does not take the mixed-radix schedule", n)
		}
		tol := 1e-12 * float64(n)

		x := randSignal(int64(900+n), n)
		got := append([]complex128(nil), x...)
		p := NewPlan(n)
		p.Forward(got)
		if d := maxRelDiff(got, DFTDirect(x)); d > tol {
			t.Errorf("n=%d: 1-D forward off the direct DFT by %g", n, d)
		}
		p.Inverse(got)
		if d := maxRelDiff(got, x); d > tol {
			t.Errorf("n=%d: 1-D inverse(forward) off the input by %g", n, d)
		}

		x2 := randSignal(int64(950+n), n*n)
		got2 := append([]complex128(nil), x2...)
		p2 := NewPlan2D(n, n)
		p2.Forward(got2)
		if d := maxRelDiff(got2, dft2DDirect(x2, n)); d > tol {
			t.Errorf("n=%d: 2-D forward off the direct DFT by %g", n, d)
		}
		p2.Inverse(got2)
		if d := maxRelDiff(got2, x2); d > tol {
			t.Errorf("n=%d: 2-D inverse(forward) off the input by %g", n, d)
		}
	}
}

// The fused centering (sign checkerboards folded into the transposes and
// the scatter) must agree with explicit shifts around the plain
// transform, in both directions, for even and odd smooth sizes.
func TestSmoothFusedCenteringMatchesShifts(t *testing.T) {
	for _, n := range smoothSizes {
		p := NewPlan2D(n, n)
		for _, inverse := range []bool{false, true} {
			x := randSignal(int64(1000+n), n*n)
			want := append([]complex128(nil), x...)
			InverseShift2D(want, n, n)
			if inverse {
				p.Inverse(want)
			} else {
				p.Forward(want)
			}
			Shift2D(want, n, n)
			got := append([]complex128(nil), x...)
			if inverse {
				p.InverseCentered(got)
			} else {
				p.ForwardCentered(got)
			}
			if d := maxRelDiff(got, want); d > 1e-13*float64(n) {
				t.Errorf("n=%d inverse=%v: centered transform off the shifted one by %g", n, inverse, d)
			}
		}
	}
}

// One lane and n lanes run the same arithmetic: column c of a 2-D
// column pass equals the 1-D transform of that column bit for bit, on
// whole-plane tiles and on colBlock tiles alike, and so does the
// result the last stage stores transposed.
func TestSmoothLanesBitwiseEqualOneLane(t *testing.T) {
	for _, n := range append([]int{72, 96}, smoothSizes...) {
		p := NewPlan(n)
		for _, inverse := range []bool{false, true} {
			for _, w := range []int{1, 2, 7, n} {
				src := randSignal(int64(1100+n+w), n*w)
				dst, dstT := make([]complex128, n*w), make([]complex128, n*w)
				p.smooth.run(p.tier, make([]complex128, n*w), src, w, w, inverse, smoothOut{dst: dst, ds: w, dl: 1, s0: 1, s1: 1})
				p.smooth.run(p.tier, make([]complex128, n*w), src, w, w, inverse, smoothOut{dst: dstT, ds: 1, dl: n})
				col := make([]complex128, n)
				for c := 0; c < w; c++ {
					for r := range col {
						col[r] = src[r*w+c]
					}
					p.smooth.transform1D(p.tier, col, nil, inverse)
					for r := range col {
						if col[r] != dst[r*w+c] || col[r] != dstT[c*n+r] {
							t.Fatalf("n=%d w=%d inverse=%v: lane %d row %d: %v, transposed %v != %v",
								n, w, inverse, c, r, dst[r*w+c], dstT[c*n+r], col[r])
						}
					}
				}
			}
		}
	}
}

// Plans built on every tier give bitwise equal transforms.
func TestSmoothTiersBitwise(t *testing.T) {
	defer func(orig func() xmath.SIMDTier) { planTier = orig }(planTier)
	tiers := []xmath.SIMDTier{xmath.SIMDScalar, xmath.SIMDAVX2, xmath.SIMDAVX512}
	for _, n := range append([]int{96}, smoothSizes...) {
		x := randSignal(int64(1200+n), n*n)
		var ref []complex128
		for _, tier := range tiers {
			if tier > xmath.DetectedSIMD() {
				continue
			}
			tier := tier
			planTier = func() xmath.SIMDTier { return tier }
			got := append([]complex128(nil), x...)
			p := NewPlan2D(n, n)
			p.ForwardCentered(got)
			p.Inverse(got)
			if ref == nil {
				ref = got
				continue
			}
			for i := range ref {
				if ref[i] != got[i] {
					t.Fatalf("n=%d tier %v elem %d: %v != scalar %v", n, tier, i, got[i], ref[i])
				}
			}
		}
	}
}

func TestSmoothConcurrentOnOnePlan(t *testing.T) {
	for _, n := range []int{24, 60, 96} {
		p := NewPlan2D(n, n)
		x := randSignal(int64(1300+n), n*n)
		ref := append([]complex128(nil), x...)
		p.ForwardCentered(ref)
		var wg sync.WaitGroup
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for iter := 0; iter < 10; iter++ {
					got := append([]complex128(nil), x...)
					p.ForwardCentered(got)
					for i := range got {
						if got[i] != ref[i] {
							t.Errorf("n=%d: concurrent transform diverged at %d", n, i)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	}
}

func TestSmoothZeroAlloc(t *testing.T) {
	if testing.CoverMode() != "" || raceEnabled {
		t.Skip("cover/race instrumentation allocates")
	}
	for _, n := range smoothSizes {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			p1, x1 := CachedPlan(n), make([]complex128, n)
			if a := testing.AllocsPerRun(10, func() { p1.Forward(x1); p1.Inverse(x1) }); a > 0 {
				t.Errorf("1-D: %v allocs/op", a)
			}
			p2 := CachedPlan2D(n, n)
			x2 := make([]complex128, n*n)
			p2.Forward(x2) // warm the scratch pool
			if a := testing.AllocsPerRun(10, func() { p2.Forward(x2); p2.Inverse(x2) }); a > 0 {
				t.Errorf("2-D: %v allocs/op", a)
			}
		})
	}
}
