package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/xmath"
)

// engineSizes is the coverage matrix the radix-4 rework must hold on:
// every length 1..17 (all three 1-D paths and their leading-stage
// parities), the paper's 24-pixel subgrid, pure powers of two, a
// 2/3/5-smooth length and primes (Bluestein).
var engineSizes = []int{
	1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17,
	24, 32, 64, 60, 31, 127,
}

func randSignal(seed int64, n int) []complex128 {
	rnd := rand.New(rand.NewSource(seed))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rnd.NormFloat64(), rnd.NormFloat64())
	}
	return x
}

func maxRelDiff(got, want []complex128) float64 {
	var scale float64
	for _, v := range want {
		if a := cmplx.Abs(v); a > scale {
			scale = a
		}
	}
	if scale == 0 {
		scale = 1
	}
	var worst float64
	for i := range got {
		if d := cmplx.Abs(got[i]-want[i]) / scale; d > worst {
			worst = d
		}
	}
	return worst
}

// The new engine must match the naive O(n^2) DFT on every size.
func TestEngineMatchesDirectDFT(t *testing.T) {
	for _, n := range engineSizes {
		x := randSignal(int64(n), n)
		want := DFTDirect(x)
		got := append([]complex128(nil), x...)
		NewPlan(n).Forward(got)
		if d := maxRelDiff(got, want); d > 1e-12 {
			t.Errorf("n=%d: forward differs from direct DFT by %g", n, d)
		}
	}
}

// Forward then Inverse must reproduce the input on every size.
func TestEngineRoundTrip(t *testing.T) {
	for _, n := range engineSizes {
		x := randSignal(int64(200+n), n)
		got := append([]complex128(nil), x...)
		p := NewPlan(n)
		p.Forward(got)
		p.Inverse(got)
		if d := maxRelDiff(got, x); d > 1e-12 {
			t.Errorf("n=%d: roundtrip error %g", n, d)
		}
	}
}

// centeredDirect is the oracle of the centered 2-D transforms: explicit
// ifftshift, a separable naive DFT (rows, then columns) and explicit
// fftshift; the inverse conjugates around the forward DFT and scales.
func centeredDirect(x []complex128, rows, cols int, inverse bool) []complex128 {
	y := append([]complex128(nil), x...)
	InverseShift2D(y, rows, cols)
	if inverse {
		for i, v := range y {
			y[i] = cmplx.Conj(v)
		}
	}
	for r := 0; r < rows; r++ {
		copy(y[r*cols:(r+1)*cols], DFTDirect(y[r*cols:(r+1)*cols]))
	}
	col := make([]complex128, rows)
	for c := 0; c < cols; c++ {
		for r := range col {
			col[r] = y[r*cols+c]
		}
		for r, v := range DFTDirect(col) {
			y[r*cols+c] = v
		}
	}
	if inverse {
		scale := complex(1/float64(rows*cols), 0)
		for i, v := range y {
			y[i] = cmplx.Conj(v) * scale
		}
	}
	Shift2D(y, rows, cols)
	return y
}

// The fused-centering 2-D path must match explicit shifts around the
// naive DFT on even sizes (including rectangular and the odd-log2
// leading-stage case), and the odd-size fallback must match too.
func TestCenteredMatchesShiftedDirectDFT(t *testing.T) {
	cases := [][2]int{{2, 2}, {4, 4}, {8, 8}, {16, 16}, {24, 24}, {32, 32},
		{16, 24}, {24, 16}, {8, 32}, {25, 25}, {15, 9}, {64, 64}}
	for _, rc := range cases {
		rows, cols := rc[0], rc[1]
		x := randSignal(int64(rows*100+cols), rows*cols)
		p := NewPlan2D(rows, cols)
		for _, inverse := range []bool{false, true} {
			want := centeredDirect(x, rows, cols, inverse)
			got := append([]complex128(nil), x...)
			if inverse {
				p.InverseCentered(got)
			} else {
				p.ForwardCentered(got)
			}
			if d := maxRelDiff(got, want); d > 1e-12 {
				t.Errorf("%dx%d inverse=%v: fused centering differs from the shifted direct DFT by %g",
					rows, cols, inverse, d)
			}
		}
	}
}

// Centered forward then centered inverse must reproduce the input.
func TestCenteredRoundTrip2D(t *testing.T) {
	for _, rc := range [][2]int{{16, 16}, {24, 24}, {25, 25}, {24, 32}} {
		rows, cols := rc[0], rc[1]
		x := randSignal(int64(rows+cols), rows*cols)
		got := append([]complex128(nil), x...)
		p := NewPlan2D(rows, cols)
		p.ForwardCentered(got)
		p.InverseCentered(got)
		if d := maxRelDiff(got, x); d > 1e-12 {
			t.Errorf("%dx%d: centered roundtrip error %g", rows, cols, d)
		}
	}
}

// TransformPlanes must equal the per-plane centered transforms (with
// the forward normalization applied separately), bitwise.
func TestTransformPlanesMatchesCentered(t *testing.T) {
	for _, n := range []int{16, 24, 25} {
		p := NewPlan2D(n, n)
		scale := 1 / float64(n*n)
		for _, inverse := range []bool{false, true} {
			planes := make([][]complex128, 4)
			want := make([][]complex128, 4)
			for c := range planes {
				planes[c] = randSignal(int64(n*10+c), n*n)
				want[c] = append([]complex128(nil), planes[c]...)
				if inverse {
					p.InverseCentered(want[c])
				} else {
					p.ForwardCentered(want[c])
					for i := range want[c] {
						want[c][i] *= complex(scale, 0)
					}
				}
			}
			p.TransformPlanes(planes, inverse, scale)
			for c := range planes {
				for i := range planes[c] {
					if planes[c][i] != want[c][i] {
						t.Fatalf("n=%d inverse=%v plane %d elem %d: %v != %v",
							n, inverse, c, i, planes[c][i], want[c][i])
					}
				}
			}
		}
	}
}

// Plans built with the scalar tier must match plans built with the
// detected tier bitwise: the AVX2 butterflies perform the same IEEE
// operations as the scalar loops.
func TestEngineTierBitwise(t *testing.T) {
	defer func(orig func() xmath.SIMDTier) { planTier = orig }(planTier)
	for _, n := range []int{8, 16, 24, 32, 64, 128, 127} {
		x := randSignal(int64(300+n), n*n)

		planTier = func() xmath.SIMDTier { return xmath.SIMDScalar }
		scalar := append([]complex128(nil), x...)
		NewPlan2D(n, n).ForwardCentered(scalar)

		planTier = xmath.DetectedSIMD
		vec := append([]complex128(nil), x...)
		NewPlan2D(n, n).ForwardCentered(vec)

		for i := range scalar {
			if scalar[i] != vec[i] {
				t.Fatalf("n=%d elem %d: scalar %v != vector %v", n, i, scalar[i], vec[i])
			}
		}
	}
}

// Concurrent TransformPlanes calls from many goroutines share one
// plan's scratch pool; run under -race this checks the
// pooled buffers never alias.
func TestConcurrentPlaneTransformsRace(t *testing.T) {
	const n = 24
	p := NewPlan2D(n, n)
	scale := 1 / float64(n*n)
	want := randSignal(7, n*n)
	ref := append([]complex128(nil), want...)
	p.TransformPlanes([][]complex128{ref}, false, scale)

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 25; iter++ {
				x := append([]complex128(nil), want...)
				p.TransformPlanes([][]complex128{x}, false, scale)
				for i := range x {
					if x[i] != ref[i] {
						t.Errorf("concurrent transform diverged at %d", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// Steady-state transforms must not allocate: the column tiles, the
// 1-D scratch and the Bluestein convolution buffers are all pooled.
func TestTransformsZeroAlloc(t *testing.T) {
	if testing.CoverMode() != "" || raceEnabled {
		t.Skip("cover/race instrumentation allocates")
	}
	cases := []struct {
		name string
		run  func()
	}{
		{"ForwardCentered24", func() {
			p := CachedPlan2D(24, 24)
			x := make([]complex128, 24*24)
			p.ForwardCentered(x) // warm pools
			if n := testing.AllocsPerRun(10, func() { p.ForwardCentered(x) }); n > 0 {
				t.Errorf("ForwardCentered(24): %v allocs/op", n)
			}
		}},
		{"TransformPlanes16", func() {
			p := CachedPlan2D(16, 16)
			planes := make([][]complex128, 4)
			for c := range planes {
				planes[c] = make([]complex128, 16*16)
			}
			p.TransformPlanes(planes, false, 1)
			if n := testing.AllocsPerRun(10, func() { p.TransformPlanes(planes, true, 1) }); n > 0 {
				t.Errorf("TransformPlanes(16): %v allocs/op", n)
			}
		}},
		{"Bluestein127", func() {
			p := CachedPlan(127)
			x := make([]complex128, 127)
			p.Forward(x)
			if n := testing.AllocsPerRun(10, func() { p.Forward(x) }); n > 0 {
				t.Errorf("Bluestein(127): %v allocs/op", n)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { c.run() })
	}
}

// The centered transform of a centered impulse is flat with the right
// amplitude — a direct check of the fused sign bookkeeping (sigma and
// both checkerboards) against the analytic answer.
func TestFusedCenteringAnalytic(t *testing.T) {
	for _, n := range []int{8, 16, 24} {
		x := make([]complex128, n*n)
		x[(n/2)*n+n/2] = 1 // impulse at the phase center
		NewPlan2D(n, n).ForwardCentered(x)
		for i, v := range x {
			if math.Abs(real(v)-1) > 1e-12 || math.Abs(imag(v)) > 1e-12 {
				t.Fatalf("n=%d: spectrum[%d] = %v, want 1", n, i, v)
			}
		}
	}
}
