package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func randGrid(r *rand.Rand, rows, cols int) []complex128 {
	return randVec(r, rows*cols)
}

func TestPlan2DMatchesSeparableDirect(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, dims := range [][2]int{{4, 4}, {8, 8}, {3, 5}, {24, 24}, {16, 8}} {
		rows, cols := dims[0], dims[1]
		p := NewPlan2D(rows, cols)
		x := randGrid(r, rows, cols)

		// Direct 2-D DFT.
		want := make([]complex128, rows*cols)
		for kr := 0; kr < rows; kr++ {
			for kc := 0; kc < cols; kc++ {
				var sum complex128
				for jr := 0; jr < rows; jr++ {
					for jc := 0; jc < cols; jc++ {
						ang := -2 * math.Pi * (float64(kr*jr)/float64(rows) + float64(kc*jc)/float64(cols))
						sum += x[jr*cols+jc] * complex(math.Cos(ang), math.Sin(ang))
					}
				}
				want[kr*cols+kc] = sum
			}
		}
		got := append([]complex128(nil), x...)
		p.Forward(got)
		if d := maxDiff(got, want); d > 1e-8*float64(rows*cols) {
			t.Fatalf("%dx%d: 2D FFT differs from direct DFT by %g", rows, cols, d)
		}
	}
}

func TestPlan2DRoundtrip(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for _, dims := range [][2]int{{2, 2}, {24, 24}, {7, 9}, {32, 16}} {
		rows, cols := dims[0], dims[1]
		p := NewPlan2D(rows, cols)
		x := randGrid(r, rows, cols)
		y := append([]complex128(nil), x...)
		p.Forward(y)
		p.Inverse(y)
		if d := maxDiff(x, y); d > 1e-9*float64(rows*cols) {
			t.Fatalf("%dx%d: roundtrip error %g", rows, cols, d)
		}
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	rows, cols := 64, 64
	p := NewPlan2D(rows, cols)
	x := randGrid(r, rows, cols)
	serial := append([]complex128(nil), x...)
	parallel := append([]complex128(nil), x...)
	p.Forward(serial)
	p.ForwardParallel(parallel, 4)
	if d := maxDiff(serial, parallel); d != 0 {
		t.Fatalf("parallel forward differs from serial by %g", d)
	}
	p.Inverse(serial)
	p.InverseParallel(parallel, 3)
	if d := maxDiff(serial, parallel); d != 0 {
		t.Fatalf("parallel inverse differs from serial by %g", d)
	}
}

func TestTransformBatch(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	p := NewPlan2D(24, 24)
	const n = 33
	batch := make([][]complex128, n)
	want := make([][]complex128, n)
	for i := range batch {
		batch[i] = randGrid(r, 24, 24)
		want[i] = append([]complex128(nil), batch[i]...)
		p.Forward(want[i])
	}
	p.TransformBatch(batch, false, 4)
	for i := range batch {
		if d := maxDiff(batch[i], want[i]); d != 0 {
			t.Fatalf("batch element %d differs by %g", i, d)
		}
	}
	// Inverse batch returns to (scaled) original.
	p.TransformBatch(batch, true, 0)
}

func TestCenteredRoundtrip(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	for _, n := range []int{8, 24, 25} {
		p := NewPlan2D(n, n)
		x := randGrid(r, n, n)
		y := append([]complex128(nil), x...)
		p.ForwardCentered(y)
		p.InverseCentered(y)
		if d := maxDiff(x, y); d > 1e-10*float64(n*n) {
			t.Fatalf("n=%d: centered roundtrip error %g", n, d)
		}
	}
}

// TestCenteredParallelOutOfPlaceMatchesInPlace: the parallel centered
// transforms write the same bits from src into dst as the serial ones
// do in place, for every axis engine (radix-4 64, mixed-radix 24 as one
// tile and 96 in row blocks, Bluestein 22, odd 25 on the unfused path)
// and worker count, in place through the same entry point too, and
// leave src untouched.
func TestCenteredParallelOutOfPlaceMatchesInPlace(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	for _, n := range []int{64, 24, 96, 22, 25} {
		p := NewPlan2D(n, n)
		src := randGrid(r, n, n)
		keep := append([]complex128(nil), src...)
		for _, workers := range []int{1, 3} {
			for _, inverse := range []bool{false, true} {
				want := append([]complex128(nil), src...)
				dst := make([]complex128, n*n)
				same := append([]complex128(nil), src...)
				if inverse {
					p.InverseCentered(want)
					p.InverseCenteredParallel(dst, src, workers)
					p.InverseCenteredParallel(same, same, workers)
				} else {
					p.ForwardCentered(want)
					p.ForwardCenteredParallel(dst, src, workers)
					p.ForwardCenteredParallel(same, same, workers)
				}
				for i := range want {
					if dst[i] != want[i] || same[i] != want[i] {
						t.Fatalf("n=%d workers=%d inverse=%v: element %d: out of place %v, in place %v, serial %v",
							n, workers, inverse, i, dst[i], same[i], want[i])
					}
					if src[i] != keep[i] {
						t.Fatalf("n=%d workers=%d inverse=%v: source element %d modified", n, workers, inverse, i)
					}
				}
			}
		}
	}
}

func TestCenteredImpulseAtCenterGivesFlatSpectrum(t *testing.T) {
	// An impulse at the image center must transform to a constant
	// (all-ones) uv plane: this is the property the subgrid pipeline
	// relies on for the phase conventions to cancel.
	n := 24
	p := NewPlan2D(n, n)
	x := make([]complex128, n*n)
	x[(n/2)*n+n/2] = 1
	p.ForwardCentered(x)
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-10 {
			t.Fatalf("pixel %d = %v, want 1", i, v)
		}
	}
}

func TestCenteredShiftTheorem2D(t *testing.T) {
	// Moving the impulse one pixel off center multiplies the centered
	// spectrum by a linear phase ramp exp(-2*pi*i*(u)/n).
	n := 16
	p := NewPlan2D(n, n)
	x := make([]complex128, n*n)
	x[(n/2)*n+n/2+1] = 1 // one pixel in +x
	p.ForwardCentered(x)
	for ky := 0; ky < n; ky++ {
		for kx := 0; kx < n; kx++ {
			ang := -2 * math.Pi * float64(kx-n/2) / float64(n)
			want := complex(math.Cos(ang), math.Sin(ang))
			got := x[ky*n+kx]
			if cmplx.Abs(got-want) > 1e-10 {
				t.Fatalf("(%d,%d): got %v want %v", ky, kx, got, want)
			}
		}
	}
}

func TestShift2DRoundtrip(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	for _, dims := range [][2]int{{4, 6}, {5, 5}, {24, 24}} {
		rows, cols := dims[0], dims[1]
		x := randGrid(r, rows, cols)
		y := append([]complex128(nil), x...)
		Shift2D(y, rows, cols)
		InverseShift2D(y, rows, cols)
		if maxDiff(x, y) != 0 {
			t.Fatalf("%dx%d: 2D shift roundtrip not exact", rows, cols)
		}
	}
}

func BenchmarkFFTSubgrid24(b *testing.B) {
	benchFFT2D(b, 24)
}

func BenchmarkFFTSubgrid32(b *testing.B) {
	benchFFT2D(b, 32)
}

func BenchmarkFFTSubgrid64(b *testing.B) {
	benchFFT2D(b, 64)
}

func BenchmarkFFTGrid1024(b *testing.B) {
	benchFFT2D(b, 1024)
}

func benchFFT2D(b *testing.B, n int) {
	p := NewPlan2D(n, n)
	x := randGrid(rand.New(rand.NewSource(1)), n, n)
	b.SetBytes(int64(n * n * 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(x)
	}
}

func BenchmarkFFTGrid1024Parallel(b *testing.B) {
	p := NewPlan2D(1024, 1024)
	x := randGrid(rand.New(rand.NewSource(1)), 1024, 1024)
	b.SetBytes(int64(1024 * 1024 * 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ForwardParallel(x, 0)
	}
}
