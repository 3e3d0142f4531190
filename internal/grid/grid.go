// Package grid provides the uv-grid and subgrid containers used by the
// IDG pipeline. A grid stores the Fourier transform of the sky image
// ("the grid" of the paper); subgrids are the small N~ x N~ tiles that
// the gridder kernel fills in the image domain and the adder places
// onto the grid after their FFT.
//
// All pixel data is stored as four correlation planes (XX, XY, YX, YY),
// each a row-major []complex128 indexed by y*N+x. The x axis maps to u,
// the y axis to v, with the zero frequency in the center pixel
// (N/2, N/2) — the "centered" layout produced by fft.ForwardCentered.
package grid

import (
	"fmt"
	"math"
)

// NrCorrelations is the number of polarization correlations stored per
// pixel (XX, XY, YX, YY), the "four combinations of p and q" of the
// paper.
const NrCorrelations = 4

// Grid is the full uv-grid of one imaging pass (and of one W-layer when
// W-stacking is used).
type Grid struct {
	// N is the grid size in pixels along one side.
	N int
	// Data holds one row-major N*N plane per correlation.
	Data [NrCorrelations][]complex128
}

// NewGrid allocates a zeroed grid of size n x n pixels.
func NewGrid(n int) *Grid {
	if n < 1 {
		panic(fmt.Sprintf("grid: invalid grid size %d", n))
	}
	g := &Grid{N: n}
	backing := make([]complex128, NrCorrelations*n*n)
	for c := 0; c < NrCorrelations; c++ {
		g.Data[c] = backing[c*n*n : (c+1)*n*n]
	}
	return g
}

// At returns the value of correlation c at pixel (x, y).
func (g *Grid) At(c, y, x int) complex128 {
	return g.Data[c][y*g.N+x]
}

// Set stores v into correlation c at pixel (x, y).
func (g *Grid) Set(c, y, x int, v complex128) {
	g.Data[c][y*g.N+x] = v
}

// Add accumulates v into correlation c at pixel (x, y).
func (g *Grid) Add(c, y, x int, v complex128) {
	g.Data[c][y*g.N+x] += v
}

// Zero clears all pixels.
func (g *Grid) Zero() {
	for c := range g.Data {
		clear(g.Data[c])
	}
}

// Clone returns a deep copy of g.
func (g *Grid) Clone() *Grid {
	out := NewGrid(g.N)
	for c := range g.Data {
		copy(out.Data[c], g.Data[c])
	}
	return out
}

// AddGrid accumulates other into g. The sizes must match.
func (g *Grid) AddGrid(other *Grid) {
	g.Rows(0, g.N).Add(other.Rows(0, other.N))
}

// MaxAbsDiff returns the largest per-pixel complex magnitude difference
// between g and other; used by the test suite.
func (g *Grid) MaxAbsDiff(other *Grid) float64 {
	if other.N != g.N {
		panic("grid: size mismatch")
	}
	m := 0.0
	for c := range g.Data {
		for i := range g.Data[c] {
			d := g.Data[c][i] - other.Data[c][i]
			if a := abs(d); a > m {
				m = a
			}
		}
	}
	return m
}

// Norm2 returns the sum of squared magnitudes over all pixels and
// correlations.
func (g *Grid) Norm2() float64 {
	var s float64
	for c := range g.Data {
		for _, v := range g.Data[c] {
			s += real(v)*real(v) + imag(v)*imag(v)
		}
	}
	return s
}

func abs(c complex128) float64 {
	return math.Hypot(real(c), imag(c))
}
