package grid

import (
	"fmt"

	"repro/internal/xmath"
)

// Subgrid is one N~ x N~ tile. In the image domain it is a
// low-resolution image of the full field of view; after its FFT it is a
// patch of the uv-grid anchored at pixel (X0, Y0).
type Subgrid struct {
	// N is the subgrid size in pixels along one side (N~ of the paper).
	N int
	// X0, Y0 anchor the subgrid in the grid: grid pixel (X0+x, Y0+y)
	// corresponds to subgrid pixel (x, y).
	X0, Y0 int
	// WOffset is the w coordinate (in wavelengths) this subgrid is
	// centered on; non-zero when W-stacking assigns it to a W-layer.
	WOffset float64
	// WPlane is the W-layer index this subgrid belongs to, carried so
	// downstream stages (the sharded adder's spans in particular) can
	// attribute work to layers; -1 when the pass is not W-stacked.
	WPlane int
	// Data holds one row-major N*N plane per correlation.
	Data [NrCorrelations][]complex128
}

// NewSubgrid allocates a zeroed subgrid of size n x n at anchor (x0, y0).
func NewSubgrid(n, x0, y0 int) *Subgrid {
	if n < 1 {
		panic(fmt.Sprintf("grid: invalid subgrid size %d", n))
	}
	s := &Subgrid{N: n, X0: x0, Y0: y0, WPlane: -1}
	backing := make([]complex128, NrCorrelations*n*n)
	for c := 0; c < NrCorrelations; c++ {
		s.Data[c] = backing[c*n*n : (c+1)*n*n]
	}
	return s
}

// At returns the value of correlation c at pixel (x, y).
func (s *Subgrid) At(c, y, x int) complex128 {
	return s.Data[c][y*s.N+x]
}

// Set stores v into correlation c at pixel (x, y).
func (s *Subgrid) Set(c, y, x int, v complex128) {
	s.Data[c][y*s.N+x] = v
}

// Pixel returns the 2x2 correlation matrix at pixel (x, y).
func (s *Subgrid) Pixel(y, x int) xmath.Matrix2 {
	i := y*s.N + x
	return xmath.Matrix2{s.Data[0][i], s.Data[1][i], s.Data[2][i], s.Data[3][i]}
}

// SetPixel stores the 2x2 correlation matrix m at pixel (x, y).
func (s *Subgrid) SetPixel(y, x int, m xmath.Matrix2) {
	i := y*s.N + x
	s.Data[0][i], s.Data[1][i], s.Data[2][i], s.Data[3][i] = m[0], m[1], m[2], m[3]
}

// Zero clears all pixels.
func (s *Subgrid) Zero() {
	for c := range s.Data {
		clear(s.Data[c])
	}
}

// Clone returns a deep copy of s.
func (s *Subgrid) Clone() *Subgrid {
	out := NewSubgrid(s.N, s.X0, s.Y0)
	out.WOffset = s.WOffset
	out.WPlane = s.WPlane
	for c := range s.Data {
		copy(out.Data[c], s.Data[c])
	}
	return out
}

// Finite reports whether every pixel of every correlation plane is
// finite (no NaN or Inf component). The pipelines use it to detect
// work items poisoned by corrupt, unflagged visibilities before the
// subgrid reaches the shared grid.
func (s *Subgrid) Finite() bool {
	for c := range s.Data {
		// v - v is zero for finite v and NaN for NaN and +/-Inf, and a
		// NaN survives every later addition: sum over the plane (four
		// independent chains) and test once, no branch per component.
		var a0, a1, a2, a3 float64
		p := s.Data[c]
		for ; len(p) >= 2; p = p[2:] {
			r0, i0, r1, i1 := real(p[0]), imag(p[0]), real(p[1]), imag(p[1])
			a0 += r0 - r0
			a1 += i0 - i0
			a2 += r1 - r1
			a3 += i1 - i1
		}
		for _, v := range p {
			a0 += real(v) - real(v)
			a1 += imag(v) - imag(v)
		}
		if (a0+a1)+(a2+a3) != 0 {
			return false
		}
	}
	return true
}

// InBounds reports whether the subgrid lies entirely inside a grid of
// size n x n.
func (s *Subgrid) InBounds(n int) bool {
	return s.X0 >= 0 && s.Y0 >= 0 && s.X0+s.N <= n && s.Y0+s.N <= n
}

// MaxAbsDiff returns the largest per-pixel complex magnitude difference
// between s and other.
func (s *Subgrid) MaxAbsDiff(other *Subgrid) float64 {
	if other.N != s.N {
		panic("grid: subgrid size mismatch")
	}
	m := 0.0
	for c := range s.Data {
		for i := range s.Data[c] {
			if d := abs(s.Data[c][i] - other.Data[c][i]); d > m {
				m = d
			}
		}
	}
	return m
}
