package grid

import (
	"fmt"
	"math"
)

// Band is rows [Lo, Hi) of an N-pixel grid, owning its cells
// (NewBand), viewing a grid's (Grid.Rows) or owning a whole grid of
// which it is the nonzero rows (NewGridBand): an adder worker's rows, a
// shard, or the span a checkpoint or a partial grid touched. Data holds
// one row-major (Hi-Lo)*N plane per correlation; grid row y is band
// row y-Lo.
type Band struct {
	N, Lo, Hi int
	Data      [NrCorrelations][]complex128
	// whole is the grid of a NewGridBand band, zero outside [Lo, Hi).
	whole *Grid
}

// NewBand allocates zeroed rows [lo, hi) of an n-pixel grid.
func NewBand(n, lo, hi int) *Band {
	if n < 1 || lo < 0 || hi > n || lo > hi {
		panic(fmt.Sprintf("grid: invalid band [%d, %d) of a %d-row grid", lo, hi, n))
	}
	b := &Band{N: n, Lo: lo, Hi: hi}
	m := (hi - lo) * n
	backing := make([]complex128, NrCorrelations*m)
	for c := range b.Data {
		b.Data[c] = backing[c*m : (c+1)*m]
	}
	return b
}

// NewGridBand returns rows [lo, hi) of a new zeroed n-pixel grid: a
// band whose Grid is that grid, with no copy, and which Grow widens in
// place.
func NewGridBand(n, lo, hi int) *Band {
	if lo < 0 || hi > n || lo > hi {
		panic(fmt.Sprintf("grid: invalid band [%d, %d) of a %d-row grid", lo, hi, n))
	}
	g := NewGrid(n)
	b := g.Rows(lo, hi)
	b.whole = g
	return b
}

// Grow returns rows [lo, hi) ⊇ [b.Lo, b.Hi) holding what adding b into
// zeroed rows [lo, hi) gives: b's cells as +0 + x — a -0 component
// reads +0 — and zeros around them. A NewGridBand band grows in place:
// b's cells are rewritten and the result shares b's grid. Any other
// band is added into a new band and left as it was.
func (b *Band) Grow(lo, hi int) *Band {
	if lo > b.Lo || hi < b.Hi {
		panic(fmt.Sprintf("grid: growing band [%d, %d) to [%d, %d)", b.Lo, b.Hi, lo, hi))
	}
	if b.whole == nil {
		dst := NewBand(b.N, lo, hi)
		dst.Add(b)
		return dst
	}
	for c := range b.Data {
		cells := b.Data[c]
		for i, v := range cells {
			cells[i] = 0 + v
		}
	}
	dst := b.whole.Rows(lo, hi)
	dst.whole = b.whole
	return dst
}

// Rows returns rows [lo, hi) of g as a band sharing g's memory.
func (g *Grid) Rows(lo, hi int) *Band {
	b := &Band{N: g.N, Lo: lo, Hi: hi}
	for c := range g.Data {
		b.Data[c] = g.Data[c][lo*g.N : hi*g.N]
	}
	return b
}

// NonzeroRowSpan returns the smallest row range [lo, hi) of g covering
// every cell whose bits are not all zero (-0 counts), across all
// correlation planes: the band a partial grid actually touched. An
// all-zero grid returns (0, 0).
func NonzeroRowSpan(g *Grid) (lo, hi int) {
	lo, hi = g.N, 0
	for c := range g.Data {
		for y := 0; y < g.N; y++ {
			if lo <= y && y < hi {
				continue // inside the span already
			}
			for _, v := range g.Data[c][y*g.N : (y+1)*g.N] {
				if math.Float64bits(real(v))|math.Float64bits(imag(v)) != 0 {
					lo, hi = min(lo, y), max(hi, y+1)
					break
				}
			}
		}
	}
	if lo >= hi {
		return 0, 0
	}
	return lo, hi
}

// Grid returns b as a whole grid: b's own memory when b spans every
// row or came from NewGridBand, else a new grid holding b's rows and
// zeros around them.
func (b *Band) Grid() *Grid {
	if b.whole != nil {
		return b.whole
	}
	if b.Lo == 0 && b.Hi == b.N {
		return &Grid{N: b.N, Data: b.Data}
	}
	g := NewGrid(b.N)
	for c := range b.Data {
		copy(g.Data[c][b.Lo*b.N:], b.Data[c])
	}
	return g
}

// Add accumulates src into b over src's rows, which must lie within
// b's.
func (b *Band) Add(src *Band) {
	if src.N != b.N || src.Lo < b.Lo || src.Hi > b.Hi {
		panic(fmt.Sprintf("grid: band [%d, %d) of %d rows added to band [%d, %d) of %d", src.Lo, src.Hi, src.N, b.Lo, b.Hi, b.N))
	}
	for c := range b.Data {
		dst := b.Data[c][(src.Lo-b.Lo)*b.N:]
		for i, v := range src.Data[c] {
			dst[i] += v
		}
	}
}

// AddSubgrid accumulates the rows of s that fall inside [b.Lo, b.Hi)
// onto b: the adder's one loop over subgrid rows. It panics when s lies
// outside the grid.
func (b *Band) AddSubgrid(s *Subgrid) {
	lo, hi := b.subgridRows(s)
	for y := lo; y < hi; y++ {
		row, at := (y-s.Y0)*s.N, (y-b.Lo)*b.N+s.X0
		for c := range b.Data {
			dst := b.Data[c][at : at+s.N]
			src := s.Data[c][row : row+s.N]
			for x := range dst {
				dst[x] += src[x]
			}
		}
	}
}

// CopySubgrid copies the cells under the rows of s that fall inside
// [b.Lo, b.Hi) into s: the splitter's one loop over subgrid rows. It
// panics when s lies outside the grid.
func (b *Band) CopySubgrid(s *Subgrid) {
	lo, hi := b.subgridRows(s)
	for y := lo; y < hi; y++ {
		row, at := (y-s.Y0)*s.N, (y-b.Lo)*b.N+s.X0
		for c := range b.Data {
			copy(s.Data[c][row:row+s.N], b.Data[c][at:at+s.N])
		}
	}
}

// subgridRows returns the grid rows [lo, hi) that s and b share, empty
// when they share none; it panics when s lies outside the grid.
func (b *Band) subgridRows(s *Subgrid) (lo, hi int) {
	if !s.InBounds(b.N) {
		panic(fmt.Sprintf("grid: subgrid (%d,%d)+%d outside %d-pixel grid", s.X0, s.Y0, s.N, b.N))
	}
	return max(s.Y0, b.Lo), min(s.Y0+s.N, b.Hi)
}
