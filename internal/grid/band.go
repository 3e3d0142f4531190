package grid

import "fmt"

// Band is rows [Lo, Hi) of an N-pixel grid: the part of a partial grid
// a row partition touched, held without the zero rows around it. Data
// holds one row-major (Hi-Lo)*N plane per correlation; grid row y is
// band row y-Lo. A band over rows [0, N) has a grid's layout.
type Band struct {
	N, Lo, Hi int
	Data      [NrCorrelations][]complex128
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

// Rows returns rows [lo, hi) of g as a band sharing g's memory.
func (g *Grid) Rows(lo, hi int) *Band {
	b := &Band{N: g.N, Lo: lo, Hi: hi}
	for c := range g.Data {
		b.Data[c] = g.Data[c][lo*g.N : hi*g.N]
	}
	return b
}

// Grid returns b as a whole grid: b's own memory when b spans every
// row, else a new grid holding b's rows and zeros around them.
func (b *Band) Grid() *Grid {
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
