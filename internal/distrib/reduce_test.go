package distrib

import (
	"math"
	"testing"

	"repro/internal/grid"
)

// partialGrids builds n deterministic partials whose sum is known.
func partialGrids(n, size int) []*grid.Grid {
	gs := make([]*grid.Grid, n)
	for i := range gs {
		gs[i] = grid.NewGrid(size)
		for c := 0; c < grid.NrCorrelations; c++ {
			for j := range gs[i].Data[c] {
				gs[i].Data[c][j] = complex(float64(i+1)*0.1, float64(j%7)*float64(i+1))
			}
		}
	}
	return gs
}

// TestTreeReduceDeterministic runs the reduction many times over
// clones of the same partials (including non-power-of-two counts) and
// requires bit-identical results every time: the tree's associativity
// is fixed by index, not by goroutine scheduling.
func TestTreeReduceDeterministic(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		src := partialGrids(n, 16)
		clone := func() []*grid.Grid {
			gs := make([]*grid.Grid, len(src))
			for i := range src {
				gs[i] = src[i].Clone()
			}
			return gs
		}
		want := FingerprintOf(TreeReduce(clone()))
		for rep := 0; rep < 20; rep++ {
			if got := FingerprintOf(TreeReduce(clone())); got != want {
				t.Fatalf("n=%d: reduction %d hashed differently", n, rep)
			}
		}
	}
}

// TestTreeReduceMatchesSerialSum checks the reduced grid is the sum of
// its partials to reassociation tolerance (exact here: the test
// values sum without rounding at any tree shape is not guaranteed, so
// compare against the serial left-fold with a 1e-12 relative bound).
func TestTreeReduceMatchesSerialSum(t *testing.T) {
	src := partialGrids(5, 16)
	serial := src[0].Clone()
	for _, g := range src[1:] {
		serial.AddGrid(g)
	}
	reduced := TreeReduce(src) // consumes src
	fp := FingerprintOf(serial)
	if d := reduced.MaxAbsDiff(serial); d > 1e-12*fp.PeakAbs {
		t.Fatalf("tree reduction differs from serial sum by %g (peak %g)", d, fp.PeakAbs)
	}
}

// TestTreeReduceNilEntries checks workers that contributed nothing
// (nil partials) vanish from the sum instead of panicking.
func TestTreeReduceNilEntries(t *testing.T) {
	src := partialGrids(3, 8)
	want := src[0].Clone()
	want.AddGrid(src[2])
	gs := []*grid.Grid{src[0], nil, src[2], nil}
	got := TreeReduce(gs)
	if got == nil || got.MaxAbsDiff(want) != 0 {
		t.Fatal("nil partials changed the reduction")
	}
	if TreeReduce([]*grid.Grid{nil, nil}) != nil {
		t.Fatal("all-nil reduction should be nil")
	}
	if TreeReduce(nil) != nil {
		t.Fatal("empty reduction should be nil")
	}
}

// wholeTreeSum is the index-fixed reduction tree over whole grids,
// spelled out: round by round, gs[i] += gs[i+stride].
func wholeTreeSum(gs []*grid.Grid) *grid.Grid {
	for stride := 1; stride < len(gs); stride *= 2 {
		for i := 0; i+stride < len(gs); i += 2 * stride {
			switch {
			case gs[i+stride] == nil:
			case gs[i] == nil:
				gs[i], gs[i+stride] = gs[i+stride], nil
			default:
				gs[i].AddGrid(gs[i+stride])
			}
		}
	}
	if len(gs) == 0 {
		return nil
	}
	return gs[0]
}

// referenceReduceBands is the band reduction with every widening merge
// into a new band — the reduction before bands could grow in their own
// grid — which the in-place root must reproduce bit for bit, -0 cells
// included: a widened band's cells read +0 + x.
func referenceReduceBands(bs []*grid.Band) *grid.Grid {
	n := len(bs)
	for stride := 1; stride < n; stride *= 2 {
		root := 2*stride >= n
		for i := 0; i+stride < n; i += 2 * stride {
			a, b := bs[i], bs[i+stride]
			switch {
			case b == nil:
			case a == nil:
				bs[i], bs[i+stride] = b, nil
			case a.Lo <= b.Lo && b.Hi <= a.Hi:
				a.Add(b)
			default:
				lo, hi := min(a.Lo, b.Lo), max(a.Hi, b.Hi)
				if root {
					lo, hi = 0, a.N
				}
				dst := grid.NewBand(a.N, lo, hi)
				dst.Add(a)
				dst.Add(b)
				bs[i] = dst
			}
		}
	}
	if n == 0 || bs[0] == nil {
		return nil
	}
	g := grid.NewGrid(bs[0].N)
	for c := range g.Data {
		copy(g.Data[c][bs[0].Lo*g.N:], bs[0].Data[c])
	}
	return g
}

// TestReduceBandsMatchesGridReduction: partials whose nonzero rows
// cover overlapping spans — some empty, some nil — reduce over their
// bands to the same bits as the index-fixed tree over the whole grids,
// and so does TreeReduce, at every count from one to nine partials.
// With -0 components among the cells the whole-grid tree is no oracle
// (it adds +0 where a band adds nothing); there, and everywhere, the
// reduction equals referenceReduceBands, with the first band a plain
// one or rows of a whole grid (the coordinator's root) alike. Every
// band is its own copy, so the check also sees a merge writing into a
// band it should only read.
func TestReduceBandsMatchesGridReduction(t *testing.T) {
	const size = 16
	negZero := math.Copysign(0, -1)
	for n := 1; n <= 9; n++ {
		for _, signedZeros := range []bool{false, true} {
			whole := make([]*grid.Grid, n)
			for i := range whole {
				if i%4 == 3 {
					continue // nil: a worker without a partition
				}
				g := grid.NewGrid(size)
				lo, hi := (3*i)%8, (3*i)%8+5+i%4 // spans overlapping up to four deep
				if i%5 == 2 {
					hi = lo // an empty partition
				}
				for c := range g.Data {
					for j := lo * size; j < hi*size; j++ {
						g.Data[c][j] = complex(math.Sqrt(float64(j+i))/float64(i+3), float64(c)-float64(j%3)/7)
						if signedZeros && (j+i+c)%3 == 0 {
							g.Data[c][j] = complex(negZero, float64(j%2)*negZero)
						}
					}
				}
				whole[i] = g
			}
			// bands copies each partial's nonzero span into a plain band,
			// or rows of a whole grid of its own for the first when root.
			bands := func(root bool) []*grid.Band {
				bs := make([]*grid.Band, n)
				for i, g := range whole {
					if g == nil {
						continue
					}
					span := g.Rows(grid.NonzeroRowSpan(g))
					if span.Lo == span.Hi {
						continue // the coordinator holds no band for an empty span
					}
					bs[i] = grid.NewBand(size, span.Lo, span.Hi)
					if i == 0 && root {
						bs[i] = grid.NewGridBand(size, span.Lo, span.Hi)
					}
					for c := range span.Data {
						copy(bs[i].Data[c], span.Data[c])
					}
				}
				return bs
			}
			clones := make([]*grid.Grid, n)
			for i, g := range whole {
				if g != nil {
					clones[i] = g.Clone()
				}
			}
			hashOf := func(g *grid.Grid) (fp Fingerprint) {
				if g != nil {
					fp = FingerprintOf(g)
				}
				return fp
			}
			want := hashOf(referenceReduceBands(bands(false)))
			for _, root := range []bool{false, true} {
				if got := hashOf(reduceBands(bands(root))); got != want {
					t.Errorf("n=%d signed zeros=%v root grid=%v: the bands reduce to %x, the reference to %x",
						n, signedZeros, root, got.SHA256[:6], want.SHA256[:6])
				}
			}
			if signedZeros {
				continue
			}
			if tree := hashOf(wholeTreeSum(whole)); tree != want {
				t.Errorf("n=%d: the bands reduce to %x, the whole grids to %x", n, want.SHA256[:6], tree.SHA256[:6])
			}
			if got := hashOf(TreeReduce(clones)); got != want {
				t.Errorf("n=%d: TreeReduce gives %x, the whole-grid tree %x", n, got.SHA256[:6], want.SHA256[:6])
			}
		}
	}
}
