package distrib

import "sync"

import "repro/internal/grid"

// TreeReduce merges the partial grids as reduceBands merges bands, over
// full-height bands: every merge adds in place, so the result is the
// first non-nil entry's memory (nil if every entry was nil). gs is
// consumed: the non-root entries are left in an unspecified state.
func TreeReduce(gs []*grid.Grid) *grid.Grid {
	bs := make([]*grid.Band, len(gs))
	for i, g := range gs {
		if g != nil {
			bs[i] = g.Rows(0, g.N)
		}
	}
	return reduceBands(bs)
}

// reduceBands merges the partial bands by a binary reduction tree: in
// round r (stride s = 2^r) every band at index i with i % 2s == 0
// absorbs the band at i+s, so N partials merge in ceil(log2 N) rounds
// with the merges of one round running concurrently. The tree's
// associativity is fixed by index, never by arrival order or goroutine
// scheduling, so a distributed run's final grid is a deterministic
// function of its partials — the property the chaos suite leans on
// when it demands a killed-and-resumed run hash identically to a clean
// one. A band holds every nonzero cell of its partial and +0 + x = x,
// so each cell gets the sum, in the association, that merging whole
// grids gives it. A nil entry (an empty partition) absorbs into its
// partner by pointer swap. The root is materialised once, as the
// returned grid (nil if every entry was nil): in place when the root
// band came from grid.NewGridBand, which Grow widens within its own
// grid, else by a copy.
func reduceBands(bs []*grid.Band) *grid.Grid {
	n := len(bs)
	for stride := 1; stride < n; stride *= 2 {
		root := 2*stride >= n
		var wg sync.WaitGroup
		for i := 0; i+stride < n; i += 2 * stride {
			a, b := i, i+stride
			if bs[b] == nil {
				continue
			}
			if bs[a] == nil {
				bs[a], bs[b] = bs[b], nil
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				bs[a] = merge(bs[a], bs[b], root)
			}()
		}
		wg.Wait()
	}
	if n == 0 || bs[0] == nil {
		return nil
	}
	return bs[0].Grid()
}

// merge returns a + b: in a when a's rows cover b's, else in a grown
// to the union of their rows, or to every row at the root.
func merge(a, b *grid.Band, root bool) *grid.Band {
	if b.Lo < a.Lo || a.Hi < b.Hi {
		lo, hi := min(a.Lo, b.Lo), max(a.Hi, b.Hi)
		if root {
			lo, hi = 0, a.N
		}
		a = a.Grow(lo, hi)
	}
	a.Add(b)
	return a
}
