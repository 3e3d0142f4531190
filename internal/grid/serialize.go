package grid

import (
	"fmt"
	"io"
)

// BandBytes returns the wire size of shard i's row band across all
// correlation planes, as written by WriteBand.
func (sh *Sharded) BandBytes(i int) int {
	lo, hi := sh.Bounds(i)
	return NrCorrelations * (hi - lo) * sh.g.N * CellBytes
}

// WriteBand serializes shard i's row band — all correlation planes,
// rows [lo, hi), in the canonical cell encoding — to w, holding the
// shard's lock so the bytes are coherent with concurrent adders.
func (sh *Sharded) WriteBand(w io.Writer, i int) error {
	return sh.eachBandPlane(i, func(cells []complex128) error { return WriteCells(w, cells) })
}

// ReadBand restores shard i's row band from r (the inverse of
// WriteBand), holding the shard's lock. A short read returns the
// underlying error.
func (sh *Sharded) ReadBand(r io.Reader, i int) error {
	return sh.eachBandPlane(i, func(cells []complex128) error { return ReadCells(r, cells) })
}

// eachBandPlane passes shard i's rows of each correlation plane to f
// in turn, under the shard's lock.
func (sh *Sharded) eachBandPlane(i int, f func(cells []complex128) error) error {
	lo, hi := sh.Bounds(i)
	st := &sh.shards[i]
	st.mu.Lock()
	defer st.mu.Unlock()
	for c := range sh.g.Data {
		if err := f(sh.g.Data[c][lo*sh.g.N : hi*sh.g.N]); err != nil {
			return fmt.Errorf("grid: band %d plane %d: %w", i, c, err)
		}
	}
	return nil
}
