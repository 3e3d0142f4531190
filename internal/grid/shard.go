package grid

import (
	"sync"
	"sync/atomic"
)

// Sharded partitions a master uv-grid into contiguous row bands
// ("shards"), each guarded by its own mutex, so many workers can
// accumulate (or extract) overlapping subgrids concurrently without
// funnelling every update through one lock. Two subgrids contend only
// when they overlap the same band, so with S shards the adder scales
// toward min(workers, S) instead of serializing.
//
// Rows are the natural partition axis: subgrids are row-contiguous
// rectangles, so one subgrid touches at most
// ceil(SubgridSize/rowsPerShard)+1 shards, and each shard update is a
// run of full cache lines. The bands need not divide the grid evenly;
// NewSharded balances them to within one row.
//
// A Sharded also counts lock acquisitions and contended acquisitions
// per shard, the raw signal behind the obs contention metrics.
type Sharded struct {
	g      *Grid
	bands  []*Band // shard i's rows, views of g
	shards []shardState
}

// shardState is one row band's lock and counters, padded out to its
// own cache line so neighbouring shards' locks don't false-share.
type shardState struct {
	mu        sync.Mutex
	locks     atomic.Int64
	contended atomic.Int64
	_         [64 - 8 - 16]byte
}

// NewSharded wraps g in a sharded accessor with the given number of
// row bands, laid out by ShardBounds. shards is clamped to [1, g.N];
// values <= 0 select one shard (a single lock, the degenerate but still
// concurrency-safe layout).
func NewSharded(g *Grid, shards int) *Sharded {
	bounds := ShardBounds(g.N, shards)
	sh := &Sharded{g: g, bands: make([]*Band, len(bounds)-1), shards: make([]shardState, len(bounds)-1)}
	for i := range sh.bands {
		sh.bands[i] = g.Rows(bounds[i], bounds[i+1])
	}
	return sh
}

// ShardBounds returns the balanced row partition of n rows into the
// given number of bands: a slice of shards+1 boundaries where band i
// owns rows [bounds[i], bounds[i+1]). The first n%shards bands get one
// extra row, so the partition is exact for every (n, shards) pair.
func ShardBounds(n, shards int) []int {
	if shards < 1 {
		shards = 1
	}
	if shards > n {
		shards = n
	}
	bounds := make([]int, shards+1)
	base, rem := n/shards, n%shards
	row := 0
	for i := 0; i < shards; i++ {
		bounds[i] = row
		row += base
		if i < rem {
			row++
		}
	}
	bounds[shards] = n
	return bounds
}

// Master returns the underlying grid. Reading it is only safe once no
// concurrent AddSubgridShard/CopySubgridShard calls are in flight.
func (sh *Sharded) Master() *Grid { return sh.g }

// NumShards returns the number of row bands.
func (sh *Sharded) NumShards() int { return len(sh.shards) }

// Band returns shard i's rows, a view of the master grid.
func (sh *Sharded) Band(i int) *Band { return sh.bands[i] }

// ShardOfRow returns the shard owning grid row y. The balanced
// partition makes this a closed form: the first rem shards have
// base+1 rows, the rest base.
func (sh *Sharded) ShardOfRow(y int) int {
	n, s := sh.g.N, len(sh.shards)
	base, rem := n/s, n%s
	split := rem * (base + 1)
	if y < split {
		return y / (base + 1)
	}
	return rem + (y-split)/base
}

// lock acquires shard si's mutex, counting the acquisition and
// whether it was contended; it reports contention to the caller for
// per-batch metric deltas.
func (st *shardState) lock() (contended bool) {
	if st.mu.TryLock() {
		st.locks.Add(1)
		return false
	}
	st.mu.Lock()
	st.locks.Add(1)
	st.contended.Add(1)
	return true
}

// AddSubgridShard accumulates the rows of s that fall into shard si
// onto the master grid, holding only that shard's lock. It returns
// whether the lock acquisition was contended. Rows of s outside the
// shard are untouched; callers iterate the range given by
// ShardOfRow(s.Y0) .. ShardOfRow(s.Y0+s.N-1).
func (sh *Sharded) AddSubgridShard(s *Subgrid, si int) (contended bool) {
	return sh.locked(s, si, (*Band).AddSubgrid)
}

// CopySubgridShard extracts the rows of shard si covered by s from the
// master grid into s, holding that shard's lock so the copy is
// coherent with concurrent adders. It returns whether the lock was
// contended.
func (sh *Sharded) CopySubgridShard(s *Subgrid, si int) (contended bool) {
	return sh.locked(s, si, (*Band).CopySubgrid)
}

// locked runs op on shard si's band under its lock, which it takes
// only when s has rows in the shard.
func (sh *Sharded) locked(s *Subgrid, si int, op func(*Band, *Subgrid)) (contended bool) {
	b := sh.bands[si]
	if lo, hi := b.subgridRows(s); lo >= hi {
		return false
	}
	st := &sh.shards[si]
	contended = st.lock()
	op(b, s)
	st.mu.Unlock()
	return contended
}

// LockStats returns per-shard cumulative lock acquisition and
// contention counts since construction.
func (sh *Sharded) LockStats() (locks, contended []int64) {
	locks = make([]int64, len(sh.shards))
	contended = make([]int64, len(sh.shards))
	for i := range sh.shards {
		locks[i] = sh.shards[i].locks.Load()
		contended[i] = sh.shards[i].contended.Load()
	}
	return locks, contended
}
