package core

import (
	"sync/atomic"
	"time"

	"repro/internal/grid"
)

// FFTSubgrids Fourier-transforms a batch of subgrids in place, image
// domain -> uv domain (the "subgrid FFTs" step of Fig. 4). Each
// correlation plane is transformed independently with the centered
// convention; the work is embarrassingly parallel over subgrids, as
// noted in Section V-B-c.
func (k *Kernels) FFTSubgrids(subgrids []*grid.Subgrid) {
	k.transformSubgrids(subgrids, false)
}

// InverseFFTSubgrids transforms subgrids uv domain -> image domain,
// used between the splitter and the degridder.
func (k *Kernels) InverseFFTSubgrids(subgrids []*grid.Subgrid) {
	k.transformSubgrids(subgrids, true)
}

func (k *Kernels) transformSubgrids(subgrids []*grid.Subgrid, inverse bool) {
	if k.ob.enabled() {
		k.ob.subgrids(k.ob.sgFFT, countLive(subgrids))
	}
	k.eachSubgrid(subgrids, func(_ int, s *grid.Subgrid) { k.fftSubgridOne(s, inverse) })
}

// eachSubgrid runs fn for every subgrid of a batch — skipped (nil)
// subgrids of a degraded run carry no data and are passed over — on up
// to Workers goroutines, or inline when one suffices. fn receives the
// index of the worker it runs on.
func (k *Kernels) eachSubgrid(subgrids []*grid.Subgrid, fn func(worker int, s *grid.Subgrid)) {
	var next atomic.Int64
	runWorkers(min(k.params.workers(), len(subgrids)), func(worker int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(subgrids) {
				return
			}
			if s := subgrids[i]; s != nil {
				fn(worker, s)
			}
		}
	})
}

// fftSubgridOne transforms a single subgrid in place. The forward
// transform is scaled by 1/N~^2 so that (a) gridding a visibility
// deposits unit total weight onto the grid and (b) the degridding
// pipeline is the exact adjoint of the gridding pipeline (the inverse
// transform already carries the 1/N~^2 of fft.InverseCentered). The
// gridding scheduler calls this directly so each chunk worker
// transforms its own subgrids without a nested fan-out.
func (k *Kernels) fftSubgridOne(s *grid.Subgrid, inverse bool) {
	norm := 1 / float64(k.params.SubgridSize*k.params.SubgridSize)
	// All four correlation planes through the fused-centering batched
	// path; both directions carry the same 1/N~^2, so the scale folds
	// into the transform's output pass.
	k.sgFFT.TransformPlanes(s.Data[:], inverse, norm)
}

// Adder accumulates uv-domain subgrids onto the grid. Subgrids may
// overlap, so parallelizing over subgrids would need per-pixel
// synchronization; following Section V-B-d the adder parallelizes
// over grid rows instead: each worker owns a contiguous band of rows
// and adds the intersecting slice of every subgrid, so no two workers
// ever touch the same pixel.
func (k *Kernels) Adder(subgrids []*grid.Subgrid, g *grid.Grid) {
	if g.N != k.params.GridSize {
		panic("core: grid size does not match kernel parameters")
	}
	// Validated here, before the fan-out, so that the panic is raised on
	// the caller's goroutine (where the pipeline's panic isolation can
	// recover it) and not inside a row-band worker.
	checkInBounds(subgrids, g.N)
	if k.ob.enabled() {
		k.ob.subgrids(k.ob.sgAdd, countLive(subgrids))
	}
	bounds := grid.ShardBounds(g.N, k.params.workers())
	runWorkers(len(bounds)-1, func(w int) {
		band := g.Rows(bounds[w], bounds[w+1])
		for _, s := range subgrids {
			if s != nil {
				band.AddSubgrid(s)
			}
		}
	})
}

// Splitter extracts uv-domain subgrids from the grid (the reverse of
// the adder). The grid is read-only here, so the splitter parallelizes
// over subgrids (Section V-B-d). Each destination subgrid must already
// carry its anchor (X0, Y0).
func (k *Kernels) Splitter(g *grid.Grid, subgrids []*grid.Subgrid) {
	if g.N != k.params.GridSize {
		panic("core: grid size does not match kernel parameters")
	}
	checkInBounds(subgrids, g.N)
	if k.ob.enabled() {
		k.ob.subgrids(k.ob.sgSplit, countLive(subgrids))
	}
	band := g.Rows(0, g.N)
	k.eachSubgrid(subgrids, func(_ int, s *grid.Subgrid) { band.CopySubgrid(s) })
}

// checkInBounds panics unless every subgrid of a batch lies inside an
// n-pixel grid.
func checkInBounds(subgrids []*grid.Subgrid, n int) {
	for _, s := range subgrids {
		if s != nil && !s.InBounds(n) {
			panic("core: subgrid outside grid")
		}
	}
}

// AdderSharded accumulates uv-domain subgrids onto a sharded grid.
// Unlike Adder (whose workers each scan every subgrid for their row
// band), the sharded adder parallelizes over subgrids and lets the
// shard locks arbitrate overlapping writes, so its work scales with
// the subgrid count and its contention falls with the shard count.
//
// Determinism: with one shard or one worker the subgrids are added
// serially in batch order, which reproduces the serial Adder
// bit-for-bit. With multiple shards and workers the per-pixel
// accumulation order depends on scheduling; the result differs from
// the serial grid only by floating-point reassociation (~1e-15
// relative, far inside the equivalence suite's 1e-12 bound).
func (k *Kernels) AdderSharded(subgrids []*grid.Subgrid, sh *grid.Sharded) {
	k.shardedBatch(0, subgrids, sh, true, k.shardSerial(len(subgrids), sh))
}

// SplitterSharded extracts uv-domain subgrids from a sharded grid
// under the shard locks, so extraction is coherent even while another
// goroutine is accumulating into the same sharded grid (the row-band
// Splitter requires a quiescent grid). Each destination subgrid must
// already carry its anchor (X0, Y0).
func (k *Kernels) SplitterSharded(sh *grid.Sharded, subgrids []*grid.Subgrid) {
	k.shardedBatch(0, subgrids, sh, false, k.shardSerial(len(subgrids), sh))
}

// shardSerial reports whether a sharded batch of n subgrids runs on
// the serial in-order path (one effective worker or one shard).
func (k *Kernels) shardSerial(n int, sh *grid.Sharded) bool {
	return min(k.params.workers(), n) <= 1 || sh.NumShards() == 1
}

// shardedBatch adds a batch of subgrids onto sh (add) or extracts it
// from sh, and accounts the locks it took. serial processes the batch
// in order on the calling goroutine, attributed to worker: the
// bitwise-deterministic path of the sharded adder, and the one a
// gridding chunk worker uses for its own chunk (the chunk workers are
// the parallelism there; a nested fan-out would only oversubscribe the
// pool). Otherwise the batch fans out over subgrids.
func (k *Kernels) shardedBatch(worker int, subgrids []*grid.Subgrid, sh *grid.Sharded, add, serial bool) {
	if sh.Master().N != k.params.GridSize {
		panic("core: grid size does not match kernel parameters")
	}
	var locks, contended int64
	if serial {
		for _, s := range subgrids {
			if s != nil {
				l, c := k.shardOne(worker, s, sh, add)
				locks += l
				contended += c
			}
		}
	} else {
		var lockT, contT atomic.Int64
		k.eachSubgrid(subgrids, func(worker int, s *grid.Subgrid) {
			l, c := k.shardOne(worker, s, sh, add)
			lockT.Add(l)
			contT.Add(c)
		})
		locks, contended = lockT.Load(), contT.Load()
	}
	if k.ob.enabled() {
		c := k.ob.sgSplit
		if add {
			c = k.ob.sgAdd
		}
		k.ob.shardBatch(c, countLive(subgrids), locks, contended)
	}
}

// shardOne adds or extracts one subgrid shard by shard, each under its
// lock, and returns the locks taken and how many were contended. With
// a tracer attached every lock gets a span.
func (k *Kernels) shardOne(worker int, s *grid.Subgrid, sh *grid.Sharded, add bool) (locks, contended int64) {
	tracing := k.ob.tracing()
	for si, last := sh.ShardOfRow(s.Y0), sh.ShardOfRow(s.Y0+s.N-1); si <= last; si++ {
		var t0 time.Time
		if tracing {
			t0 = time.Now()
		}
		var cont bool
		if add {
			cont = sh.AddSubgridShard(s, si)
		} else {
			cont = sh.CopySubgridShard(s, si)
		}
		if cont {
			contended++
		}
		locks++
		if tracing {
			k.ob.shardDone(worker, si, s.WPlane, t0)
		}
	}
	return locks, contended
}

// countLive counts the non-nil subgrids of a batch (skipped items of a
// degraded run leave nil slots).
func countLive(subgrids []*grid.Subgrid) int {
	n := 0
	for _, s := range subgrids {
		if s != nil {
			n++
		}
	}
	return n
}

// AdderSerialLocked is the ablation alternative to Adder: it
// parallelizes over subgrids and serializes every grid update behind a
// single mutex — the sharded adder's fan-out on a one-shard grid —
// modelling the "prohibitive synchronization costs" the paper avoids.
// Only benchmarks use it.
func (k *Kernels) AdderSerialLocked(subgrids []*grid.Subgrid, g *grid.Grid) {
	k.shardedBatch(0, subgrids, grid.NewSharded(g, 1), true, false)
}
