package core

import (
	"sync"
	"sync/atomic"
	"time"
)

// The tiled kernels split each subgrid's pixel loop into tiles of
// tileRows subgrid rows (the paper's GPU mapping parallelizes pixels
// within a thread block the same way). Tiles are the intra-item work
// units: when a pass runs fewer work items at once than it has workers,
// tilePar raises the per-item parallelism hint and runTiles fans the
// tiles of one subgrid out across otherwise-idle workers. Tile
// decomposition depends only on the kernel parameters — never on the
// hint or on scheduling — so results are reproducible run to run.

// runTiles executes fn(ts, row0, row1) for every pixel tile of a
// rows-row subgrid, fanning the tiles out over up to par goroutines
// (including the calling one). Each invocation gets a scratch arena it
// owns for the duration of the call: the caller's own s, or one checked
// out of the kernel pool for the extra workers. fn must confine writes
// to that scratch and to its tile's disjoint output range. A panic
// inside fn is re-raised on the calling goroutine after all tiles
// settle, preserving the per-item panic isolation of the pipeline
// (faulttol.Run wraps the caller).
func (k *Kernels) runTiles(s *scratch, par, rows int, fn func(ts *scratch, row0, row1 int)) {
	tr := k.tileRows(rows)
	ntiles := (rows + tr - 1) / tr
	if par > ntiles {
		par = ntiles
	}
	if par <= 1 {
		for t := 0; t < ntiles; t++ {
			r0 := t * tr
			r1 := r0 + tr
			if r1 > rows {
				r1 = rows
			}
			fn(s, r0, r1)
		}
		return
	}

	var (
		next     int64
		wg       sync.WaitGroup
		panicked atomic.Pointer[tilePanic]
	)
	// Tile spans give the trace its intra-item attribution: wid is the
	// fan-out-local worker index (0 = the item owner). Only the traced
	// parallel path pays for the timestamps.
	trace := k.ob.enabled() && k.ob.tracer != nil
	worker := func(wid int, ts *scratch) {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				panicked.CompareAndSwap(nil, &tilePanic{val: r})
			}
		}()
		for {
			t := int(atomic.AddInt64(&next, 1)) - 1
			if t >= ntiles {
				return
			}
			r0 := t * tr
			r1 := r0 + tr
			if r1 > rows {
				r1 = rows
			}
			if trace {
				t0 := time.Now()
				fn(ts, r0, r1)
				k.ob.tileDone(wid, t, t0)
			} else {
				fn(ts, r0, r1)
			}
		}
	}
	wg.Add(par)
	extra := make([]*scratch, par-1)
	for w := range extra {
		extra[w] = k.getScratch()
		go worker(w+1, extra[w])
	}
	worker(0, s)
	wg.Wait()
	for _, es := range extra {
		k.putScratch(es)
	}
	if p := panicked.Load(); p != nil {
		panic(p.val)
	}
}

// tilePanic carries the first panic value out of a tile worker.
type tilePanic struct{ val any }
