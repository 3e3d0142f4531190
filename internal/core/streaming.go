package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/aterm"
	"repro/internal/checkpoint"
	"repro/internal/faulttol"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/plan"
)

// NewShardedGrid wraps g in a sharded accessor with the configured
// shard count (Params.GridShards, defaulting to one shard per worker).
func (k *Kernels) NewShardedGrid(g *grid.Grid) *grid.Sharded {
	return grid.NewSharded(g, k.params.gridShards())
}

// streamAccounting tracks the scheduler's in-flight state: how many
// chunks are currently between gridder and adder, and the high-water
// mark of simultaneously alive subgrids (the number the memory bound
// MaxInflightChunks x StreamChunkItems promises to cap).
type streamAccounting struct {
	inflight     atomic.Int64
	liveSubgrids atomic.Int64
	peakSubgrids atomic.Int64
}

func (a *streamAccounting) acquire(subgrids int) {
	a.inflight.Add(1)
	live := a.liveSubgrids.Add(int64(subgrids))
	for {
		peak := a.peakSubgrids.Load()
		if live <= peak || a.peakSubgrids.CompareAndSwap(peak, live) {
			return
		}
	}
}

func (a *streamAccounting) release(subgrids int) (inflight int64) {
	a.liveSubgrids.Add(int64(-subgrids))
	return a.inflight.Add(-1)
}

// GridVisibilitiesStreamed runs the gridding pass onto a caller-owned
// sharded grid under an explicit fault-tolerance policy; it is the
// entry point GridVisibilities and GridVisibilitiesFT wrap (they shard
// the plain grid with NewShardedGrid). See gridStreamed for the
// scheduler and DESIGN.md ("The gridding pass") for its contracts.
//
// On cancellation the error matches both faulttol.ErrCanceled and the
// context's cause, even when the cancellation surfaced inside a retry
// loop. The grid then holds exactly the chunks whose add stage
// completed before the cancellation — every value finite and correct,
// but only a prefix-plus-stragglers subset of the plan — so a partial
// grid is useful for checkpointing but not as an image.
func (k *Kernels) GridVisibilitiesStreamed(ctx context.Context, p *plan.Plan, vs *VisibilitySet, prov aterm.Provider, sh *grid.Sharded, ft faulttol.Config) (StageTimes, *faulttol.Report, error) {
	rep := faulttol.NewReport(ft)
	times, err := k.gridStreamed(ctx, p, vs, prov, sh, ft, rep, 0)
	return times, rep, err
}

// ResumeVisibilitiesStreamed continues a gridding pass whose chunks
// [0, startChunk) are already accumulated onto sh — restored from a
// checkpoint — processing only the remaining chunks. rep carries the
// restored fault counters forward (nil allocates a fresh report). The
// chunking must match the interrupted run (StreamChunkItems); with one
// worker the resumed grid is bit-identical to an uninterrupted pass.
func (k *Kernels) ResumeVisibilitiesStreamed(ctx context.Context, p *plan.Plan, vs *VisibilitySet, prov aterm.Provider, sh *grid.Sharded, ft faulttol.Config, rep *faulttol.Report, startChunk int) (StageTimes, error) {
	if rep == nil {
		rep = faulttol.NewReport(ft)
	}
	if startChunk > 0 {
		k.ob.checkpointRestored()
	}
	return k.gridStreamed(ctx, p, vs, prov, sh, ft, rep, startChunk)
}

// gridStreamed is the gridding scheduler, the one execution shape of
// Fig. 4: the plan is cut into chunks of StreamChunkItems(len) work
// items (plan order preserved) and min(Workers, MaxInflightChunks)
// chunk workers each pump one chunk at a time through gridder ->
// subgrid FFT -> adder before its subgrids return to the pool. The
// chunk is the unit of parallelism — inside a chunk items run serially
// on the owning worker, fanning out over pixel tiles only when there
// are fewer chunk workers than Workers — so peak subgrid memory is
// bounded by chunk workers x chunk size regardless of observation
// length.
//
// Accumulation goes through the shard locks of sh: overlapping chunks
// contend only on shared row bands. With one chunk worker the chunks
// (and their items) are added in exact plan order, so the grid does not
// depend on the chunk size or the shard count; with more it differs by
// floating-point reassociation only.
//
// With Params.CheckpointDir set the chunks [startChunk, len) are
// processed in epochs of Params.CheckpointEvery; at each epoch boundary
// the scheduler quiesces and writes a durable snapshot (grid, chunk
// cursor, fault counters — see internal/checkpoint), including a final
// one at the end of the plan.
func (k *Kernels) gridStreamed(ctx context.Context, p *plan.Plan, vs *VisibilitySet, prov aterm.Provider, sh *grid.Sharded, ft faulttol.Config, rep *faulttol.Report, startChunk int) (StageTimes, error) {
	var times StageTimes
	if err := k.checkPlan(p, vs); err != nil {
		return times, err
	}
	if sh.Master().N != k.params.GridSize {
		return times, fmt.Errorf("core: sharded grid size %d != kernel grid size %d",
			sh.Master().N, k.params.GridSize)
	}
	chunkItems := k.StreamChunkItems(len(p.Items))
	chunks := p.StreamChunks(chunkItems)
	if startChunk < 0 || startChunk > len(chunks) {
		return times, fmt.Errorf("core: resume cursor %d outside the plan's %d chunks", startChunk, len(chunks))
	}
	if startChunk == len(chunks) {
		// Nothing left to grid (also covers an empty plan).
		return times, ctxErr(ctx)
	}
	// The A-term cache is not write-safe concurrently: warm it for the
	// whole plan up front, so every worker Get is a read-only hit.
	cache := k.newATermCache(prov)
	k.prefillATerms(cache, p.Items, vs.Baselines)

	workers := min(k.params.chunkWorkers(), len(chunks)-startChunk)
	par := tilePar(workers, k.params.workers())
	run := k.newItemRunner(ctx, obs.StageGrid, ft, rep)
	defer run.cancel()

	var acct streamAccounting
	var gridNs, fftNs, addNs atomic.Int64

	// runChunk pumps one chunk through grid -> FFT -> add on the
	// calling worker.
	runChunk := func(worker int, c plan.Chunk, s *scratch, subgrids []*grid.Subgrid) {
		acct.acquire(len(c.Items))
		defer func() {
			k.releaseSubgrids(subgrids)
			k.ob.chunkDone(acct.release(len(c.Items)))
		}()
		wp := planeOf(c.Items)

		gt0 := k.ob.now()
		t0 := time.Now()
		for i, item := range c.Items {
			if run.ctx.Err() != nil {
				return
			}
			ok := run.attempt(c.Index, worker, i, item, func() error {
				// A re-attempt reuses the subgrid of the failed one.
				sgr := subgrids[i]
				if sgr == nil {
					sgr = k.getSubgrid(item.X0, item.Y0)
					subgrids[i] = sgr
				}
				sgr.WOffset, sgr.WPlane = item.WOffset, item.WPlane
				vis := s.visBuf(item.NrVisibilities())
				vs.gather(item, vis)
				if k.ob.enabled() {
					k.ob.flaggedVis(vs.countFlagged(item))
				}
				k.gridSubgridScratch(item, vs.itemUVW(item), vis, k.lookupATerms(cache, vs.Baselines, item), sgr, s, par)
				if !sgr.Finite() {
					return fmt.Errorf("%w: non-finite subgrid (corrupt unflagged visibilities)",
						faulttol.ErrBadInput)
				}
				return nil
			})
			if !ok && subgrids[i] != nil {
				// Failed items leave a poisoned subgrid behind; drop it
				// so the FFT/add stages pass over the slot.
				k.putSubgrid(subgrids[i])
				subgrids[i] = nil
			}
		}
		d := time.Since(t0)
		gridNs.Add(d.Nanoseconds())
		k.ob.stageDone(obs.StageGrid, c.Index, wp, gt0, d)

		if run.ctx.Err() != nil {
			return
		}
		ft0 := k.ob.now()
		t0 = time.Now()
		for _, sgr := range subgrids {
			if sgr != nil {
				k.fftSubgridOne(sgr, false)
			}
		}
		d = time.Since(t0)
		fftNs.Add(d.Nanoseconds())
		k.ob.stageDone(obs.StageFFT, c.Index, wp, ft0, d)
		if k.ob.enabled() {
			k.ob.subgrids(k.ob.sgFFT, countLive(subgrids))
		}

		if run.ctx.Err() != nil {
			return
		}
		at0 := k.ob.now()
		t0 = time.Now()
		k.shardedBatch(worker, subgrids, sh, true, true)
		d = time.Since(t0)
		addNs.Add(d.Nanoseconds())
		k.ob.stageDone(obs.StageAdd, c.Index, wp, at0, d)
	}

	// Chunks are dispatched in checkpoint epochs: all chunks of
	// [lo, hi) complete (a quiescent barrier), then the snapshot
	// covering [0, hi) is written. Epoch boundaries are aligned to
	// multiples of the period from chunk 0, so a resumed run
	// checkpoints at the same cursors as an uninterrupted one. Without
	// checkpointing there is a single epoch and no barrier.
	ckptEvery := len(chunks)
	if k.params.checkpointEnabled() {
		ckptEvery = k.params.checkpointEvery()
	}
	for lo := startChunk; lo < len(chunks) && run.ctx.Err() == nil; {
		hi := min((lo/ckptEvery+1)*ckptEvery, len(chunks))
		var next atomic.Int64
		next.Store(int64(lo))
		// One worker runs on this goroutine, in chunk order, so that an
		// injected crash (a panicking checkpoint hook) unwinds the whole
		// pass.
		runWorkers(workers, func(worker int) {
			s := k.getScratch()
			defer k.putScratch(s)
			subgrids := make([]*grid.Subgrid, chunkItems)
			for run.ctx.Err() == nil {
				ci := int(next.Add(1)) - 1
				if ci >= hi {
					return
				}
				c := chunks[ci]
				runChunk(worker, c, s, subgrids[:len(c.Items)])
				if workers == 1 && run.ctx.Err() == nil {
					// Concurrent workers commit chunks out of order and
					// have no consistent point before the epoch barrier.
					k.fireCheckpointHook(checkpoint.EventChunkCommitted, c.Index)
				}
			}
		})
		if k.params.checkpointEnabled() && run.ctx.Err() == nil {
			if err := k.writeStreamCheckpoint(p, sh, hi, chunkItems, rep); err != nil {
				run.fail(err)
			}
		}
		lo = hi
	}

	k.ob.streamPeak(acct.peakSubgrids.Load())
	times.Gridder = time.Duration(gridNs.Load() / int64(workers))
	times.SubgridFFT = time.Duration(fftNs.Load() / int64(workers))
	times.Adder = time.Duration(addNs.Load() / int64(workers))
	return times, run.finish()
}

// fireCheckpointHook invokes the crash-injection hook at a checkpoint
// protocol point; chunk is the last committed chunk index (-1 if
// none). The hook may panic by design — the simulated kill must
// unwind the pass, so nothing here recovers.
func (k *Kernels) fireCheckpointHook(ev checkpoint.Event, chunk int) {
	if h := k.params.CheckpointHook; h != nil {
		h(ev, chunk)
	}
}

// writeStreamCheckpoint durably snapshots the pass at a quiescent
// epoch barrier: chunks [0, cursor) are fully accumulated onto sh and
// no worker is in flight.
func (k *Kernels) writeStreamCheckpoint(p *plan.Plan, sh *grid.Sharded, cursor, chunkItems int, rep *faulttol.Report) error {
	k.fireCheckpointHook(checkpoint.EventBeforeWrite, cursor-1)
	t0 := time.Now()
	sn := &checkpoint.Snapshot{
		GridSize:   k.params.GridSize,
		NextChunk:  cursor,
		ChunkItems: chunkItems,
		PlanSum:    checkpoint.PlanFingerprint(p),
		Report:     rep.State(),
		Grid:       sh.Master(),
	}
	_, bytes, err := checkpoint.Write(k.params.CheckpointDir, sn, k.params.CheckpointHook)
	if err != nil {
		return fmt.Errorf("core: checkpoint at chunk cursor %d: %w", cursor, err)
	}
	k.ob.checkpointWritten(bytes, t0)
	k.fireCheckpointHook(checkpoint.EventAfterWrite, cursor-1)
	return nil
}

// PeakInflightSubgrids returns the high-water mark the latest streamed
// pass published to the observer's GaugeStreamPeakSubgrids, or 0
// without an observer. Tests use it to check the streaming memory
// bound.
func PeakInflightSubgrids(o *obs.Observer) int64 {
	if o == nil || o.Metrics == nil {
		return 0
	}
	return int64(o.Metrics.Gauge(obs.GaugeStreamPeakSubgrids).Value())
}
