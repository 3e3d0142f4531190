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
// chunks are currently between their first and last stage, and the
// high-water mark of simultaneously alive subgrids (the number the
// memory bound MaxInflightChunks x StreamChunkItems promises to cap).
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
// the plain grid with NewShardedGrid). See gridStreamed for the pass
// and DESIGN.md ("The pass scheduler") for its contracts.
//
// On cancellation the error matches both faulttol.ErrCanceled and the
// context's cause, even when the cancellation surfaced inside a failing
// work item. The grid then holds exactly the chunks whose add stage
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

// gridStreamed is the gridding pass on the chunk scheduler (runChunks):
// each chunk runs gridder -> subgrid FFT -> adder on its worker.
//
// Accumulation goes through the shard locks of sh: overlapping chunks
// contend only on shared row bands. With one chunk worker the chunks
// (and their items) are added in exact plan order, so the grid does not
// depend on the chunk size or the shard count; with more it differs by
// floating-point reassociation only.
//
// W-stacking (Sections III and VI-E): the gridder removes each item's
// layer offset, so a W-stacked plan's chunks add onto a layer grid
// instead, which is folded into sh at every layer end (flushLayer) —
// sh only ever holds whole layers.
//
// With Params.CheckpointDir set the pass writes a durable snapshot
// (grid, chunk cursor, fault counters — see internal/checkpoint) at
// every epoch boundary of the scheduler, including a final one at the
// end of the plan.
func (k *Kernels) gridStreamed(ctx context.Context, p *plan.Plan, vs *VisibilitySet, prov aterm.Provider, sh *grid.Sharded, ft faulttol.Config, rep *faulttol.Report, startChunk int) (StageTimes, error) {
	if err := k.checkPlan(p, vs, sh.Master().N); err != nil {
		return StageTimes{}, err
	}
	h := epochHooks{snapshot: func(cursor, chunkItems int) error {
		return k.writeStreamCheckpoint(p, sh, cursor, chunkItems, rep)
	}}
	acc := sh
	if p.WStepLambda > 0 {
		acc = k.NewShardedGrid(grid.NewGrid(sh.Master().N))
		h.layerEnd = func(w int) { k.flushLayer(acc.Master(), sh.Master(), float64(w)*p.WStepLambda) }
	}
	return k.runChunks(ctx, p, vs, prov, obs.StageGrid, ft, rep, startChunk, h,
		func(cp *chunkPass, worker int, c plan.Chunk, s *scratch, subgrids []*grid.Subgrid) {
			if !cp.stage(obs.StageGrid, c, func() {
				for i, item := range c.Items {
					if cp.run.ctx.Err() != nil {
						return
					}
					ok := cp.run.attempt(c.Index, worker, i, item, func() error {
						sgr := k.getSubgrid(item)
						subgrids[i] = sgr
						vis := s.visBuf(item.NrVisibilities())
						vs.gather(item, vis)
						if k.ob.enabled() {
							k.ob.flaggedVis(vs.countFlagged(item))
						}
						k.gridSubgridScratch(item, vs.itemUVW(item), vis, cp.lookupATerms(item), sgr, s, cp.par)
						if !sgr.Finite() {
							return fmt.Errorf("%w: non-finite subgrid (corrupt unflagged visibilities)",
								faulttol.ErrBadInput)
						}
						return nil
					})
					if !ok && subgrids[i] != nil {
						// Failed items leave a poisoned subgrid behind; drop
						// it so the FFT/add stages pass over the slot.
						k.putSubgrid(subgrids[i])
						subgrids[i] = nil
					}
				}
			}) {
				return
			}
			if !cp.stage(obs.StageFFT, c, func() { k.fftChunk(subgrids, false) }) {
				return
			}
			cp.stage(obs.StageAdd, c, func() { k.shardedBatch(worker, subgrids, acc, true, true) })
		})
}

// flushLayer folds the uv grid of one W-layer, whose items the gridder
// placed with the layer offset w (wavelengths) removed, into g: to the
// image, times the layer's w screen exp(+2*pi*i*w*n(l,m)), back to uv,
// added — all in place in layer, which is zeroed for the next layer.
func (k *Kernels) flushLayer(layer, g *grid.Grid, w float64) {
	workers := k.params.workers()
	transformGrid(layer, layer, true, workers)
	wScreen(layer, layer, k.params.ImageSize, w, +1, workers)
	transformGrid(layer, layer, false, workers)
	g.AddGrid(layer)
	layer.Zero()
}

// chunkPass is the state the chunk workers of one pass share.
type chunkPass struct {
	k     *Kernels
	run   *itemRunner
	cache *aterm.Cache
	vs    *VisibilitySet
	// par is the pixel-tile parallelism of each item (tilePar).
	par int
	// busy sums each stage's time over the chunk workers.
	busy map[obs.Stage]*atomic.Int64
}

// stage runs one stage of a chunk: it times fn, adds the time to the
// pass's busy time of st, records the stage span and reports whether
// the pass goes on.
func (cp *chunkPass) stage(st obs.Stage, c plan.Chunk, fn func()) bool {
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	cp.busy[st].Add(d.Nanoseconds())
	cp.k.ob.stageDone(st, c.Index, c.WPlane, t0, d)
	return cp.run.ctx.Err() == nil
}

// lookupATerms resolves a work item's two station maps from the warm
// run-level cache (every lookup here is a hit; see prefillATerms).
func (cp *chunkPass) lookupATerms(item plan.WorkItem) jones {
	if cp.cache == nil {
		return jones{}
	}
	b := cp.vs.Baselines[item.Baseline]
	return jones{pp: cp.cache.Planes(b.P, item.ATermSlot), qp: cp.cache.Planes(b.Q, item.ATermSlot)}
}

// epochHooks are a pass's calls at the scheduler's epoch barriers,
// each made with no chunk in flight; any of them may be nil.
type epochHooks struct {
	// layerStart and layerEnd bracket the chunks of W-layer w of a
	// W-stacked plan.
	layerStart, layerEnd func(w int)
	// snapshot is the gridding pass's checkpoint writer, called with the
	// chunk cursor at every epoch end when Params.CheckpointDir is set.
	snapshot func(cursor, chunkItems int) error
}

// runChunks is the pass scheduler, the one execution shape of Fig. 4
// for both directions: the plan is cut into chunks of
// StreamChunkItems(len) work items (plan order preserved, one W-layer
// per chunk) and min(Workers, MaxInflightChunks) chunk workers each
// pump one chunk at a time through fn — gridder -> subgrid FFT ->
// adder, or splitter -> inverse subgrid FFT -> degridder — filling
// subgrids (one nil slot per item), which return to the pool after the
// chunk. The chunk is the unit of parallelism — inside a chunk items
// run serially on the owning worker, fanning out over pixel tiles only
// when there are fewer chunk workers than Workers — so peak subgrid
// memory is bounded by chunk workers x chunk size regardless of
// observation length. stage names the pass's items to the observer.
//
// The chunks [startChunk, len) run in epochs, each ending in a
// quiescent barrier where the hooks run. On a W-stacked plan every
// W-layer is one epoch (Params.CheckpointEvery does not apply), so the
// pass can move a whole layer between the uv and image domains; a
// resume must start at a layer start. Otherwise, with a snapshot
// writer and Params.CheckpointDir set, epochs end at the multiples of
// Params.CheckpointEvery from chunk 0, so a resumed run checkpoints at
// the same cursors as an uninterrupted one; without either there is a
// single epoch and no barrier. Degridding passes no snapshot writer,
// so no CheckpointHook event fires.
//
// The returned StageTimes hold each stage's busy time divided by the
// number of chunk workers.
func (k *Kernels) runChunks(ctx context.Context, p *plan.Plan, vs *VisibilitySet, prov aterm.Provider, stage obs.Stage, ft faulttol.Config, rep *faulttol.Report, startChunk int, h epochHooks,
	fn func(cp *chunkPass, worker int, c plan.Chunk, s *scratch, subgrids []*grid.Subgrid)) (StageTimes, error) {
	chunkItems := k.StreamChunkItems(len(p.Items))
	chunks := p.StreamChunks(chunkItems)
	stacked := p.WStepLambda > 0
	switch {
	case startChunk < 0 || startChunk > len(chunks):
		return StageTimes{}, fmt.Errorf("core: resume cursor %d outside the plan's %d chunks", startChunk, len(chunks))
	case stacked && startChunk > 0 && startChunk < len(chunks) && chunks[startChunk].WPlane == chunks[startChunk-1].WPlane:
		return StageTimes{}, fmt.Errorf("core: resume cursor %d inside W-layer %d", startChunk, chunks[startChunk].WPlane)
	case startChunk == len(chunks):
		// Nothing left to run (also covers an empty plan).
		return StageTimes{}, ctxErr(ctx)
	}
	workers := min(k.params.chunkWorkers(), len(chunks)-startChunk)
	run := k.newItemRunner(ctx, stage, ft, rep)
	defer run.cancel()
	// The A-term cache is not write-safe concurrently: warm it for the
	// whole plan up front, so every worker Get is a read-only hit.
	cp := &chunkPass{k: k, run: run, cache: k.newATermCache(prov), vs: vs, par: tilePar(workers, k.params.workers()),
		busy: map[obs.Stage]*atomic.Int64{obs.StageGrid: {}, obs.StageDegrid: {}, obs.StageFFT: {}, obs.StageAdd: {}, obs.StageSplit: {}}}
	k.prefillATerms(cp.cache, p.Items, vs.Baselines)

	var acct streamAccounting
	checkpointing := h.snapshot != nil && k.params.checkpointEnabled()
	ckptEvery := len(chunks)
	if checkpointing {
		ckptEvery = k.params.checkpointEvery()
	}
	for lo := startChunk; lo < len(chunks) && run.ctx.Err() == nil; {
		w, t0 := chunks[lo].WPlane, k.ob.now()
		hi := min((lo/ckptEvery+1)*ckptEvery, len(chunks))
		if stacked {
			hi = lo + 1
			for hi < len(chunks) && chunks[hi].WPlane == w {
				hi++
			}
			if h.layerStart != nil {
				h.layerStart(w)
			}
		}
		var next atomic.Int64
		next.Store(int64(lo))
		// One worker runs on this goroutine, in chunk order, so that an
		// injected crash (a panicking checkpoint hook) unwinds the whole
		// pass.
		runWorkers(workers, func(worker int) {
			s := k.getScratch()
			defer k.putScratch(s)
			buf := make([]*grid.Subgrid, chunkItems)
			for run.ctx.Err() == nil {
				ci := int(next.Add(1)) - 1
				if ci >= hi {
					return
				}
				c, subgrids := chunks[ci], buf[:len(chunks[ci].Items)]
				acct.acquire(len(c.Items))
				fn(cp, worker, c, s, subgrids)
				for i, sg := range subgrids {
					if sg != nil {
						k.putSubgrid(sg)
						subgrids[i] = nil
					}
				}
				k.ob.chunkDone(acct.release(len(c.Items)))
				if h.snapshot != nil && workers == 1 && run.ctx.Err() == nil {
					// Concurrent workers commit chunks out of order and
					// have no consistent point before the epoch barrier.
					k.fireCheckpointHook(checkpoint.EventChunkCommitted, c.Index)
				}
			}
		})
		if run.ctx.Err() != nil {
			break
		}
		if stacked {
			if h.layerEnd != nil {
				h.layerEnd(w)
			}
			k.ob.planeDone(w, t0)
		}
		if checkpointing {
			if err := h.snapshot(hi, chunkItems); err != nil {
				run.fail(err)
			}
		}
		lo = hi
	}

	k.ob.streamPeak(acct.peakSubgrids.Load())
	busy := func(st obs.Stage) time.Duration { return time.Duration(cp.busy[st].Load() / int64(workers)) }
	return StageTimes{Gridder: busy(obs.StageGrid), Degridder: busy(obs.StageDegrid),
		SubgridFFT: busy(obs.StageFFT), Adder: busy(obs.StageAdd), Splitter: busy(obs.StageSplit)}, run.finish()
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

// PeakInflightSubgrids returns the high-water mark the latest pass
// published to the observer's GaugeStreamPeakSubgrids, or 0 without an
// observer. Tests use it to check the scheduler's memory bound.
func PeakInflightSubgrids(o *obs.Observer) int64 {
	if o == nil || o.Metrics == nil {
		return 0
	}
	return int64(o.Metrics.Gauge(obs.GaugeStreamPeakSubgrids).Value())
}
