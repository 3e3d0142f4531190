package core

import (
	"errors"
	"time"

	"repro/internal/faulttol"
	"repro/internal/obs"
	"repro/internal/plan"
)

// kernelObs is the pipelines' pre-resolved view of an obs.Observer:
// every instrument the hot path reports into is looked up once at
// NewKernels, so a report costs one atomic add and no registry lookup.
// A nil *kernelObs (Params.Observer == nil) disables observation; the
// hot path then pays a single nil check and takes no timestamps, which
// keeps the four kernel benchmarks at 0 allocs/op.
type kernelObs struct {
	tracer *obs.Tracer

	// The obs instruments are nil-safe, so a metrics-less observer
	// (Observer.Metrics == nil) just leaves these nil.
	visGrid, visDegrid    *obs.Counter
	sgGrid, sgDegrid      *obs.Counter
	sgFFT, sgAdd, sgSplit *obs.Counter
	flagged               *obs.Counter
	retries, skips        *obs.Counter
	panics, dropped       *obs.Counter
	wplanes, cycles       *obs.Counter
	residualPeak          *obs.Gauge
	itemSeconds           *obs.Histogram
	stageNs               map[obs.Stage]*obs.Counter
	gridEpilogueNs        *obs.Counter
	degridPrologueNs      *obs.Counter

	// Kernel dispatch-path counters (which code path actually ran:
	// essential when a perf number surprises).
	pathRef, pathVec, pathVec32 *obs.Counter

	// Sharded-grid and streaming-scheduler instruments.
	shardLocks, shardContended *obs.Counter
	streamChunks               *obs.Counter
	streamInflight             *obs.Gauge
	streamPeakSubgrids         *obs.Gauge

	// Retry-visibility and checkpoint-durability instruments.
	retryAttempts *obs.Counter
	retrySeconds  *obs.Histogram
	ckptWrites    *obs.Counter
	ckptBytes     *obs.Counter
	ckptRestores  *obs.Counter
	ckptSeconds   *obs.Histogram
}

// newKernelObs resolves the observer's instruments; nil in, nil out.
func newKernelObs(o *obs.Observer) *kernelObs {
	if o == nil {
		return nil
	}
	ko := &kernelObs{tracer: o.Tracer}
	if r := o.Metrics; r != nil {
		ko.visGrid = r.Counter(obs.MetricGridVisibilities)
		ko.visDegrid = r.Counter(obs.MetricDegridVisibilities)
		ko.sgGrid = r.Counter(obs.MetricGridSubgrids)
		ko.sgDegrid = r.Counter(obs.MetricDegridSubgrids)
		ko.sgFFT = r.Counter(obs.MetricFFTSubgrids)
		ko.sgAdd = r.Counter(obs.MetricAddedSubgrids)
		ko.sgSplit = r.Counter(obs.MetricSplitSubgrids)
		ko.flagged = r.Counter(obs.MetricFlaggedVisibilities)
		ko.retries = r.Counter(obs.MetricItemRetries)
		ko.skips = r.Counter(obs.MetricItemSkips)
		ko.panics = r.Counter(obs.MetricKernelPanics)
		ko.dropped = r.Counter(obs.MetricDroppedVisibilities)
		ko.wplanes = r.Counter(obs.MetricWPlanes)
		ko.cycles = r.Counter(obs.MetricMajorCycles)
		ko.residualPeak = r.Gauge(obs.GaugeResidualPeak)
		ko.itemSeconds, _ = r.Histogram(obs.HistItemSeconds, obs.DurationBuckets)
		ko.pathRef = r.Counter(obs.MetricKernelPathReference)
		ko.pathVec = r.Counter(obs.MetricKernelPathVector)
		ko.pathVec32 = r.Counter(obs.MetricKernelPathVector32)
		ko.shardLocks = r.Counter(obs.MetricShardLocks)
		ko.shardContended = r.Counter(obs.MetricShardContention)
		ko.streamChunks = r.Counter(obs.MetricStreamChunks)
		ko.streamInflight = r.Gauge(obs.GaugeStreamInflight)
		ko.streamPeakSubgrids = r.Gauge(obs.GaugeStreamPeakSubgrids)
		ko.retryAttempts = r.Counter(obs.MetricRetryAttempts)
		ko.retrySeconds, _ = r.Histogram(obs.HistRetryItemSeconds, obs.DurationBuckets)
		ko.ckptWrites = r.Counter(obs.MetricCheckpointWrites)
		ko.ckptBytes = r.Counter(obs.MetricCheckpointBytes)
		ko.ckptRestores = r.Counter(obs.MetricCheckpointRestores)
		ko.ckptSeconds, _ = r.Histogram(obs.HistCheckpointWriteSeconds, obs.DurationBuckets)
		ko.gridEpilogueNs = r.Counter(obs.MetricGridEpilogueNs)
		ko.degridPrologueNs = r.Counter(obs.MetricDegridPrologueNs)
		ko.stageNs = make(map[obs.Stage]*obs.Counter)
		for _, s := range []obs.Stage{obs.StageGrid, obs.StageDegrid, obs.StageFFT,
			obs.StageAdd, obs.StageSplit, obs.StageShard, obs.StageWPlane, obs.StageCycle} {
			ko.stageNs[s] = r.Counter(obs.StageNsMetric(s))
		}
	}
	return ko
}

// enabled reports whether any observation happens; it is THE hot-path
// guard. Callers must not take timestamps or count flags unless it
// returns true.
func (ko *kernelObs) enabled() bool { return ko != nil }

// span records one completed span (no-op without a tracer).
func (ko *kernelObs) span(s obs.Span) {
	if ko == nil || ko.tracer == nil {
		return
	}
	ko.tracer.Record(s)
}

// now returns the current time only when observation is on, so the
// disabled path never calls time.Now.
func (ko *kernelObs) now() time.Time {
	if ko == nil {
		return time.Time{}
	}
	return time.Now()
}

// stageDone records a completed pipeline-stage span (worker/item -1)
// plus the stage's cumulative wall-time counter. group is the chunk
// index of the pass (or the plane/cycle index for the outer stages);
// wplane is the W-layer all of the stage's data belongs to (-1 when
// unknown or mixed), so W-stacked passes attribute stage time to
// layers.
func (ko *kernelObs) stageDone(stage obs.Stage, group, wplane int, start time.Time, d time.Duration) {
	if ko == nil {
		return
	}
	ko.stageNs[stage].Add(d.Nanoseconds())
	ko.span(obs.Span{Stage: stage, Worker: -1, Group: group, Item: -1,
		Tile: -1, Baseline: -1, Shard: -1, WPlane: wplane,
		Start: ko.tracer.Offset(start), Dur: d.Nanoseconds()})
}

// itemDone accounts one successfully processed work item: the stage's
// visibility and subgrid counters, the per-item latency histogram, the
// retry counter, and a worker-attributed span.
func (ko *kernelObs) itemDone(stage obs.Stage, group, worker, i int, item plan.WorkItem, attempts int, start time.Time) {
	if ko == nil {
		return
	}
	d := time.Since(start)
	switch stage {
	case obs.StageGrid:
		ko.visGrid.Add(int64(item.NrVisibilities()))
		ko.sgGrid.Inc()
	case obs.StageDegrid:
		ko.visDegrid.Add(int64(item.NrVisibilities()))
		ko.sgDegrid.Inc()
	}
	ko.itemSeconds.Observe(d.Seconds())
	if attempts > 1 {
		ko.retries.Inc()
		ko.retryAttempts.Add(int64(attempts - 1))
		ko.retrySeconds.Observe(d.Seconds())
	}
	ko.span(obs.Span{Stage: stage, Worker: worker, Group: group, Item: i,
		Tile: -1, Baseline: item.Baseline, Shard: -1, WPlane: item.WPlane,
		Start: ko.tracer.Offset(start), Dur: d.Nanoseconds()})
}

// itemSkipped accounts a work item abandoned under SkipAndFlag and its
// dropped visibilities.
func (ko *kernelObs) itemSkipped(item plan.WorkItem) {
	if ko == nil {
		return
	}
	ko.skips.Inc()
	ko.dropped.Add(int64(item.NrVisibilities()))
}

// attemptFailed counts recovered kernel panics (every failed attempt,
// matching the faulttol taxonomy: bad input is not a panic).
func (ko *kernelObs) attemptFailed(err error) {
	if ko == nil {
		return
	}
	if errors.Is(err, faulttol.ErrKernelPanic) {
		ko.panics.Inc()
	}
}

// flaggedVis counts zero-weight samples entering the gridder.
func (ko *kernelObs) flaggedVis(n int64) {
	if ko == nil {
		return
	}
	ko.flagged.Add(n)
}

// subgrids bumps one of the batch-stage subgrid counters by the number
// of live (non-nil) subgrids in the batch.
func (ko *kernelObs) subgrids(c *obs.Counter, batch int) {
	if ko == nil {
		return
	}
	c.Add(int64(batch))
}

// kernelPath counts one kernel invocation on the given dispatch-path
// counter (callers guard with enabled()).
func (ko *kernelObs) kernelPath(c *obs.Counter) {
	if ko == nil {
		return
	}
	c.Inc()
}

// epilogueDone adds one gridder tile's epilogue (A-term sandwich,
// taper, pixel store) to its busy-time counter; start comes
// from now(), so the disabled path takes no timestamp.
func (ko *kernelObs) epilogueDone(start time.Time) {
	if ko == nil {
		return
	}
	ko.gridEpilogueNs.Add(time.Since(start).Nanoseconds())
}

// prologueDone is epilogueDone's mirror: one degridder item's prologue
// (A-term sandwich, taper, plane split, phase offsets).
func (ko *kernelObs) prologueDone(start time.Time) {
	if ko == nil {
		return
	}
	ko.degridPrologueNs.Add(time.Since(start).Nanoseconds())
}

// tileDone records one pixel-tile span of the intra-item fan-out.
// worker is the tile-worker index local to the fan-out (0 is the item
// owner).
func (ko *kernelObs) tileDone(worker, tile int, start time.Time) {
	if ko == nil || ko.tracer == nil {
		return
	}
	d := time.Since(start)
	ko.span(obs.Span{Stage: obs.StageTile, Worker: worker, Group: -1, Item: -1,
		Tile: tile, Baseline: -1, Shard: -1, WPlane: -1,
		Start: ko.tracer.Offset(start), Dur: d.Nanoseconds()})
}

// planeDone accounts one completed W-layer.
func (ko *kernelObs) planeDone(wplane int, start time.Time) {
	if ko == nil {
		return
	}
	d := time.Since(start)
	ko.wplanes.Inc()
	ko.stageNs[obs.StageWPlane].Add(d.Nanoseconds())
	ko.span(obs.Span{Stage: obs.StageWPlane, Worker: -1, Group: wplane, Item: -1,
		Tile: -1, Baseline: -1, Shard: -1, WPlane: wplane,
		Start: ko.tracer.Offset(start), Dur: d.Nanoseconds()})
}

// cycleImaged accounts the imaging phase (grid + invert + peak) of one
// major cycle and publishes the residual peak.
func (ko *kernelObs) cycleImaged(major int, peak float64, start time.Time) {
	if ko == nil {
		return
	}
	d := time.Since(start)
	ko.cycles.Inc()
	ko.residualPeak.Set(peak)
	ko.stageNs[obs.StageCycle].Add(d.Nanoseconds())
	ko.span(obs.Span{Stage: obs.StageCycle, Worker: -1, Group: major, Item: -1,
		Tile: -1, Baseline: -1, Shard: -1, WPlane: -1,
		Start: ko.tracer.Offset(start), Dur: d.Nanoseconds()})
}

// tracing reports whether per-shard spans should be recorded; they are
// too fine-grained to take timestamps for when only metrics are on.
func (ko *kernelObs) tracing() bool { return ko != nil && ko.tracer != nil }

// shardDone records one locked row-band update of the sharded adder or
// splitter: the overlap of subgrid (group, item) with grid shard si,
// attributed to the subgrid's W-layer. Only called when tracing() is
// true.
func (ko *kernelObs) shardDone(worker, shard, wplane int, start time.Time) {
	if ko == nil || ko.tracer == nil {
		return
	}
	d := time.Since(start)
	ko.span(obs.Span{Stage: obs.StageShard, Worker: worker, Group: -1, Item: -1,
		Tile: -1, Baseline: -1, Shard: shard, WPlane: wplane,
		Start: ko.tracer.Offset(start), Dur: d.Nanoseconds()})
}

// shardBatch accounts one sharded adder/splitter batch: the subgrid
// counter plus the lock/contention deltas the batch generated.
func (ko *kernelObs) shardBatch(c *obs.Counter, batch int, locks, contended int64) {
	if ko == nil {
		return
	}
	c.Add(int64(batch))
	ko.shardLocks.Add(locks)
	ko.shardContended.Add(contended)
}

// chunkDone accounts one completed streaming chunk and the current
// in-flight count after its release.
func (ko *kernelObs) chunkDone(inflight int64) {
	if ko == nil {
		return
	}
	ko.streamChunks.Inc()
	ko.streamInflight.Set(float64(inflight))
}

// streamPeak publishes the peak in-flight subgrid count of a streamed
// pass (set once, at the end, from the scheduler's atomic high-water
// mark).
func (ko *kernelObs) streamPeak(peak int64) {
	if ko == nil {
		return
	}
	ko.streamPeakSubgrids.Set(float64(peak))
	ko.streamInflight.Set(0)
}

// checkpointWritten accounts one published checkpoint: its size and
// the wall time of serialization + sync + rename.
func (ko *kernelObs) checkpointWritten(bytes int64, start time.Time) {
	if ko == nil {
		return
	}
	ko.ckptWrites.Inc()
	ko.ckptBytes.Add(bytes)
	ko.ckptSeconds.Observe(time.Since(start).Seconds())
}

// checkpointRestored counts one resumed pass that continued from a
// restored snapshot.
func (ko *kernelObs) checkpointRestored() {
	if ko == nil {
		return
	}
	ko.ckptRestores.Inc()
}

// countFlagged returns the number of flagged samples inside an item's
// visibility block (only called when observation is enabled).
func (vs *VisibilitySet) countFlagged(item plan.WorkItem) int64 {
	if vs.Flags == nil {
		return 0
	}
	flags := vs.Flags[item.Baseline]
	var n int64
	for t := 0; t < item.NrTimesteps; t++ {
		row := (item.TimeStart+t)*vs.NrChannels + item.Channel0
		for c := 0; c < item.NrChannels; c++ {
			if flags[row+c] {
				n++
			}
		}
	}
	return n
}
