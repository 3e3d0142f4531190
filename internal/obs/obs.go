// Package obs is the pipeline observability layer: a concurrency-safe
// metrics registry (counters, gauges, fixed-bucket histograms) and a
// stage tracer recording per-stage spans with worker and tile
// attribution. The core pipelines report into it through
// core.Params.Observer; the paper's evaluation method — measure every
// kernel, never guess (Fig. 9, the roofline of Fig. 11) — is only
// reproducible with this kind of instrumentation.
//
// Cost model: every instrument handle (Counter, Gauge, Histogram) is
// nil-safe, so producers hold pre-resolved (possibly nil) pointers and
// pay a single predictable branch when observation is disabled. With a
// nil Observer the hot paths do no time.Now calls, no map lookups and
// no allocations; see DESIGN.md ("Observability") for the measured
// budget.
package obs

// Stage identifies one pipeline stage in metrics names and trace
// spans.
type Stage string

// Pipeline stages traced by internal/core.
const (
	// StageGrid is the gridder kernel (Algorithm 1).
	StageGrid Stage = "grid"
	// StageFFT is the subgrid FFT batch (forward or inverse).
	StageFFT Stage = "fft"
	// StageAdd is the adder (subgrids onto the grid).
	StageAdd Stage = "add"
	// StageSplit is the splitter (subgrids out of the grid).
	StageSplit Stage = "split"
	// StageDegrid is the degridder kernel (Algorithm 2).
	StageDegrid Stage = "degrid"
	// StageTile is one pixel tile of a work item, recorded only when
	// tiles fan out across workers (runTiles with par > 1).
	StageTile Stage = "tile"
	// StageShard is one locked row-band update of the sharded adder or
	// splitter: the overlap of one subgrid with one grid shard. Shard
	// spans carry the shard index and the subgrid's W-layer.
	StageShard Stage = "shard"
	// StageWPlane is one W-layer of a W-stacked pass.
	StageWPlane Stage = "wplane"
	// StageCycle is the imaging phase (grid + invert + peak) of one
	// major cycle.
	StageCycle Stage = "cycle"
)

// Metric names registered by the core pipelines. Exported so tests and
// commands address the registry without stringly-typed drift.
const (
	// MetricGridVisibilities counts visibilities processed by the
	// gridder (flagged samples included: they enter with zero weight).
	MetricGridVisibilities = "grid_visibilities_total"
	// MetricDegridVisibilities counts visibilities predicted by the
	// degridder.
	MetricDegridVisibilities = "degrid_visibilities_total"
	// MetricGridSubgrids counts work items completed by the gridder.
	MetricGridSubgrids = "grid_subgrids_total"
	// MetricDegridSubgrids counts work items completed by the degridder.
	MetricDegridSubgrids = "degrid_subgrids_total"
	// MetricFFTSubgrids counts subgrids Fourier-transformed (both
	// directions).
	MetricFFTSubgrids = "fft_subgrids_total"
	// MetricAddedSubgrids counts subgrids accumulated onto the grid.
	MetricAddedSubgrids = "add_subgrids_total"
	// MetricSplitSubgrids counts subgrids extracted from the grid.
	MetricSplitSubgrids = "split_subgrids_total"
	// MetricFlaggedVisibilities counts flagged (zero-weight) samples
	// seen by the gridder.
	MetricFlaggedVisibilities = "grid_flagged_visibilities_total"
	// MetricItemSkips counts work items abandoned under SkipAndFlag.
	MetricItemSkips = "pipeline_item_skips_total"
	// MetricKernelPanics counts work items that failed with a kernel
	// panic recovered by faulttol.Run (each item is attempted once).
	MetricKernelPanics = "pipeline_kernel_panics_total"
	// MetricDroppedVisibilities counts visibilities lost to skipped
	// items.
	MetricDroppedVisibilities = "pipeline_dropped_visibilities_total"
	// MetricWPlanes counts W-layers processed by the W-stacked passes.
	MetricWPlanes = "wstack_planes_total"
	// MetricMajorCycles counts imaging major cycles executed.
	MetricMajorCycles = "cycle_major_total"
	// MetricKernelPathVector counts invocations of the float64 tile
	// kernels (pixel-lane gridder, fused degridder) on any tier.
	MetricKernelPathVector = "kernel_path_vector_total"
	// MetricKernelPathVector32 counts invocations of the float32 tile
	// kernels on any tier.
	MetricKernelPathVector32 = "kernel_path_vector_float32_total"
	// MetricGridEpilogueNs sums the busy time (nanoseconds, over all
	// tile workers) the gridder tiles spend after the visibility loop:
	// lane fold, A-term sandwich, taper and pixel store. Its share of
	// the gridder's item time (HistItemSeconds sum of a gridding pass) is
	// the per-subgrid fixed cost of the kernel.
	MetricGridEpilogueNs = "grid_epilogue_ns_total"
	// MetricDegridPrologueNs is its mirror: the busy time the degridder
	// spends per item before the visibility loop (A-term sandwich, taper,
	// plane split, phase offsets).
	MetricDegridPrologueNs = "degrid_prologue_ns_total"
	// MetricShardLocks counts shard-lock acquisitions by the sharded
	// adder and splitter (one per subgrid x shard overlap).
	MetricShardLocks = "grid_shard_locks_total"
	// MetricShardContention counts shard-lock acquisitions that found
	// the lock held and had to wait. The ratio to MetricShardLocks is
	// the write-contention probability; raise Params.GridShards when it
	// climbs.
	MetricShardContention = "grid_shard_contention_total"
	// MetricStreamChunks counts work chunks completed by the pass
	// scheduler (gridding and degridding).
	MetricStreamChunks = "stream_chunks_total"
	// GaugeStreamInflight holds the number of chunks currently in
	// flight in the pass scheduler (grid -> FFT -> add, or split ->
	// inverse FFT -> degrid).
	GaugeStreamInflight = "stream_inflight_chunks"
	// GaugeStreamPeakSubgrids holds the peak number of subgrids
	// simultaneously alive during the latest gridding or degridding
	// pass; the memory bound MaxInflightChunks x chunk size is checked
	// against it.
	GaugeStreamPeakSubgrids = "stream_peak_inflight_subgrids"
	// GaugeResidualPeak holds the residual peak entering the latest
	// major cycle.
	GaugeResidualPeak = "cycle_residual_peak"
	// HistItemSeconds is the per-work-item wall time distribution.
	HistItemSeconds = "pipeline_item_seconds"
	// MetricCheckpointWrites counts durable streaming checkpoints
	// published (temp file synced and renamed into place).
	MetricCheckpointWrites = "checkpoint_writes_total"
	// MetricCheckpointBytes sums the sizes of published checkpoints.
	MetricCheckpointBytes = "checkpoint_bytes_total"
	// MetricCheckpointRestores counts resumed passes that continued
	// from a restored snapshot (clean restarts don't count).
	MetricCheckpointRestores = "checkpoint_restores_total"
	// HistCheckpointWriteSeconds is the distribution of checkpoint
	// write durations (serialization + fsync + rename).
	HistCheckpointWriteSeconds = "checkpoint_write_seconds"
)

// StageNsMetric returns the name of the cumulative wall-clock counter
// (nanoseconds) of a pipeline stage, e.g. "stage_grid_ns_total".
func StageNsMetric(s Stage) string { return "stage_" + string(s) + "_ns_total" }

// Observer bundles the two observation sinks the pipelines report
// into. Either field may be nil to observe only metrics or only
// spans; a nil *Observer disables observation entirely (the
// zero-overhead default).
type Observer struct {
	// Metrics receives counters, gauges and histograms.
	Metrics *Registry
	// Tracer receives stage/item/tile spans.
	Tracer *Tracer
}

// New returns an Observer with a fresh registry and a tracer bounded
// to maxSpans spans (<= 0 selects DefaultMaxSpans).
func New(maxSpans int) *Observer {
	return &Observer{Metrics: NewRegistry(), Tracer: NewTracer(maxSpans)}
}
