package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// metricDecl declares one metric of the benchmark. BENCHMARK.json at
// the repository root lists the same names, units, directions and
// bounds (TestManifestMatchesDeclarations keeps the two in step; the
// extra fields here — which layer a metric belongs to and which
// end-to-end metric it should move on which workload — do not fit the
// manifest's fixed schema and are documented in README.md).
type metricDecl struct {
	Name   string
	Unit   string
	Better string  // "lower" | "higher"
	Bound  float64 // end-to-end only: tolerated worsening as a share of the parent's median
	// Moves names the end-to-end metric and workload a per-layer
	// metric is predicted to move.
	Moves string
}

// The end-to-end metrics. The acceptance driver requires every one of
// them from every workload, so each has a definition on each workload
// (README.md, "End-to-end metrics"). Run-to-run spreads on the
// reference host are 3-7 %, 14 % on dense-f32; with the head-room the
// driver asks for, all four bounds land on the contract's 0.25 cap.
var e2eMetrics = []metricDecl{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "grid_mvis_s", Unit: "MVis/s", Better: "higher", Bound: 0.25},
	{Name: "cycle_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// The per-layer metrics of the traced run. A value of 0 means the
// layer is not exercised by that workload (README.md, "Per-layer
// metrics").
var layerMetrics = []metricDecl{
	{Name: "plan.build_s", Unit: "s", Better: "lower", Moves: "setup_s on all; grid_mvis_s on distrib"},
	{Name: "plan.items", Unit: "count", Better: "lower", Moves: "grid_mvis_s on sparse"},
	{Name: "plan.vis_per_item", Unit: "count", Better: "higher", Moves: "grid_mvis_s on sparse"},
	{Name: "xmath.sincos.mevals_s", Unit: "Meval/s", Better: "higher", Moves: "grid_mvis_s on dense-f32"},

	{Name: "core.gridder.busy_s", Unit: "s", Better: "lower", Moves: "grid_mvis_s, cycle_s on dense, dense-f32"},
	{Name: "core.gridder.mvis_s", Unit: "MVis/s", Better: "higher", Moves: "grid_mvis_s on dense, dense-f32"},
	{Name: "core.gridder.ops_per_vis", Unit: "count", Better: "lower", Moves: "grid_mvis_s on dense"},
	{Name: "core.gridder.gops_s", Unit: "GOps/s", Better: "higher", Moves: "grid_mvis_s on dense"},
	{Name: "core.degridder.busy_s", Unit: "s", Better: "lower", Moves: "cycle_s on dense, dense-f32"},
	{Name: "core.degridder.mvis_s", Unit: "MVis/s", Better: "higher", Moves: "cycle_s on dense, dense-f32"},
	{Name: "core.degridder.ops_per_vis", Unit: "count", Better: "lower", Moves: "cycle_s on dense"},
	{Name: "core.degridder.gops_s", Unit: "GOps/s", Better: "higher", Moves: "cycle_s on dense"},

	{Name: "aterm.eval_s", Unit: "s", Better: "lower", Moves: "grid_mvis_s, cycle_s on sparse"},
	{Name: "aterm.evals", Unit: "count", Better: "lower", Moves: "grid_mvis_s on sparse"},
	{Name: "core.subgrid_fft.busy_s", Unit: "s", Better: "lower", Moves: "grid_mvis_s, cycle_s on sparse"},
	{Name: "core.subgrid_fft.subgrids_s", Unit: "1/s", Better: "higher", Moves: "grid_mvis_s on sparse"},
	{Name: "core.adder.busy_s", Unit: "s", Better: "lower", Moves: "grid_mvis_s on sparse"},
	{Name: "core.adder.mpix_s", Unit: "Mpix/s", Better: "higher", Moves: "grid_mvis_s on sparse"},
	{Name: "core.adder_sharded.busy_s", Unit: "s", Better: "lower", Moves: "grid_mvis_s on served, distrib"},
	{Name: "core.adder_sharded.mpix_s", Unit: "Mpix/s", Better: "higher", Moves: "grid_mvis_s on served, distrib"},
	{Name: "core.splitter.busy_s", Unit: "s", Better: "lower", Moves: "cycle_s on sparse"},
	{Name: "core.splitter.mpix_s", Unit: "Mpix/s", Better: "higher", Moves: "cycle_s on sparse"},
	{Name: "core.splitter_sharded.busy_s", Unit: "s", Better: "lower", Moves: "none today (no streamed degridding pass)"},
	{Name: "core.splitter_sharded.mpix_s", Unit: "Mpix/s", Better: "higher", Moves: "none today (no streamed degridding pass)"},
	{Name: "fft.grid.busy_s", Unit: "s", Better: "lower", Moves: "cycle_s on dense, dense-f32, sparse"},

	{Name: "core.pass.grid_s", Unit: "s", Better: "lower", Moves: "grid_mvis_s on dense, dense-f32, sparse"},
	{Name: "core.pass.gridder_s", Unit: "s", Better: "lower", Moves: "grid_mvis_s on dense"},
	{Name: "core.pass.subgrid_fft_s", Unit: "s", Better: "lower", Moves: "grid_mvis_s on sparse"},
	{Name: "core.pass.adder_s", Unit: "s", Better: "lower", Moves: "grid_mvis_s on sparse"},
	{Name: "core.pass.other_s", Unit: "s", Better: "lower", Moves: "grid_mvis_s on dense"},
	{Name: "core.pass.kernel_share", Unit: "ratio", Better: "lower", Moves: "grid_mvis_s on dense"},
	{Name: "core.pass.warmup_s", Unit: "s", Better: "lower", Moves: "none (first-pass cost)"},
	{Name: "core.pass.degrid_s", Unit: "s", Better: "lower", Moves: "cycle_s on dense, dense-f32, sparse"},
	{Name: "core.pass.degridder_s", Unit: "s", Better: "lower", Moves: "cycle_s on dense"},
	{Name: "core.pass.splitter_s", Unit: "s", Better: "lower", Moves: "cycle_s on sparse"},
	{Name: "core.pass.degrid_fft_s", Unit: "s", Better: "lower", Moves: "cycle_s on sparse"},
	{Name: "core.pass.degrid_other_s", Unit: "s", Better: "lower", Moves: "cycle_s on dense"},
	{Name: "core.pass.kernel_frac", Unit: "ratio", Better: "higher", Moves: "none (share of grid+degrid wall in the two kernels)"},
	{Name: "core.pass.fixed_frac", Unit: "ratio", Better: "lower", Moves: "none (share in subgrid FFT, adder, splitter, A-terms)"},

	{Name: "core.streamed.grid_s", Unit: "s", Better: "lower", Moves: "grid_mvis_s on served, distrib"},
	{Name: "core.streamed.overhead_frac", Unit: "ratio", Better: "lower", Moves: "grid_mvis_s on served, distrib"},
	{Name: "checkpoint.write_s", Unit: "s", Better: "lower", Moves: "grid_mvis_s on distrib when checkpointing is on"},
	{Name: "checkpoint.bytes", Unit: "B", Better: "lower", Moves: "grid_mvis_s on distrib when checkpointing is on"},
	{Name: "checkpoint.count", Unit: "count", Better: "lower", Moves: "grid_mvis_s on distrib when checkpointing is on"},
	{Name: "checkpoint.fingerprint_s", Unit: "s", Better: "lower", Moves: "grid_mvis_s on distrib"},
	{Name: "obs.enabled_overhead_frac", Unit: "ratio", Better: "lower", Moves: "none by design"},

	{Name: "server.create_s", Unit: "s", Better: "lower", Moves: "cycle_s on served"},
	{Name: "server.create_miss_s", Unit: "s", Better: "lower", Moves: "setup_s on served"},
	{Name: "server.stream_s", Unit: "s", Better: "lower", Moves: "cycle_s, grid_mvis_s on served"},
	{Name: "server.finalize_s", Unit: "s", Better: "lower", Moves: "cycle_s, grid_mvis_s on served"},
	{Name: "server.fetch_s", Unit: "s", Better: "lower", Moves: "cycle_s on served"},
	{Name: "server.wire_bytes", Unit: "B", Better: "lower", Moves: "grid_mvis_s on served"},
	{Name: "server.plan_cache_hit_frac", Unit: "ratio", Better: "higher", Moves: "cycle_s on served"},
	{Name: "server.frame_encode_mb_s", Unit: "MB/s", Better: "higher", Moves: "grid_mvis_s on served"},

	{Name: "distrib.plan_s", Unit: "s", Better: "lower", Moves: "grid_mvis_s, cycle_s on distrib"},
	{Name: "distrib.fill_s", Unit: "s", Better: "lower", Moves: "grid_mvis_s, cycle_s on distrib"},
	{Name: "distrib.grid_s", Unit: "s", Better: "lower", Moves: "grid_mvis_s, cycle_s on distrib"},
	{Name: "distrib.band_encode_s", Unit: "s", Better: "lower", Moves: "grid_mvis_s on distrib"},
	{Name: "distrib.band_bytes", Unit: "B", Better: "lower", Moves: "grid_mvis_s on distrib"},
	{Name: "distrib.reduce_s", Unit: "s", Better: "lower", Moves: "grid_mvis_s on distrib"},
	{Name: "distrib.run_s", Unit: "s", Better: "lower", Moves: "grid_mvis_s on distrib"},
	{Name: "distrib.unaccounted_s", Unit: "s", Better: "lower", Moves: "grid_mvis_s on distrib"},
	{Name: "distrib.restarts", Unit: "count", Better: "lower", Moves: "none (0 unless a worker fails)"},

	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower", Moves: "none (cost of the benchmark's own spans)"},

	// End-to-end quantities that exist on some workloads only. The
	// driver gates every end-to-end metric on every workload, so these
	// are reported here (measured in the traced run's end-to-end
	// phase) instead of being gated where they have no meaning.
	{Name: "degrid_mvis_s", Unit: "MVis/s", Better: "higher", Moves: "cycle_s on dense, dense-f32, sparse"},
	{Name: "degrid_rel_rms", Unit: "ratio", Better: "lower", Moves: "none (accuracy; also a correctness gate)"},
	{Name: "session_p90_s", Unit: "s", Better: "lower", Moves: "none (tail of cycle_s on served)"},
	{Name: "w1_mvis_s", Unit: "MVis/s", Better: "higher", Moves: "cycle_s on distrib"},
	{Name: "w2_mvis_s", Unit: "MVis/s", Better: "higher", Moves: "grid_mvis_s on distrib"},
	{Name: "eff_w2", Unit: "ratio", Better: "higher", Moves: "grid_mvis_s on distrib"},
}

// workloadDecl names a workload and why it exists.
type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDecls = []workloadDecl{
	{"dense", "30x256x16 float64, ~1000 vis per subgrid: the paper regime where the per-visibility kernel loop is over 90% of the pass; kernel and scheduling work shows here, FFT/adder work must not"},
	{"dense-f32", "the dense plan through the float32 AVX2/AVX-512 kernel family: a float64-only change predicts no movement here, and vice versa"},
	{"sparse", "24x512x2, Tmax 8, Gaussian-beam A-terms, ~16 vis per subgrid: per-subgrid fixed cost (A-terms, subgrid FFT, adder/splitter) dominates; the mirror of dense"},
	{"served", "2 closed-loop tenants stream two small session shapes through an in-process server: wire codec, sessions, plan cache, streamed scheduler and sharded adder, which dense never touches"},
	{"distrib", "the dense observation through RunDistributed at 1 and 2 workers: partition, streamed pass, band encode + SHA, tree reduce; the gap to dense is the harness cost"},
}

// manifest is the fixed schema of BENCHMARK.json.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []workloadDecl   `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// runSeconds is the measuring time of one driver run.
const runSeconds = 12

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloadDecls,
	}
	for _, d := range e2eMetrics {
		b := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.Name, d.Unit, d.Better, &b})
	}
	for _, d := range layerMetrics {
		m.PerLayer = append(m.PerLayer, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	return m
}

func readManifest(path string) (manifest, error) {
	var m manifest
	data, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints: the acceptance driver's
// contract.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metricSet gathers values under declared names only; an undeclared
// name is a bug in the benchmark and panics.
type metricSet struct {
	decls  map[string]metricDecl
	values map[string]float64
}

func newMetricSet(decls []metricDecl) *metricSet {
	ms := &metricSet{decls: make(map[string]metricDecl), values: make(map[string]float64)}
	for _, d := range decls {
		ms.decls[d.Name] = d
	}
	return ms
}

func (ms *metricSet) set(name string, v float64) {
	if _, ok := ms.decls[name]; !ok {
		panic("benchmark: undeclared metric " + name)
	}
	ms.values[name] = v
}

func (ms *metricSet) get(name string) float64 { return ms.values[name] }

// export returns every declared metric; unset per-layer metrics read 0
// ("layer not exercised by this workload").
func (ms *metricSet) export() map[string]metricValue {
	out := make(map[string]metricValue, len(ms.decls))
	for name, d := range ms.decls {
		out[name] = metricValue{Value: ms.values[name], Unit: d.Unit}
	}
	return out
}

func sortedNames(m map[string]metricValue) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
