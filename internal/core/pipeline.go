package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/aterm"
	"repro/internal/faulttol"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/uvwsim"
	"repro/internal/xmath"
)

// VisibilitySet holds the measurement data of one observation: the
// uvw tracks and the 2x2 correlation visibilities of every baseline.
type VisibilitySet struct {
	// Baselines maps baseline indices to station pairs.
	Baselines []uvwsim.Baseline
	// UVW holds the uvw track of each baseline in meters: UVW[b][t].
	UVW [][]uvwsim.UVW
	// Data holds the visibilities: Data[b][t*NrChannels + c].
	Data [][]xmath.Matrix2
	// Flags marks bad samples, parallel to Data; nil means nothing is
	// flagged. Flagged samples are zero-weight: the gridder excludes
	// them and the degridder predicts zeros for them, so corrupt
	// samples degrade sensitivity instead of poisoning the grid.
	Flags [][]bool
	// NrTimesteps and NrChannels give the time/channel dimensions.
	NrTimesteps, NrChannels int
}

// NewVisibilitySet allocates a zeroed visibility set for the given
// baselines and dimensions. The uvw tracks must be filled by the
// caller (typically from uvwsim). Dimension mismatches return an
// error wrapping faulttol.ErrBadInput.
func NewVisibilitySet(baselines []uvwsim.Baseline, uvw [][]uvwsim.UVW, nrChannels int) (*VisibilitySet, error) {
	return NewPartialVisibilitySet(baselines, uvw, nrChannels, nil)
}

// NewPartialVisibilitySet is NewVisibilitySet allocating rows only for
// the baselines b with backed[b] set (nil: every baseline); the others
// keep a nil Data row. It is the storage of a plan that grids a subset
// of the baselines, such as one partition of a distributed run.
func NewPartialVisibilitySet(baselines []uvwsim.Baseline, uvw [][]uvwsim.UVW, nrChannels int, backed []bool) (*VisibilitySet, error) {
	if len(baselines) != len(uvw) {
		return nil, fmt.Errorf("%w: %d baselines but %d uvw tracks",
			faulttol.ErrBadInput, len(baselines), len(uvw))
	}
	if backed != nil && len(backed) != len(baselines) {
		return nil, fmt.Errorf("%w: %d baselines but %d backing flags",
			faulttol.ErrBadInput, len(baselines), len(backed))
	}
	if len(uvw) == 0 || len(uvw[0]) == 0 {
		return nil, fmt.Errorf("%w: empty visibility set", faulttol.ErrBadInput)
	}
	if nrChannels < 1 {
		return nil, fmt.Errorf("%w: %d channels", faulttol.ErrBadInput, nrChannels)
	}
	nt := len(uvw[0])
	vs := &VisibilitySet{
		Baselines:   baselines,
		UVW:         uvw,
		Data:        make([][]xmath.Matrix2, len(baselines)),
		NrTimesteps: nt,
		NrChannels:  nrChannels,
	}
	for b := range vs.Data {
		if len(uvw[b]) != nt {
			return nil, fmt.Errorf("%w: ragged uvw tracks (baseline %d has %d steps, want %d)",
				faulttol.ErrBadInput, b, len(uvw[b]), nt)
		}
		if backed == nil || backed[b] {
			vs.Data[b] = make([]xmath.Matrix2, nt*nrChannels)
		}
	}
	return vs, nil
}

// MustNewVisibilitySet is NewVisibilitySet for callers whose inputs
// are correct by construction; it panics on error.
func MustNewVisibilitySet(baselines []uvwsim.Baseline, uvw [][]uvwsim.UVW, nrChannels int) *VisibilitySet {
	vs, err := NewVisibilitySet(baselines, uvw, nrChannels)
	if err != nil {
		panic(err)
	}
	return vs
}

// NrVisibilities returns the number of visibilities the set holds
// rows for: every baseline's, unless it is a partial set.
func (vs *VisibilitySet) NrVisibilities() int64 {
	var n int64
	for _, row := range vs.Data {
		n += int64(len(row))
	}
	return n
}

// EnsureFlags allocates the flag mask if it is still nil.
func (vs *VisibilitySet) EnsureFlags() {
	if vs.Flags != nil {
		return
	}
	vs.Flags = make([][]bool, len(vs.Data))
	for b := range vs.Flags {
		vs.Flags[b] = make([]bool, len(vs.Data[b]))
	}
}

// FlagSample flags the sample of baseline b at time step t, channel c.
func (vs *VisibilitySet) FlagSample(b, t, c int) {
	vs.EnsureFlags()
	vs.Flags[b][t*vs.NrChannels+c] = true
}

// Flagged reports whether the sample at (b, t, c) is flagged.
func (vs *VisibilitySet) Flagged(b, t, c int) bool {
	return vs.Flags != nil && vs.Flags[b][t*vs.NrChannels+c]
}

// NrFlagged counts the flagged samples.
func (vs *VisibilitySet) NrFlagged() int64 {
	var n int64
	for b := range vs.Flags {
		for _, f := range vs.Flags[b] {
			if f {
				n++
			}
		}
	}
	return n
}

// ClearFlags drops the flag mask.
func (vs *VisibilitySet) ClearFlags() { vs.Flags = nil }

// gather copies the visibilities covered by a work item into dst
// (layout [t*item.NrChannels + c]), zeroing flagged samples so they
// enter the gridder with zero weight. Flagged samples are zeroed
// directly while copying — no second pass over the row.
func (vs *VisibilitySet) gather(item plan.WorkItem, dst []xmath.Matrix2) {
	src := vs.Data[item.Baseline]
	if vs.Flags == nil {
		for t := 0; t < item.NrTimesteps; t++ {
			row := (item.TimeStart+t)*vs.NrChannels + item.Channel0
			copy(dst[t*item.NrChannels:(t+1)*item.NrChannels],
				src[row:row+item.NrChannels])
		}
		return
	}
	flags := vs.Flags[item.Baseline]
	for t := 0; t < item.NrTimesteps; t++ {
		row := (item.TimeStart+t)*vs.NrChannels + item.Channel0
		out := dst[t*item.NrChannels : (t+1)*item.NrChannels]
		for c := range out {
			if flags[row+c] {
				out[c] = xmath.Matrix2{}
			} else {
				out[c] = src[row+c]
			}
		}
	}
}

// scatter writes predicted visibilities of a work item back, storing
// zeros for flagged samples (zero-weight on the degridding side) in
// the same pass as the copy.
func (vs *VisibilitySet) scatter(item plan.WorkItem, src []xmath.Matrix2) {
	dst := vs.Data[item.Baseline]
	if vs.Flags == nil {
		for t := 0; t < item.NrTimesteps; t++ {
			row := (item.TimeStart+t)*vs.NrChannels + item.Channel0
			copy(dst[row:row+item.NrChannels],
				src[t*item.NrChannels:(t+1)*item.NrChannels])
		}
		return
	}
	flags := vs.Flags[item.Baseline]
	for t := 0; t < item.NrTimesteps; t++ {
		row := (item.TimeStart+t)*vs.NrChannels + item.Channel0
		in := src[t*item.NrChannels : (t+1)*item.NrChannels]
		for c := range in {
			if flags[row+c] {
				dst[row+c] = xmath.Matrix2{}
			} else {
				dst[row+c] = in[c]
			}
		}
	}
}

// itemUVW returns the uvw slice covered by a work item.
func (vs *VisibilitySet) itemUVW(item plan.WorkItem) []uvwsim.UVW {
	return vs.UVW[item.Baseline][item.TimeStart : item.TimeStart+item.NrTimesteps]
}

// StageTimes records the time spent per pipeline stage, the
// Go-measured analogue of the paper's Fig. 9 runtime distribution. Both
// passes run their stages interleaved on concurrent chunk workers, so
// each field is the stage's share of the pass's wall time: its busy
// time summed over the chunk workers, divided by their number. Total()
// never exceeds the wall time of the pass.
type StageTimes struct {
	Gridder    time.Duration
	Degridder  time.Duration
	SubgridFFT time.Duration
	Adder      time.Duration
	Splitter   time.Duration
}

// Total returns the summed stage time.
func (s StageTimes) Total() time.Duration {
	return s.Gridder + s.Degridder + s.SubgridFFT + s.Adder + s.Splitter
}

// Add accumulates other into s.
func (s *StageTimes) Add(other StageTimes) {
	s.Gridder += other.Gridder
	s.Degridder += other.Degridder
	s.SubgridFFT += other.SubgridFFT
	s.Adder += other.Adder
	s.Splitter += other.Splitter
}

// DefaultWorkGroupSize is the paper's work-group size in work items.
// The passes run in chunks (Kernels.StreamChunkItems); only the
// benchmark's per-layer ledger still batches by work groups.
const DefaultWorkGroupSize = 1024

// newATermCache builds the run-level A-term cache; it lives for a
// whole gridding or degridding pass, so every item that shares a
// (station, slot) reads the same maps. It holds planes, which is how
// the kernels read the maps (jones); a nil provider yields a nil cache
// (identity fast path).
func (k *Kernels) newATermCache(prov aterm.Provider) *aterm.Cache {
	if prov == nil {
		return nil
	}
	return aterm.NewPlanarCache(prov, k.params.SubgridSize, k.params.ImageSize)
}

// prefillATerms warms the cache with every (station, slot) pair a plan's
// work items need, evaluating the missing maps on the pass's
// workers. aterm.Cache is not safe for concurrent writes, but after this
// prefill every worker lookup is a read-only hit, so the fan-out needs no
// locking.
func (k *Kernels) prefillATerms(cache *aterm.Cache, items []plan.WorkItem, baselines []uvwsim.Baseline) {
	if cache == nil {
		return
	}
	keys := make([][2]int, 0, 2*len(items))
	for i := range items {
		b := baselines[items[i].Baseline]
		keys = append(keys, [2]int{b.P, items[i].ATermSlot}, [2]int{b.Q, items[i].ATermSlot})
	}
	cache.Fill(keys, k.params.workers())
}

// GridVisibilities runs the full gridding pass of Fig. 4 — gridder
// kernel, subgrid FFTs, adder — as a stream of chunks over the plan's
// work (see gridStreamed). The grid is accumulated into (callers zero
// it first for a fresh pass). It returns per-stage timings. The context
// cancels or deadline-bounds the run (the error then wraps
// faulttol.ErrCanceled); item failures abort the run (fail-fast) — use
// GridVisibilitiesFT for other policies.
func (k *Kernels) GridVisibilities(ctx context.Context, p *plan.Plan, vs *VisibilitySet, prov aterm.Provider, g *grid.Grid) (StageTimes, error) {
	times, _, err := k.GridVisibilitiesFT(ctx, p, vs, prov, g, faulttol.Config{})
	return times, err
}

// GridVisibilitiesFT is GridVisibilities under an explicit
// fault-tolerance policy. A panicking kernel or a non-finite subgrid
// becomes a typed per-item error instead of a crash; depending on
// ft.Policy the item is skipped (graceful degradation,
// accounted in the returned report) or aborts the run. The report is
// always non-nil.
func (k *Kernels) GridVisibilitiesFT(ctx context.Context, p *plan.Plan, vs *VisibilitySet, prov aterm.Provider, g *grid.Grid, ft faulttol.Config) (StageTimes, *faulttol.Report, error) {
	return k.GridVisibilitiesStreamed(ctx, p, vs, prov, k.NewShardedGrid(g), ft)
}

// DegridVisibilities runs the full degridding pass of Fig. 4 in
// reverse order: splitter, inverse subgrid FFTs, degridder kernel.
// Predicted visibilities overwrite vs.Data. The context cancels the
// run; item failures abort it (fail-fast) — use DegridVisibilitiesFT
// for other policies.
func (k *Kernels) DegridVisibilities(ctx context.Context, p *plan.Plan, vs *VisibilitySet, prov aterm.Provider, g *grid.Grid) (StageTimes, error) {
	times, _, err := k.DegridVisibilitiesFT(ctx, p, vs, prov, g, faulttol.Config{})
	return times, err
}

// DegridVisibilitiesFT is DegridVisibilities under an explicit
// fault-tolerance policy; skipped items leave their visibility block
// unwritten and are accounted in the returned report. It runs on the
// pass scheduler (runChunks) without a checkpoint writer: each chunk
// copies its subgrids out of g, which the pass only reads, so every
// predicted visibility depends on g and its own item alone and the
// output is the same for every chunking and worker count.
//
// On a W-stacked plan g is taken to the image once, and each W-layer's
// chunks split from that image times the layer's conjugate w screen,
// back in uv (the inverse of gridStreamed's flushLayer).
func (k *Kernels) DegridVisibilitiesFT(ctx context.Context, p *plan.Plan, vs *VisibilitySet, prov aterm.Provider, g *grid.Grid, ft faulttol.Config) (StageTimes, *faulttol.Report, error) {
	rep := faulttol.NewReport(ft)
	if err := k.checkPlan(p, vs, g.N); err != nil {
		return StageTimes{}, rep, err
	}
	band := g.Rows(0, g.N)
	var h epochHooks
	if p.WStepLambda > 0 {
		// One image and one layer buffer per pass: layerStart runs with
		// no chunk in flight, so the layer grid is rebuilt in place.
		workers := k.params.workers()
		img, layer := GridToImage(g, workers), grid.NewGrid(g.N)
		h.layerStart = func(w int) {
			wScreen(layer, img, k.params.ImageSize, float64(w)*p.WStepLambda, -1, workers)
			transformGrid(layer, layer, false, workers)
			band = layer.Rows(0, g.N)
		}
	}
	times, err := k.runChunks(ctx, p, vs, prov, obs.StageDegrid, ft, rep, 0, h,
		func(cp *chunkPass, worker int, c plan.Chunk, s *scratch, subgrids []*grid.Subgrid) {
			if !cp.stage(obs.StageSplit, c, func() {
				for i, item := range c.Items {
					subgrids[i] = k.getSubgrid(item)
					band.CopySubgrid(subgrids[i])
				}
				if k.ob.enabled() {
					k.ob.subgrids(k.ob.sgSplit, len(subgrids))
				}
			}) {
				return
			}
			if !cp.stage(obs.StageFFT, c, func() { k.fftChunk(subgrids, true) }) {
				return
			}
			cp.stage(obs.StageDegrid, c, func() {
				for i, item := range c.Items {
					if cp.run.ctx.Err() != nil {
						return
					}
					cp.run.attempt(c.Index, worker, i, item, func() error {
						vis := s.visBuf(item.NrVisibilities())
						k.degridSubgridScratch(item, subgrids[i], vs.itemUVW(item), cp.lookupATerms(item), vis, s, cp.par)
						vs.scatter(item, vis)
						return nil
					})
				}
			})
		})
	return times, rep, err
}

// checkPlan rejects a plan, visibility set or n-pixel grid that does
// not match the kernel parameters; a wrong grid size wraps
// faulttol.ErrBadInput.
func (k *Kernels) checkPlan(p *plan.Plan, vs *VisibilitySet, n int) error {
	switch {
	case n != k.params.GridSize:
		return fmt.Errorf("%w: grid size %d != kernel grid size %d", faulttol.ErrBadInput, n, k.params.GridSize)
	case p.GridSize != k.params.GridSize:
		return fmt.Errorf("core: plan grid size %d != kernel grid size %d", p.GridSize, k.params.GridSize)
	case p.SubgridSize != k.params.SubgridSize:
		return fmt.Errorf("core: plan subgrid size %d != kernel subgrid size %d", p.SubgridSize, k.params.SubgridSize)
	case p.ImageSize != k.params.ImageSize:
		return fmt.Errorf("core: plan image size %g != kernel image size %g", p.ImageSize, k.params.ImageSize)
	case len(p.Frequencies) != len(k.params.Frequencies):
		return fmt.Errorf("core: plan has %d channels, kernels have %d", len(p.Frequencies), len(k.params.Frequencies))
	case vs.NrChannels != len(k.params.Frequencies):
		return fmt.Errorf("core: visibility set has %d channels, kernels have %d", vs.NrChannels, len(k.params.Frequencies))
	}
	return nil
}

// itemRunner applies one pass's failure policy to its work items. It
// is the only place a work item is attempted: panic isolation,
// skip-and-flag accounting and the first fatal error live here, shared
// by the chunk workers of both passes.
type itemRunner struct {
	k     *Kernels
	stage obs.Stage
	ft    faulttol.Config
	rep   *faulttol.Report

	// ctx is done once the caller's context (parent) is done or an item
	// failed fatally; workers stop taking items then.
	parent, ctx context.Context
	cancel      context.CancelFunc

	mu       sync.Mutex
	firstErr error
}

// newItemRunner starts the item accounting of one pass. The caller
// defers cancel and ends the pass with finish.
func (k *Kernels) newItemRunner(ctx context.Context, stage obs.Stage, ft faulttol.Config, rep *faulttol.Report) *itemRunner {
	r := &itemRunner{k: k, stage: stage, ft: ft, rep: rep, parent: ctx}
	r.ctx, r.cancel = context.WithCancel(ctx)
	return r
}

// fail records the pass's first fatal error and stops the workers.
func (r *itemRunner) fail(err error) {
	r.mu.Lock()
	if r.firstErr == nil {
		r.firstErr = err
	}
	r.mu.Unlock()
	r.cancel()
}

// finish ends the pass and returns its verdict: the first fatal error,
// an ErrCanceled wrapper when the caller gave up, or nil.
func (r *itemRunner) finish() error {
	if r.firstErr != nil {
		return r.firstErr
	}
	return ctxErr(r.parent)
}

// attempt runs fn for one work item once, under the pass's policy, and
// reports whether it succeeded. A panic inside fn (or the injection
// hook) becomes an ErrKernelPanic. A failed item is skipped and
// accounted (SkipAndFlag) or fails the pass with a *faulttol.ItemError
// — unless the run is already ending, in which case the failure is a
// casualty of the cancellation, not its cause, and goes unrecorded.
//
// chunk, worker and i attribute the observer's per-item span; with
// observation disabled they are unused.
func (r *itemRunner) attempt(chunk, worker, i int, item plan.WorkItem, fn func() error) bool {
	k := r.k
	t0 := k.ob.now()
	err := faulttol.Run(func() error {
		if r.ft.Hook != nil {
			r.ft.Hook(item)
		}
		return fn()
	})
	if err == nil {
		r.rep.RecordSuccess()
		k.ob.itemDone(r.stage, chunk, worker, i, item, t0)
		return true
	}
	k.ob.itemFailed(err)
	if r.ctx.Err() != nil {
		return false
	}
	ie := &faulttol.ItemError{Baseline: item.Baseline, TimeStart: item.TimeStart,
		Channel0: item.Channel0, Err: err}
	if r.ft.Policy == faulttol.SkipAndFlag {
		r.rep.RecordSkip(ie, int64(item.NrVisibilities()))
		k.ob.itemSkipped(item)
	} else {
		r.fail(ie)
	}
	return false
}

// tilePar is the intra-item pixel-tile parallelism hint for a pass with
// the given number of concurrently running chunk workers (units): 1
// while the units alone fill the worker pool, ceil(workers/units) otherwise, so the spare
// workers pick up pixel tiles of the in-flight items (runTiles) instead
// of idling.
func tilePar(units, workers int) int {
	if units < 1 || units >= workers {
		return 1
	}
	return (workers + units - 1) / units
}

// runWorkers runs work(0) .. work(n-1) concurrently and waits for them;
// a single worker runs on the calling goroutine.
func runWorkers(n int, work func(worker int)) {
	if n <= 1 {
		work(0)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			work(worker)
		}(w)
	}
	wg.Wait()
}

// ctxErr converts a context error into the faulttol taxonomy.
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return faulttol.Canceled(err)
	}
	return nil
}
