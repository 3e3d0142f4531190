package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
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
	if len(baselines) != len(uvw) {
		return nil, fmt.Errorf("%w: %d baselines but %d uvw tracks",
			faulttol.ErrBadInput, len(baselines), len(uvw))
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
		vs.Data[b] = make([]xmath.Matrix2, nt*nrChannels)
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

// NrVisibilities returns the total number of visibilities.
func (vs *VisibilitySet) NrVisibilities() int64 {
	return int64(len(vs.Baselines)) * int64(vs.NrTimesteps) * int64(vs.NrChannels)
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

// StageTimes records the wall-clock time spent per pipeline stage,
// the Go-measured analogue of the paper's Fig. 9 runtime distribution.
// Degridding runs its stages one after the other, so each field is that
// stage's elapsed time. Gridding runs them interleaved on concurrent
// chunk workers, so each field is the stage's share of the pass's wall
// time: its busy time summed over the chunk workers, divided by their
// number. Either way Total() never exceeds the wall time of the pass.
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

// DefaultWorkGroupSize is the number of work items processed per
// pipeline round; it bounds the subgrid buffer memory the same way
// the paper's work groups bound the GPU device buffers.
const DefaultWorkGroupSize = 1024

// newATermCache builds the run-level A-term cache; it lives for a
// whole gridding or degridding pass so maps computed for one work
// group are reused by every later group that shares the (station,
// slot). The vector tiers' cache holds planes, which is how their tiles
// read the maps (jones); a nil provider yields a nil cache (identity
// fast path).
func (k *Kernels) newATermCache(prov aterm.Provider) *aterm.Cache {
	switch {
	case prov == nil:
		return nil
	case k.planarATerms():
		return aterm.NewPlanarCache(prov, k.params.SubgridSize, k.params.ImageSize)
	}
	return aterm.NewCache(prov, k.params.SubgridSize, k.params.ImageSize)
}

func (k *Kernels) planarATerms() bool { return k.disp.gridVec64 != nil }

// planeOf returns the W-layer shared by every item of a group, or -1
// when the group is empty or mixes layers (only W-stacked passes plan
// per-layer, so a mixed group has no single layer to attribute to).
func planeOf(items []plan.WorkItem) int {
	if len(items) == 0 {
		return -1
	}
	w := items[0].WPlane
	for _, it := range items[1:] {
		if it.WPlane != w {
			return -1
		}
	}
	return w
}

// prefillATerms warms the cache with every (station, slot) pair a group
// of work items needs, evaluating the missing maps on the pass's
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
// ft.Policy the item is retried, skipped (graceful degradation,
// accounted in the returned report) or aborts the run. The report is
// always non-nil.
func (k *Kernels) GridVisibilitiesFT(ctx context.Context, p *plan.Plan, vs *VisibilitySet, prov aterm.Provider, g *grid.Grid, ft faulttol.Config) (StageTimes, *faulttol.Report, error) {
	return k.GridVisibilitiesStreamed(ctx, p, vs, prov, k.NewShardedGrid(g), ft)
}

// releaseSubgrids returns every non-nil subgrid of a work group to the
// pool and clears the slots.
func (k *Kernels) releaseSubgrids(subgrids []*grid.Subgrid) {
	for i, s := range subgrids {
		if s != nil {
			k.putSubgrid(s)
			subgrids[i] = nil
		}
	}
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
// unwritten and are accounted in the returned report.
func (k *Kernels) DegridVisibilitiesFT(ctx context.Context, p *plan.Plan, vs *VisibilitySet, prov aterm.Provider, g *grid.Grid, ft faulttol.Config) (StageTimes, *faulttol.Report, error) {
	var times StageTimes
	rep := faulttol.NewReport(ft)
	if err := k.checkPlan(p, vs); err != nil {
		return times, rep, err
	}
	cache := k.newATermCache(prov)
	run := k.newItemRunner(ctx, obs.StageDegrid, ft, rep)
	defer run.cancel()
	subgridBuf := make([]*grid.Subgrid, DefaultWorkGroupSize)
	for gi, group := range p.WorkGroups(DefaultWorkGroupSize) {
		if run.ctx.Err() != nil {
			break
		}
		k.prefillATerms(cache, group, vs.Baselines)
		wp := planeOf(group)
		subgrids := subgridBuf[:len(group)]
		for i, item := range group {
			// Pooled subgrids arrive with stale pixels; the splitter
			// overwrites every pixel of every plane.
			sgr := k.getSubgrid(item.X0, item.Y0)
			sgr.WOffset, sgr.WPlane = item.WOffset, item.WPlane
			subgrids[i] = sgr
		}

		start := time.Now()
		k.Splitter(g, subgrids)
		d := time.Since(start)
		times.Splitter += d
		k.ob.stageDone(obs.StageSplit, gi, wp, start, d)

		start = time.Now()
		k.InverseFFTSubgrids(subgrids)
		d = time.Since(start)
		times.SubgridFFT += d
		k.ob.stageDone(obs.StageFFT, gi, wp, start, d)

		start = time.Now()
		run.each(gi, group, func(i int, s *scratch, par int) error {
			item := group[i]
			vis := s.visBuf(item.NrVisibilities())
			k.degridSubgridScratch(item, subgrids[i], vs.itemUVW(item), k.lookupATerms(cache, vs.Baselines, item), vis, s, par)
			vs.scatter(item, vis)
			return nil
		})
		d = time.Since(start)
		times.Degridder += d
		k.ob.stageDone(obs.StageDegrid, gi, wp, start, d)
		k.releaseSubgrids(subgrids)
	}
	return times, rep, run.finish()
}

// lookupATerms resolves a work item's two station maps from the warm
// run-level cache (every lookup here is a hit; see prefillATerms).
func (k *Kernels) lookupATerms(cache *aterm.Cache, baselines []uvwsim.Baseline, item plan.WorkItem) jones {
	if cache == nil {
		return jones{}
	}
	b := baselines[item.Baseline]
	if k.planarATerms() {
		return jones{pp: cache.Planes(b.P, item.ATermSlot), qp: cache.Planes(b.Q, item.ATermSlot)}
	}
	return jones{p: cache.Get(b.P, item.ATermSlot), q: cache.Get(b.Q, item.ATermSlot)}
}

func (k *Kernels) checkPlan(p *plan.Plan, vs *VisibilitySet) error {
	switch {
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
// is the only place a work item is attempted: panic isolation, retries
// with budgeted backoff, skip-and-flag accounting and the first fatal
// error live here, shared by the gridding stream's chunk workers and
// the degridding work groups.
type itemRunner struct {
	k      *Kernels
	stage  obs.Stage
	ft     faulttol.Config
	rep    *faulttol.Report
	budget *faulttol.BackoffBudget

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
	r := &itemRunner{k: k, stage: stage, ft: ft, rep: rep,
		budget: faulttol.NewBackoffBudget(ft), parent: ctx}
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
	if r.budget.Exhausted() {
		r.rep.AddNote("faulttol: retry backoff budget exhausted; remaining failures were not retried")
	}
	if r.firstErr != nil {
		return r.firstErr
	}
	return ctxErr(r.parent)
}

// attempt runs fn for one work item under the pass's policy and
// reports whether it succeeded. A panic inside fn (or the injection
// hook) becomes an ErrKernelPanic; errors.Is(err, ErrBadInput) failures
// are never retried; re-attempts wait out the deterministic exponential
// backoff, metered against the run's retry budget. An item that is
// still failing is skipped and accounted (SkipAndFlag) or fails the
// pass with a *faulttol.ItemError — unless the run is already ending,
// in which case the failure is a casualty of the cancellation, not its
// cause, and goes unrecorded.
//
// group, worker and i attribute the observer's per-item span; with
// observation disabled they are unused.
func (r *itemRunner) attempt(group, worker, i int, item plan.WorkItem, fn func() error) bool {
	k := r.k
	t0 := k.ob.now()
	attempts := r.ft.Attempts()
	var err error
	made := 0
	for a := 1; a <= attempts; a++ {
		made = a
		err = faulttol.Run(func() error {
			if r.ft.Hook != nil {
				r.ft.Hook(item, a)
			}
			return fn()
		})
		if err == nil {
			r.rep.RecordSuccess(a > 1)
			k.ob.itemDone(r.stage, group, worker, i, item, a, t0)
			return true
		}
		k.ob.attemptFailed(err)
		if r.ctx.Err() != nil {
			return false
		}
		if errors.Is(err, faulttol.ErrBadInput) {
			break
		}
		if a < attempts && !r.budget.Sleep(r.ctx, r.ft.BackoffDelay(a+1)) {
			if r.ctx.Err() != nil {
				return false
			}
			break // budget spent: the item takes its terminal path now
		}
	}
	ie := &faulttol.ItemError{
		Baseline:  item.Baseline,
		TimeStart: item.TimeStart,
		Channel0:  item.Channel0,
		Attempts:  made,
		Err:       err,
	}
	if r.ft.Policy == faulttol.SkipAndFlag {
		r.rep.RecordSkip(ie, int64(item.NrVisibilities()))
		k.ob.itemSkipped(item)
	} else {
		r.fail(ie)
	}
	return false
}

// tilePar is the intra-item pixel-tile parallelism hint for a pass
// stage with the given number of concurrently running units (work items
// of a group, or chunk workers of the stream): 1 while the units alone
// fill the worker pool, ceil(workers/units) otherwise, so the spare
// workers pick up pixel tiles of the in-flight items (runTiles) instead
// of idling.
func tilePar(units, workers int) int {
	if units < 1 || units >= workers {
		return 1
	}
	return (workers + units - 1) / units
}

// each executes fn(i, s, par) for every work item of a group on the
// worker pool, through attempt. Each worker checks one scratch arena
// out of the kernel pool for its whole run and hands it to every fn
// call, so the steady state of the hot path allocates nothing.
func (r *itemRunner) each(group int, items []plan.WorkItem, fn func(i int, s *scratch, par int) error) {
	k := r.k
	n := len(items)
	par := tilePar(n, k.params.workers())
	var next atomic.Int64
	runWorkers(min(k.params.workers(), n), func(worker int) {
		s := k.getScratch()
		defer k.putScratch(s)
		for r.ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			r.attempt(group, worker, i, items[i], func() error { return fn(i, s, par) })
		}
	})
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
