package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/core"
)

// env is what a workload run is given.
type env struct {
	ctx     context.Context
	seed    int64
	seconds float64 // measuring time of the end-to-end phase
	trace   *tracer // nil in the untraced run
	smoke   bool    // tiny shapes, one op: keeps the harness testable
	outDir  string
	nproc   int

	e2e   *metricSet
	layer *metricSet

	attempted, failed int
	notes             []string // correctness breaches, printed and fatal to "correct"
}

// op counts one attempted operation and records err (or a breached
// check) as a failure.
func (e *env) op(err error) bool {
	e.attempted++
	if err != nil {
		e.failed++
		e.notes = append(e.notes, err.Error())
		return false
	}
	return true
}

// budget is the end-to-end measuring time: the traced run spends half
// of it there, the rest of its time goes to the layer drivers.
func (e *env) budget() time.Duration {
	s := e.seconds
	if e.trace != nil {
		s /= 2
	}
	return time.Duration(s * float64(time.Second))
}

// minOps is the least number of timed operations per run whatever the
// time budget says (one in smoke mode).
func (e *env) minOps() int {
	switch {
	case e.smoke:
		return 1
	case e.trace != nil:
		return 2 // one with spans, one without
	}
	return 3
}

// setupReps is how many times set-up is repeated for its median.
func (e *env) setupReps() int {
	if e.smoke {
		return 1
	}
	return 9
}

// medianSetup times one set-up e.setupReps() times and returns the
// median in seconds. The heap is collected between repetitions,
// outside the timing, so a repetition neither pays for its
// predecessor's garbage nor adds it to the peak RSS.
func (e *env) medianSetup(once func(rep int) (time.Duration, error)) (float64, error) {
	var walls []time.Duration
	for rep := 0; rep < e.setupReps(); rep++ {
		d, err := once(rep)
		if err != nil {
			return 0, err
		}
		walls = append(walls, d)
		runtime.GC()
	}
	return medianDur(walls), nil
}

// buildSetup is the set-up of the workloads that start from an
// observation: ObservationConfig.Build (layout, uvw, plan, kernels,
// visibility storage). It returns the last build and the median wall.
func (e *env) buildSetup(cfg repro.ObservationConfig) (*repro.Observation, float64, error) {
	var o *repro.Observation
	s, err := e.medianSetup(func(int) (time.Duration, error) {
		var err error
		d := e.trace.run(noSpan, "setup.build", func(int) { o, err = cfg.Build() })
		return d, err
	})
	return o, s, err
}

// giveUp ends a timed loop early: after the single op of smoke mode,
// or when operations keep failing.
func (e *env) giveUp() bool { return e.smoke || e.failed > 3 }

// medianOf is the median of one timing over a set of samples, in
// seconds.
func medianOf[T any](samples []T, f func(T) time.Duration) float64 {
	d := make([]time.Duration, len(samples))
	for i, s := range samples {
		d[i] = f(s)
	}
	return medianDur(d)
}

// seededModel places n unpolarized sources on pixel centres of the
// central half of the field, with fluxes in [0.2, 1); on-pixel sources
// are what lets the rasterized model image and the direct predictor
// describe the same sky.
func seededModel(o *repro.Observation, seed int64, n int) repro.SkyModel {
	rnd := rand.New(rand.NewSource(seed))
	g := o.Config.GridSize
	pix := o.ImageSize / float64(g)
	model := make(repro.SkyModel, n)
	for i := range model {
		dx := rnd.Intn(g/2) - g/4
		dy := rnd.Intn(g/2) - g/4
		model[i] = repro.PointSource{L: float64(dx) * pix, M: float64(dy) * pix, I: 0.2 + 0.8*rnd.Float64()}
	}
	return model
}

// fillModel fills every plan-covered visibility with the direct
// measurement-equation prediction of the model, including the
// provider's station responses when there is one. This is load
// generation and the accuracy reference; it is never timed.
func fillModel(o *repro.Observation, model repro.SkyModel, prov repro.ATermProvider) error {
	if prov == nil {
		return o.FillFromModelPlan(model)
	}
	freqs := o.Config.Frequencies()
	for i := range o.Plan.Items {
		it := &o.Plan.Items[i]
		bl := o.Vis.Baselines[it.Baseline]
		for t := it.TimeStart; t < it.TimeStart+it.NrTimesteps; t++ {
			coord := o.Vis.UVW[it.Baseline][t]
			for ch := it.Channel0; ch < it.Channel0+it.NrChannels; ch++ {
				sc := coord.Scale(freqs[ch])
				o.Vis.Data[it.Baseline][t*o.Vis.NrChannels+ch] = model.PredictWithATerms(sc.U, sc.V, sc.W,
					func(l, m float64) (repro.Matrix2, repro.Matrix2) {
						return prov.Evaluate(bl.P, it.ATermSlot, l, m), prov.Evaluate(bl.Q, it.ATermSlot, l, m)
					})
			}
		}
	}
	return nil
}

// withVis returns a copy of o that shares its plan and kernels but
// owns fresh zeroed visibility storage: the degridding side of an op
// writes there, so the gridding side's input stays what the generator
// made.
func withVis(o *repro.Observation) (*repro.Observation, error) {
	vs, err := repro.NewVisibilitySet(o.Vis.Baselines, o.Vis.UVW, o.Vis.NrChannels)
	if err != nil {
		return nil, err
	}
	c := *o
	c.Vis = vs
	return &c, nil
}

// relRMS is rms(got - want) / rms(want) over the plan-covered samples.
func relRMS(o *repro.Observation, got, want *repro.VisibilitySet) float64 {
	var num, den float64
	for i := range o.Plan.Items {
		it := &o.Plan.Items[i]
		for t := it.TimeStart; t < it.TimeStart+it.NrTimesteps; t++ {
			row := t * want.NrChannels
			for ch := it.Channel0; ch < it.Channel0+it.NrChannels; ch++ {
				g, w := got.Data[it.Baseline][row+ch], want.Data[it.Baseline][row+ch]
				for p := 0; p < 4; p++ {
					d := g[p] - w[p]
					num += real(d)*real(d) + imag(d)*imag(d)
					den += real(w[p])*real(w[p]) + imag(w[p])*imag(w[p])
				}
			}
		}
	}
	return math.Sqrt(num / den)
}

// degridAccuracy runs the accuracy experiment of the IDG papers on the
// observation: rasterize the model (sources sit on pixel centres),
// pre-correct the image for the subgrid taper as DirtyImage does on
// the way out, transform it to a uv grid and degrid it; the result is
// compared with the direct predictions in o.Vis. dst receives the
// degridded visibilities.
func degridAccuracy(ctx context.Context, o, dst *repro.Observation, model repro.SkyModel, prov repro.ATermProvider) (float64, error) {
	img := model.Rasterize(o.Config.GridSize, o.ImageSize)
	core.ApplyTaperCorrection(img, o.Kernels.TaperCorrection(o.Config.GridSize))
	mg := repro.ImageToGrid(img, o.Config.Workers)
	if _, err := dst.DegridAll(ctx, prov, mg); err != nil {
		return 0, err
	}
	return relRMS(o, dst.Vis, o.Vis), nil
}

// gridPeak is the largest cell magnitude of a grid.
func gridPeak(g *repro.Grid) float64 {
	peak := 0.0
	for c := range g.Data {
		for _, v := range g.Data[c] {
			if a := cmplx.Abs(v); a > peak {
				peak = a
			}
		}
	}
	return peak
}

// checkFinite fails when any cell of g is NaN or infinite.
func checkFinite(what string, g *repro.Grid) error {
	for c := range g.Data {
		for _, v := range g.Data[c] {
			// x-x is 0 for every finite x and NaN otherwise.
			if r, i := real(v), imag(v); r-r != 0 || i-i != 0 {
				return fmt.Errorf("%s: grid has non-finite cells", what)
			}
		}
	}
	return nil
}

// maxAbsDiff is the largest cell-wise distance between two grids.
func maxAbsDiff(a, b *repro.Grid) float64 {
	worst := 0.0
	for c := range a.Data {
		for i, v := range a.Data[c] {
			if d := cmplx.Abs(v - b.Data[c][i]); d > worst || math.IsNaN(d) {
				worst = d
			}
		}
	}
	return worst
}

// peakRSSMB reads this process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) >= 1 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// cpuModel is the host CPU string for result files.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return runtime.GOARCH
}
