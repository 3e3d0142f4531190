package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/aterm"
	"repro/internal/faulttol"
	"repro/internal/grid"
	"repro/internal/layout"
	"repro/internal/plan"
	"repro/internal/sky"
	"repro/internal/taper"
	"repro/internal/uvwsim"
	"repro/internal/xmath"
)

// gridPlain runs the gridding pass fail-fast onto g, sharded as the
// kernels' Params say: the plain case of GridVisibilities.
func gridPlain(ctx context.Context, k *Kernels, p *plan.Plan, vs *VisibilitySet, prov aterm.Provider, g *grid.Grid) (StageTimes, error) {
	t, _, err := k.GridVisibilities(ctx, p, vs, prov, k.NewShardedGrid(g), faulttol.Config{}, nil, 0)
	return t, err
}

// degridPlain runs the degridding pass fail-fast from g.
func degridPlain(ctx context.Context, k *Kernels, p *plan.Plan, vs *VisibilitySet, prov aterm.Provider, g *grid.Grid) (StageTimes, error) {
	t, _, err := k.DegridVisibilities(ctx, p, vs, prov, g, faulttol.Config{})
	return t, err
}

// scenario bundles everything an end-to-end test needs.
type scenario struct {
	plan    *plan.Plan
	kernels *Kernels
	vs      *VisibilitySet
	sim     *uvwsim.Simulator
	model   sky.Model
}

type scenarioConfig struct {
	nrStations, nt, nc    int
	gridSize, subgridSize int
	support               int
	tmax                  int
	atermInterval         int
	sources               int
	wstep                 float64
	precision             Precision
}

func defaultScenarioConfig() scenarioConfig {
	return scenarioConfig{
		nrStations: 8, nt: 64, nc: 4,
		gridSize: 256, subgridSize: 32, support: 8,
		tmax: 32, atermInterval: 32, sources: 1,
	}
}

// buildScenario constructs a small observation whose uv tracks fit the
// grid, with the model visibilities computed by the exact direct
// predictor.
func buildScenario(tb testing.TB, sc scenarioConfig) *scenario {
	tb.Helper()
	lcfg := layout.SKA1LowConfig()
	lcfg.NrStations = sc.nrStations
	stations := layout.Generate(lcfg)
	sim := uvwsim.New(stations, uvwsim.DefaultOptions())

	freqs := make([]float64, sc.nc)
	for i := range freqs {
		freqs[i] = 150e6 + float64(i)*1e6
	}
	maxFreq := freqs[len(freqs)-1]
	maxUV := sim.MaxUV(sc.nt) * maxFreq / uvwsim.SpeedOfLight
	imageSize := float64(sc.gridSize/2-sc.subgridSize) / maxUV

	pcfg := plan.Config{
		GridSize:               sc.gridSize,
		SubgridSize:            sc.subgridSize,
		ImageSize:              imageSize,
		Frequencies:            freqs,
		KernelSupport:          sc.support,
		MaxTimestepsPerSubgrid: sc.tmax,
		ATermUpdateInterval:    sc.atermInterval,
		WStepLambda:            sc.wstep,
	}
	tracks := sim.AllTracks(sc.nt)
	p, err := plan.New(pcfg, tracks)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := p.ValidateCoverage(tracks); err != nil {
		tb.Fatal(err)
	}

	k, err := NewKernels(Params{
		GridSize:    sc.gridSize,
		SubgridSize: sc.subgridSize,
		ImageSize:   imageSize,
		Frequencies: freqs,
		Precision:   sc.precision,
	})
	if err != nil {
		tb.Fatal(err)
	}

	vs := MustNewVisibilitySet(sim.Baselines(), tracks, sc.nc)

	// Pixel-aligned sources well inside the field of view.
	model := make(sky.Model, 0, sc.sources)
	pix := imageSize / float64(sc.gridSize)
	offsets := [][2]int{{12, -8}, {-20, 16}, {5, 25}, {-15, -18}, {30, 2}}
	for i := 0; i < sc.sources; i++ {
		o := offsets[i%len(offsets)]
		model = append(model, sky.PointSource{
			L: float64(o[0]) * pix,
			M: float64(o[1]) * pix,
			I: 1 + 0.5*float64(i),
		})
	}

	return &scenario{plan: p, kernels: k, vs: vs, sim: sim, model: model}
}

// fillFromModel fills the visibility set with the exact predictions of
// the scenario's sky model (optionally corrupted by per-station
// A-terms via corrupt).
func (s *scenario) fillFromModel(corrupt func(staP, staQ, slot int, l, m float64) (xmath.Matrix2, xmath.Matrix2)) {
	freqs := s.plan.Frequencies
	interval := s.plan.ATermUpdateInterval
	for b, bl := range s.vs.Baselines {
		for t := 0; t < s.vs.NrTimesteps; t++ {
			coord := s.vs.UVW[b][t]
			slot := 0
			if interval > 0 {
				slot = t / interval
			}
			for c := 0; c < s.vs.NrChannels; c++ {
				sc := coord.Scale(freqs[c])
				var v xmath.Matrix2
				if corrupt == nil {
					v = s.model.Predict(sc.U, sc.V, sc.W)
				} else {
					v = s.model.PredictWithATerms(sc.U, sc.V, sc.W,
						func(l, m float64) (xmath.Matrix2, xmath.Matrix2) {
							return corrupt(bl.P, bl.Q, slot, l, m)
						})
				}
				s.vs.Data[b][t*s.vs.NrChannels+c] = v
			}
		}
	}
}

// taperAt evaluates the kernels' taper at full-image direction
// cosines.
func (s *scenario) taperAt(l, m float64) float64 {
	half := s.plan.ImageSize / 2
	return taper.Spheroidal(l/half) * taper.Spheroidal(m/half)
}

// dirtyImage grids the visibility set and converts to a normalized,
// taper-corrected image.
func (s *scenario) dirtyImage(tb testing.TB, prov interface {
	Evaluate(station, slot int, l, m float64) xmath.Matrix2
}) *grid.Grid {
	tb.Helper()
	g := grid.NewGrid(s.plan.GridSize)
	var err error
	if prov == nil {
		_, err = gridPlain(context.Background(), s.kernels, s.plan, s.vs, nil, g)
	} else {
		_, err = gridPlain(context.Background(), s.kernels, s.plan, s.vs, prov, g)
	}
	if err != nil {
		tb.Fatal(err)
	}
	img := GridToImage(g, 0)
	st := s.plan.Stats()
	ScaleImage(img, float64(s.plan.GridSize*s.plan.GridSize)/float64(st.NrGriddedVisibilities))
	ApplyTaperCorrection(img, s.kernels.TaperCorrection(s.plan.GridSize))
	return img
}

// oracleGrid grids the scenario without the pass scheduler, composed
// from the stage primitives alone: GridSubgrid for every work item,
// FFTSubgrids, then the row-band Adder on one worker, all in plan
// order. It is the independent reference the scheduler tests compare
// against.
func (s *scenario) oracleGrid(tb testing.TB) *grid.Grid {
	tb.Helper()
	params := s.kernels.Params()
	params.Workers = 1
	k, err := NewKernels(params)
	if err != nil {
		tb.Fatal(err)
	}
	subgrids := make([]*grid.Subgrid, len(s.plan.Items))
	for i, item := range s.plan.Items {
		vis := make([]xmath.Matrix2, item.NrVisibilities())
		s.vs.gather(item, vis)
		subgrids[i] = grid.NewSubgrid(params.SubgridSize, item.X0, item.Y0)
		k.GridSubgrid(item, s.vs.itemUVW(item), vis, nil, nil, subgrids[i])
	}
	k.FFTSubgrids(subgrids)
	g := grid.NewGrid(params.GridSize)
	k.Adder(subgrids, g)
	return g
}

// peakStokesI finds the maximum Stokes I pixel.
func peakStokesI(img *grid.Grid) (x, y int, val float64) {
	si := sky.StokesI(img)
	best := math.Inf(-1)
	for i, v := range si {
		if v > best {
			best = v
			x, y = i%img.N, i/img.N
		}
	}
	return x, y, best
}
