package core

import (
	"context"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/faulttol"
	"repro/internal/grid"
	"repro/internal/plan"
	"repro/internal/sky"
	"repro/internal/taper"
	"repro/internal/uvwsim"
)

// W-stacking is a property of the plan: the same gridding and
// degridding passes run a W-stacked plan layer by layer (see
// gridStreamed and DegridVisibilitiesFT). These tests run those passes
// on high-w data.

// highWScenario fabricates an observation whose baselines carry large
// w coordinates (hundreds of wavelengths), where plain IDG with a
// small subgrid loses accuracy and W-stacking must restore it.
func highWScenario(tb testing.TB, wstep float64) (*plan.Plan, *Kernels, *VisibilitySet, sky.Model) {
	tb.Helper()
	const (
		gridSize  = 128
		sgSize    = 16
		imageSize = 0.25
		freq      = 150e6
		nt        = 16
		nb        = 10
	)
	lambda := uvwsim.SpeedOfLight / freq

	rnd := newTestRand(99)
	tracks := make([][]uvwsim.UVW, nb)
	baselines := make([]uvwsim.Baseline, nb)
	for b := 0; b < nb; b++ {
		baselines[b] = uvwsim.Baseline{P: 0, Q: b + 1}
		tracks[b] = make([]uvwsim.UVW, nt)
		// Slowly drifting uv at +/- 120 wavelengths, w ramping from
		// 400 to 1000 wavelengths.
		u0, v0 := 120*rnd(), 120*rnd()
		w0 := 400 + 600*(rnd()+1)/2
		for t := 0; t < nt; t++ {
			tracks[b][t] = uvwsim.UVW{
				U: (u0 + 0.05*float64(t)) * lambda,
				V: (v0 - 0.03*float64(t)) * lambda,
				W: (w0 + 0.1*float64(t)) * lambda,
			}
		}
	}

	cfg := plan.Config{
		GridSize:      gridSize,
		SubgridSize:   sgSize,
		ImageSize:     imageSize,
		Frequencies:   []float64{freq},
		KernelSupport: 4,
		WStepLambda:   wstep,
	}
	p, err := plan.New(cfg, tracks)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := p.ValidateCoverage(tracks); err != nil {
		tb.Fatal(err)
	}
	k, err := NewKernels(Params{
		GridSize:    gridSize,
		SubgridSize: sgSize,
		ImageSize:   imageSize,
		Frequencies: []float64{freq},
	})
	if err != nil {
		tb.Fatal(err)
	}
	vs := MustNewVisibilitySet(baselines, tracks, 1)
	pix := imageSize / gridSize
	model := sky.Model{{L: 18 * pix, M: -10 * pix, I: 1}}
	return p, k, vs, model
}

// degridError predicts the model through the degridding pass and
// returns the max relative error vs the taper-weighted measurement
// equation.
func degridError(tb testing.TB, p *plan.Plan, k *Kernels, vs *VisibilitySet, model sky.Model) float64 {
	tb.Helper()
	g := ImageToGrid(model.Rasterize(p.GridSize, p.ImageSize), 0)
	if _, err := k.DegridVisibilities(context.Background(), p, vs, nil, g); err != nil {
		tb.Fatal(err)
	}
	half := p.ImageSize / 2
	src := model[0]
	taperFlux := src.I * sphAt(src.L/half) * sphAt(src.M/half)
	var maxErr float64
	for b := range vs.Data {
		for t := 0; t < vs.NrTimesteps; t++ {
			sc := vs.UVW[b][t].Scale(p.Frequencies[0])
			want := (sky.Model{{L: src.L, M: src.M, I: taperFlux}}).Predict(sc.U, sc.V, sc.W)
			got := vs.Data[b][t]
			if d := got.MaxAbsDiff(want) / taperFlux; d > maxErr {
				maxErr = d
			}
		}
	}
	return maxErr
}

// wLayers returns the W-layers of a plan's items in plan order, each
// once.
func wLayers(p *plan.Plan) []int {
	var layers []int
	for i := range p.Items {
		if w := p.Items[i].WPlane; len(layers) == 0 || layers[len(layers)-1] != w {
			layers = append(layers, w)
		}
	}
	return layers
}

func TestWStackingRestoresAccuracy(t *testing.T) {
	// Plain IDG (single w=0 plane) on high-w data.
	pPlain, k, vs, model := highWScenario(t, 0)
	plainErr := degridError(t, pPlain, k, vs, model)

	// W-stacked IDG with 100-wavelength layers on the same data.
	pStack, k2, vs2, model2 := highWScenario(t, 100)
	stackErr := degridError(t, pStack, k2, vs2, model2)

	t.Logf("degrid max rel err: plain %.3e, w-stacked %.3e (%d layers)", plainErr, stackErr, len(wLayers(pStack)))
	if plainErr < 5*stackErr {
		t.Fatalf("w-stacking should improve accuracy substantially: plain %.3e vs stacked %.3e",
			plainErr, stackErr)
	}
	if stackErr > 2e-2 {
		t.Fatalf("stacked error %.3e still too large", stackErr)
	}
}

func TestWStackedGriddingRecoversSource(t *testing.T) {
	p, k, vs, model := highWScenario(t, 100)
	if n := len(wLayers(p)); n < 2 {
		t.Fatalf("expected multiple w-layers, got %d", n)
	}
	// Fill with exact model predictions.
	for b := range vs.Data {
		for tt := 0; tt < vs.NrTimesteps; tt++ {
			sc := vs.UVW[b][tt].Scale(p.Frequencies[0])
			vs.Data[b][tt] = model.Predict(sc.U, sc.V, sc.W)
		}
	}
	g := grid.NewGrid(p.GridSize)
	if _, err := k.GridVisibilities(context.Background(), p, vs, nil, g); err != nil {
		t.Fatal(err)
	}
	img := GridToImage(g, 0)
	st := p.Stats()
	ScaleImage(img, float64(p.GridSize*p.GridSize)/float64(st.NrGriddedVisibilities))
	ApplyTaperCorrection(img, k.TaperCorrection(p.GridSize))
	x, y, peak := peakStokesI(img)
	wantX, wantY := sky.LMToPixel(model[0].L, model[0].M, p.GridSize, p.ImageSize)
	if x != wantX || y != wantY {
		t.Fatalf("peak at (%d,%d), want (%d,%d)", x, y, wantX, wantY)
	}
	if peak < 0.95 || peak > 1.05 {
		t.Fatalf("peak %.3f, want ~1", peak)
	}
}

// TestWStackedCheckpointResume: on a W-stacked plan the snapshots sit
// at layer ends, so an unchecked pass, an uninterrupted checkpointed
// pass and a pass killed at any checkpoint event and resumed all give
// the same bits at one worker; a resume cursor inside a layer is
// refused.
func TestWStackedCheckpointResume(t *testing.T) {
	cfg := defaultScenarioConfig()
	cfg.wstep = 40
	sc := buildScenario(t, cfg)
	sc.fillFromModel(nil)
	params := ckptParams(sc, "")
	params.CheckpointEvery = 0
	chunks := sc.plan.StreamChunks(params.StreamChunkItems)
	layerEnds := map[int]bool{}
	for i := 1; i < len(chunks); i++ {
		if chunks[i].WPlane != chunks[i-1].WPlane {
			layerEnds[i] = true
		}
	}
	if len(layerEnds) < 2 {
		t.Fatalf("scenario has %d W-layers, want >= 3", len(layerEnds)+1)
	}
	ref := runStreamed(t, sc, params)

	params = ckptParams(sc, t.TempDir())
	if d := runStreamed(t, sc, params).MaxAbsDiff(ref); d != 0 {
		t.Fatalf("checkpointed pass differs from the unchecked one by %g", d)
	}
	for _, kc := range []struct {
		name string
		ev   checkpoint.Event
		at   int
	}{
		{"chunk-committed-mid-layer", checkpoint.EventChunkCommitted, 3},
		{"before-write", checkpoint.EventBeforeWrite, 4},
		{"before-rename", checkpoint.EventBeforeRename, -1},
		{"after-write", checkpoint.EventAfterWrite, 2},
	} {
		t.Run(kc.name, func(t *testing.T) {
			params := ckptParams(sc, t.TempDir())
			params.CheckpointHook = killHookAt(kc.ev, kc.at)
			k, err := NewKernels(params)
			if err != nil {
				t.Fatal(err)
			}
			func() {
				defer func() {
					if _, ok := recover().(testKill); !ok {
						t.Fatal("expected the injected kill")
					}
				}()
				k.GridVisibilitiesStreamed(context.Background(), sc.plan, sc.vs, nil, grid.NewSharded(grid.NewGrid(params.GridSize), 1), faulttol.Config{})
			}()
			if sn, _, _, err := checkpoint.LoadLatest(params.CheckpointDir); err != nil {
				t.Fatal(err)
			} else if sn != nil && !layerEnds[sn.NextChunk] {
				t.Fatalf("snapshot cursor %d is not at a layer end", sn.NextChunk)
			}
			g, rep := resumeFromDir(t, sc, params)
			if d := g.MaxAbsDiff(ref); d != 0 {
				t.Fatalf("resumed grid differs bitwise from the uninterrupted pass (max diff %g)", d)
			}
			if rep.ItemsProcessed != len(sc.plan.Items) {
				t.Fatalf("resumed report counts %d of %d items", rep.ItemsProcessed, len(sc.plan.Items))
			}
		})
	}

	k, err := NewKernels(params)
	if err != nil {
		t.Fatal(err)
	}
	for cursor := 1; cursor < len(chunks); cursor++ {
		if layerEnds[cursor] {
			continue
		}
		sh := grid.NewSharded(grid.NewGrid(params.GridSize), 1)
		if _, err := k.ResumeVisibilitiesStreamed(context.Background(), sc.plan, sc.vs, nil, sh, faulttol.Config{}, nil, cursor); err == nil {
			t.Fatalf("resume cursor %d inside a W-layer accepted", cursor)
		}
		break
	}
}

// sphAt mirrors the scenario taper (prolate spheroidal).
func sphAt(nu float64) float64 {
	return taper.Spheroidal(nu)
}
