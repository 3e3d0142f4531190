package core

import (
	"context"
	"fmt"

	"repro/internal/aterm"
	"repro/internal/clean"
	"repro/internal/faulttol"
	"repro/internal/grid"
	"repro/internal/plan"
	"repro/internal/sky"
)

// This file implements the full imaging cycle of Fig. 2: imaging
// (gridding + inverse FFT), source extraction (CLEAN), prediction
// (FFT + degridding) and subtraction, repeated until the sky model
// converges. The IDG routines are "drop-in replacements for the
// gridding and degridding step" (Fig. 4); this driver is the loop
// around them.

// CycleConfig configures an imaging-cycle run.
type CycleConfig struct {
	// MajorCycles bounds the number of image/clean/predict rounds.
	MajorCycles int
	// Clean configures the minor cycles. Clean.Threshold acts as the
	// final stopping point; per major cycle the effective threshold
	// is max(Threshold, CycleDepth * current peak).
	Clean clean.Params
	// CycleDepth is the fraction of the current residual peak down to
	// which each major cycle cleans (typically 0.2-0.4).
	CycleDepth float64
	// ATerms optionally provides the direction-dependent correction.
	ATerms aterm.Provider
	// FaultTolerance selects the per-item failure policy of the IDG
	// passes inside the cycle; the zero value fails fast.
	FaultTolerance faulttol.Config
}

// Validate checks the configuration.
func (c *CycleConfig) Validate() error {
	if c.MajorCycles < 1 {
		return fmt.Errorf("core: need at least one major cycle, got %d", c.MajorCycles)
	}
	if c.CycleDepth < 0 || c.CycleDepth >= 1 {
		return fmt.Errorf("core: cycle depth %g outside [0, 1)", c.CycleDepth)
	}
	return c.Clean.Validate()
}

// CycleResult reports one imaging-cycle run.
type CycleResult struct {
	// Model is the accumulated sky model.
	Model sky.Model
	// Residual is the final residual image (Stokes I).
	Residual []float64
	// PeakHistory records the residual image peak entering each major
	// cycle.
	PeakHistory []float64
	// MajorCycles is the number of rounds actually executed.
	MajorCycles int
	// Times accumulates the IDG stage times over all rounds.
	Times StageTimes
	// Faults accumulates the degradation reports of all IDG passes.
	Faults *faulttol.Report
}

// RunImagingCycle executes the Fig. 2 loop on the observation data in
// vs, which is consumed (it holds the final residual visibilities on
// return). The PSF must be the normalized Stokes I point spread
// function of the observation. The context cancels the loop between
// and inside IDG passes; cfg.FaultTolerance governs how item failures
// inside those passes are handled.
func (k *Kernels) RunImagingCycle(ctx context.Context, p *plan.Plan, vs *VisibilitySet, psf []float64, cfg CycleConfig) (*CycleResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := k.checkPlan(p, vs, k.params.GridSize); err != nil {
		return nil, err
	}
	n := k.params.GridSize
	if len(psf) != n*n {
		return nil, fmt.Errorf("core: PSF size %d, want %d", len(psf), n*n)
	}
	st := p.Stats()
	if st.NrGriddedVisibilities == 0 {
		return nil, fmt.Errorf("core: plan covers no visibilities")
	}
	norm := float64(n*n) / float64(st.NrGriddedVisibilities)
	corr := k.TaperCorrection(n)

	res := &CycleResult{Faults: faulttol.NewReport(cfg.FaultTolerance)}
	for major := 0; major < cfg.MajorCycles; major++ {
		if err := ctx.Err(); err != nil {
			return nil, faulttol.Canceled(err)
		}
		// Image the residual visibilities.
		cstart := k.ob.now()
		g := grid.NewGrid(n)
		t, rep, err := k.GridVisibilitiesFT(ctx, p, vs, cfg.ATerms, g, cfg.FaultTolerance)
		res.Faults.Merge(rep)
		if err != nil {
			return nil, err
		}
		res.Times.Add(t)
		img := GridToImageInPlace(g, k.params.workers())
		ScaleImage(img, norm)
		ApplyTaperCorrection(img, corr)
		dirty := sky.StokesI(img)

		peak := absPeak(dirty)
		k.ob.cycleImaged(major, peak, cstart)
		res.PeakHistory = append(res.PeakHistory, peak)
		res.Residual = dirty
		res.MajorCycles = major + 1
		if peak <= cfg.Clean.Threshold {
			break
		}

		// Minor cycles down to the cycle depth.
		params := cfg.Clean
		if th := cfg.CycleDepth * peak; th > params.Threshold {
			params.Threshold = th
		}
		cl, err := clean.Hogbom(dirty, psf, n, params)
		if err != nil {
			return nil, err
		}
		if len(cl.Components) == 0 {
			break
		}
		// Predict the new components and subtract them from the data.
		newModel := make(sky.Model, 0, len(cl.MergedComponents()))
		for _, c := range cl.MergedComponents() {
			l, m := sky.PixelToLM(c.X, c.Y, n, k.params.ImageSize)
			newModel = append(newModel, sky.PointSource{L: l, M: m, I: c.Flux})
		}
		res.Model = append(res.Model, newModel...)
		modelImg := newModel.Rasterize(n, k.params.ImageSize)
		mg := ImageToGridInPlace(modelImg, k.params.workers())
		predicted, err := NewVisibilitySet(vs.Baselines, vs.UVW, vs.NrChannels)
		if err != nil {
			return nil, err
		}
		t, rep, err = k.DegridVisibilitiesFT(ctx, p, predicted, cfg.ATerms, mg, cfg.FaultTolerance)
		res.Faults.Merge(rep)
		if err != nil {
			return nil, err
		}
		res.Times.Add(t)
		for b := range vs.Data {
			for i := range vs.Data[b] {
				vs.Data[b][i] = vs.Data[b][i].Sub(predicted.Data[b][i])
			}
		}
	}
	// Merge model components that landed on the same pixel across
	// major cycles.
	res.Model = mergeModel(res.Model, n, k.params.ImageSize)
	return res, nil
}

// mergeModel sums components at identical pixels.
func mergeModel(m sky.Model, n int, imageSize float64) sky.Model {
	sums := make(map[[2]int]sky.PointSource)
	for _, s := range m {
		x, y := sky.LMToPixel(s.L, s.M, n, imageSize)
		key := [2]int{x, y}
		acc := sums[key]
		acc.L, acc.M = s.L, s.M
		acc.I += s.I
		sums[key] = acc
	}
	out := make(sky.Model, 0, len(sums))
	for _, s := range sums {
		out = append(out, s)
	}
	return out
}

func absPeak(img []float64) float64 {
	m := 0.0
	for _, v := range img {
		a := v
		if a < 0 {
			a = -a
		}
		if a > m {
			m = a
		}
	}
	return m
}
