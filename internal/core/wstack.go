package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/aterm"
	"repro/internal/faulttol"
	"repro/internal/grid"
	"repro/internal/plan"
)

// W-stacking (Section III and VI-E): visibilities are partitioned into
// W-layers; each layer is gridded onto its own grid with the layer's w
// offset removed inside the gridder kernel, and the layer images are
// combined after multiplying by the w screen exp(+2*pi*i*wOff*n(l,m)).
// Larger subgrids allow thicker layers ("dramatically limit the number
// of required W-planes", Section IV).

// planForPlane returns a shallow plan containing only the items of one
// W-layer.
func planForPlane(p *plan.Plan, wplane int) *plan.Plan {
	sub := &plan.Plan{Config: p.Config}
	for i := range p.Items {
		if p.Items[i].WPlane == wplane {
			sub.Items = append(sub.Items, p.Items[i])
		}
	}
	return sub
}

// WPlanes returns the sorted list of W-layer indices used by the plan.
func WPlanes(p *plan.Plan) []int {
	seen := make(map[int]bool)
	for i := range p.Items {
		seen[p.Items[i].WPlane] = true
	}
	planes := make([]int, 0, len(seen))
	for w := range seen {
		planes = append(planes, w)
	}
	sort.Ints(planes)
	return planes
}

// GridVisibilitiesWStacked grids each W-layer onto its own grid and
// returns the per-plane grids keyed by plane index, along with the
// accumulated stage times.
func (k *Kernels) GridVisibilitiesWStacked(ctx context.Context, p *plan.Plan, vs *VisibilitySet, prov aterm.Provider) (map[int]*grid.Grid, StageTimes, error) {
	var times StageTimes
	if p.WStepLambda <= 0 {
		return nil, times, fmt.Errorf("core: plan has no W-layers (WStepLambda=%g)", p.WStepLambda)
	}
	grids := make(map[int]*grid.Grid)
	for _, w := range WPlanes(p) {
		if err := ctx.Err(); err != nil {
			return nil, times, faulttol.Canceled(err)
		}
		start := k.ob.now()
		g := grid.NewGrid(k.params.GridSize)
		t, err := k.GridVisibilities(ctx, planForPlane(p, w), vs, prov, g)
		if err != nil {
			return nil, times, err
		}
		times.Add(t)
		grids[w] = g
		k.ob.planeDone(w, start)
	}
	return grids, times, nil
}

// CombineWStackedImage converts per-plane grids to images, applies
// each layer's w screen and sums into a single image.
func (k *Kernels) CombineWStackedImage(grids map[int]*grid.Grid, wstep float64) *grid.Grid {
	out := grid.NewGrid(k.params.GridSize)
	for w, g := range grids {
		img := GridToImage(g, k.params.workers())
		ApplyWScreen(img, k.params.ImageSize, float64(w)*wstep, +1)
		out.AddGrid(img)
	}
	return out
}

// DegridVisibilitiesWStacked predicts visibilities from a sky image
// using W-stacking: for every W-layer the image is multiplied by the
// conjugate w screen, transformed to a grid, and the layer's work
// items are degridded from it.
func (k *Kernels) DegridVisibilitiesWStacked(ctx context.Context, p *plan.Plan, vs *VisibilitySet, prov aterm.Provider, img *grid.Grid) (StageTimes, error) {
	var times StageTimes
	if p.WStepLambda <= 0 {
		return times, fmt.Errorf("core: plan has no W-layers (WStepLambda=%g)", p.WStepLambda)
	}
	if err := k.checkPlan(p, vs, img.N); err != nil {
		return times, err
	}
	for _, w := range WPlanes(p) {
		if err := ctx.Err(); err != nil {
			return times, faulttol.Canceled(err)
		}
		start := k.ob.now()
		layer := img.Clone()
		ApplyWScreen(layer, k.params.ImageSize, float64(w)*p.WStepLambda, -1)
		g := ImageToGrid(layer, k.params.workers())
		t, err := k.DegridVisibilities(ctx, planForPlane(p, w), vs, prov, g)
		if err != nil {
			return times, err
		}
		times.Add(t)
		k.ob.planeDone(w, start)
	}
	return times, nil
}
