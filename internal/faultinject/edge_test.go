package faultinject_test

import (
	"context"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/faulttol"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/plan"
)

// pickSelector returns a selector that hits at least one but not all
// of the pipeline's work items.
func pickSelector(t *testing.T, p *pipeline) faultinject.Selector {
	t.Helper()
	for seed := uint64(1); seed < 64; seed++ {
		sel := faultinject.Selector{Fraction: 0.2, Seed: seed}
		if n := sel.Count(p.plan.Items); n > 0 && n < len(p.plan.Items) {
			return sel
		}
	}
	t.Fatal("no seed selects a proper subset of work items")
	return faultinject.Selector{}
}

// TestPanicHookRunsOncePerItem pins the failure model on both passes:
// a work item is attempted once. Under SkipAndFlag with a PanicHook,
// the hook runs exactly once per victim item, and the report and the
// observer agree with the selector: one skip and one recovered panic
// per victim, and exactly the victims' visibilities dropped.
func TestPanicHookRunsOncePerItem(t *testing.T) {
	pl := buildPipeline(t)
	sel := pickSelector(t, pl)
	victims := sel.Count(pl.plan.Items)

	type key struct{ baseline, t0, ch0, x0, y0 int }
	for _, pass := range []string{"grid", "degrid"} {
		t.Run(pass, func(t *testing.T) {
			ob := &obs.Observer{Metrics: obs.NewRegistry()}
			params := pl.kernels.Params()
			params.Observer = ob
			k, err := core.NewKernels(params)
			if err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			calls := map[key]int{}
			panicky := faultinject.PanicHook(sel)
			ft := faulttol.Config{
				Policy: faulttol.SkipAndFlag,
				Hook: func(item plan.WorkItem) {
					if sel.Selected(item) {
						mu.Lock()
						calls[key{item.Baseline, item.TimeStart, item.Channel0, item.X0, item.Y0}]++
						mu.Unlock()
					}
					panicky(item)
				},
			}
			g := grid.NewGrid(pl.plan.GridSize)
			var rep *faulttol.Report
			if pass == "grid" {
				_, rep, err = k.GridVisibilities(context.Background(), pl.plan, pl.vs, nil, k.NewShardedGrid(g), ft, nil, 0)
			} else {
				_, rep, err = k.DegridVisibilities(context.Background(), pl.plan, pl.vs, nil, g, ft)
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(calls) != victims {
				t.Errorf("hook ran in %d victim items, selector hit %d", len(calls), victims)
			}
			for item, n := range calls {
				if n != 1 {
					t.Errorf("hook ran %d times in item %+v, want once", n, item)
				}
			}
			if rep.ItemsSkipped != victims {
				t.Errorf("ItemsSkipped = %d, want %d", rep.ItemsSkipped, victims)
			}
			if got := ob.Metrics.Counter(obs.MetricKernelPanics).Value(); got != int64(victims) {
				t.Errorf("%s = %d, want %d", obs.MetricKernelPanics, got, victims)
			}
			if want := sel.SelectedVisibilities(pl.plan.Items); rep.DroppedVisibilities != want {
				t.Errorf("DroppedVisibilities = %d, want %d", rep.DroppedVisibilities, want)
			}
			if rep.ItemsProcessed != len(pl.plan.Items)-victims {
				t.Errorf("ItemsProcessed = %d, want %d", rep.ItemsProcessed, len(pl.plan.Items)-victims)
			}
		})
	}
}
