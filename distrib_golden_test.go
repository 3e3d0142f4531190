package repro

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/distrib"
)

// Distributed <-> serial golden equivalence: the conformance core of
// the distributed imaging layer. A 1-worker distributed run must be
// bit-identical to the single-process golden grid (the sub-plan is
// the whole plan in order, the worker grids serially, and the
// reduction of one partial is that partial); multi-worker runs
// reassociate the floating-point accumulation across partials, so
// they must agree to ~1 ulp per cell (<= 1e-12 of the peak).

// distribGoldenModel is goldenObservation's sky model, derived from
// the config alone so every in-process worker predicts it
// identically.
func distribGoldenModel(o *Observation) SkyModel {
	pix := o.ImageSize / float64(o.Config.GridSize)
	return SkyModel{
		{L: 20 * pix, M: -12 * pix, I: 1},
		{L: -36 * pix, M: 26 * pix, I: 0.5},
		{L: 8 * pix, M: 44 * pix, I: 0.25},
	}
}

// distribGoldenConfig is goldenObservation's configuration (see
// golden_test.go); the distributed options run the reference kernel
// path so worker bits match the committed golden file's.
func distribGoldenConfig() ObservationConfig {
	return ObservationConfig{
		NrStations:     10,
		NrTimesteps:    48,
		NrChannels:     4,
		StartFrequency: 150e6,
		ChannelWidth:   200e3,
		GridSize:       256,
		SubgridSize:    16,
		KernelSupport:  4,
		GridMargin:     16,
		ATermInterval:  16,
		Workers:        1,
	}
}

// distribGoldenOptions bundles the deterministic distributed setup.
func distribGoldenOptions(t *testing.T, workers int, axis DistribAxis) DistribOptions {
	t.Helper()
	cfg := distribGoldenConfig()
	o, err := cfg.BuildPlan()
	if err != nil {
		t.Fatal(err)
	}
	return DistribOptions{
		Config:           cfg,
		Model:            distribGoldenModel(o),
		Workers:          workers,
		Axis:             axis,
		ReferenceKernels: true,
	}
}

// distribSerialReference grids cfg's observation of the golden model
// single-process on the reference kernels through the streamed
// scheduler (for distribGoldenConfig, the goldenObservation path).
func distribSerialReference(t *testing.T, cfg ObservationConfig) *Grid {
	t.Helper()
	o, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := o.Kernels.Params()
	p.DisableBatching = true
	if o.Kernels, err = core.NewKernels(p); err != nil {
		t.Fatal(err)
	}
	if err := o.FillFromModel(distribGoldenModel(o)); err != nil {
		t.Fatal(err)
	}
	g, _, _, err := o.GridAllStreamed(context.Background(), nil, FaultConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestDistribSingleWorkerGolden pins the strongest claim: one
// distributed worker, on either partition axis, produces the
// committed golden grid hash bit-for-bit — the whole
// partition/wire/reduction stack adds and removes nothing.
func TestDistribSingleWorkerGolden(t *testing.T) {
	want := goldenSHA(t)
	for _, axis := range []DistribAxis{distrib.AxisRows, distrib.AxisWPlanes} {
		t.Run(axis.String(), func(t *testing.T) {
			g, sum, err := RunDistributed(context.Background(), distribGoldenOptions(t, 1, axis))
			if err != nil {
				t.Fatal(err)
			}
			if got := FingerprintGrid(g).SHA256; got != want {
				t.Errorf("1-worker distributed hash %s, want committed golden %s", got, want)
			}
			if sum.Restarts != 0 || sum.Discarded != 0 {
				t.Errorf("clean run reported restarts=%d discarded=%d", sum.Restarts, sum.Discarded)
			}
		})
	}
}

// TestDistribEquivalenceMatrix is the acceptance matrix of the issue:
// 2, 4 and 8 workers, both partition axes, each against the serial
// single-process grid to <= 1e-12 of the peak magnitude. The W-planes
// axis splits W-layers, so its rows run the golden configuration
// W-stacked in 40-wavelength layers against a W-stacked serial grid.
func TestDistribEquivalenceMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("six full distributed passes in -short mode")
	}
	for _, axis := range []DistribAxis{distrib.AxisRows, distrib.AxisWPlanes} {
		cfg := distribGoldenConfig()
		if axis == distrib.AxisWPlanes {
			cfg.WStepLambda = 40
		}
		ref := distribSerialReference(t, cfg)
		peak := FingerprintGrid(ref).PeakAbs
		refNonzero := FingerprintGrid(ref).Nonzero
		for _, workers := range []int{2, 4, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", axis, workers), func(t *testing.T) {
				opt := distribGoldenOptions(t, workers, axis)
				opt.Config = cfg
				g, sum, err := RunDistributed(context.Background(), opt)
				if err != nil {
					t.Fatal(err)
				}
				if d := g.MaxAbsDiff(ref); d > 1e-12*peak {
					t.Errorf("distributed grid differs from serial by %g (tolerance %g)", d, 1e-12*peak)
				}
				if got := FingerprintGrid(g).Nonzero; got != refNonzero {
					t.Errorf("distributed grid has %d nonzero cells, serial %d", got, refNonzero)
				}
				if len(sum.WorkerFingerprints) != workers {
					t.Errorf("summary holds %d fingerprints for %d workers", len(sum.WorkerFingerprints), workers)
				}
			})
		}
	}
}

// TestDistribWPlanesPartitionNontrivial guards the W-axis tests
// against vacuity: with W-stacking enabled, the plan must actually
// spread items over several W-layers, and the partitioned run must
// still match the serial one.
func TestDistribWPlanesPartitionNontrivial(t *testing.T) {
	cfg := distribGoldenConfig()
	cfg.WStepLambda = 40
	o, err := cfg.BuildPlan()
	if err != nil {
		t.Fatal(err)
	}
	planes := map[int]bool{}
	for i := range o.Plan.Items {
		planes[o.Plan.Items[i].WPlane] = true
	}
	if len(planes) < 2 {
		t.Skipf("w-step 40 yields %d plane(s) on this layout; cannot exercise the W axis", len(planes))
	}
	model := distribGoldenModel(o)
	if err := o.FillFromModel(model); err != nil {
		t.Fatal(err)
	}
	ref, _, _, err := o.GridAllStreamed(context.Background(), nil, FaultConfig{})
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := RunDistributed(context.Background(), DistribOptions{
		Config: cfg, Model: model, Workers: 3, Axis: distrib.AxisWPlanes,
	})
	if err != nil {
		t.Fatal(err)
	}
	peak := FingerprintGrid(ref).PeakAbs
	if d := g.MaxAbsDiff(ref); d > 1e-12*peak {
		t.Errorf("W-partitioned grid differs from serial by %g (peak %g, %d planes)", d, peak, len(planes))
	}
}

// TestDistribPartitionPlanFacade covers the facade partition entry
// point against the internal one.
func TestDistribPartitionPlanFacade(t *testing.T) {
	cfg := distribGoldenConfig()
	o, err := cfg.BuildPlan()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	bounds := distrib.RowBounds(o.Plan, 3)
	for w := 0; w < 3; w++ {
		sub, err := distrib.FilterPlan(o.Plan, DistribRows, 3, w)
		if err != nil {
			t.Fatal(err)
		}
		for i := range sub.Items {
			it := &sub.Items[i]
			centre := (it.Y0+cfg.SubgridSize/2)*cfg.GridSize + it.X0 + cfg.SubgridSize/2
			if got := distrib.RowOwner(bounds, centre); got != w {
				t.Fatalf("item in worker %d's sub-plan owned by %d", w, got)
			}
		}
		total += len(sub.Items)
	}
	if total != len(o.Plan.Items) {
		t.Fatalf("partitions cover %d of %d items", total, len(o.Plan.Items))
	}
}
