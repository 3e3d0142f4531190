package distrib

import (
	"reflect"
	"testing"

	"repro/internal/grid"
	"repro/internal/plan"
)

// weightedPlan has items of pseudo-random visibility counts on a
// skewed spread of subgrid rows (dense near the grid centre, as uv
// coverage is), so band boundaries fall between unequal rows.
func weightedPlan(gridSize, subgridSize, items int, seed uint64) *plan.Plan {
	p := &plan.Plan{Config: plan.Config{GridSize: gridSize, SubgridSize: subgridSize}}
	span := max(gridSize-subgridSize+1, 1)
	for i := 0; i < items; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		r := int(seed>>33) % span
		y0 := (r + span/2) / 2 // biased towards the middle rows
		if i%5 == 0 {
			y0 = r
		}
		p.Items = append(p.Items, plan.WorkItem{
			Baseline: i, Y0: y0, X0: i % span,
			NrTimesteps: 1 + int(seed>>20)%16, NrChannels: 1 + int(seed>>40)%8,
		})
	}
	return p
}

// rowBoundsCases are the partitions the property tests sweep: every
// grid size and worker count of a table — including more workers than
// rows — for an empty plan, a plan whose items carry no visibilities,
// and weighted plans.
func rowBoundsCases(yield func(p *plan.Plan, name string, workers int)) {
	for _, gridSize := range []int{1, 2, 3, 7, 8, 16, 100, 256, 257} {
		sub := min(8, gridSize)
		plans := map[string]*plan.Plan{
			"empty":      {Config: plan.Config{GridSize: gridSize, SubgridSize: sub}},
			"no-vis":     weightlessPlan(gridSize, sub, 40),
			"weighted":   weightedPlan(gridSize, sub, 300, uint64(gridSize)),
			"one-item":   weightedPlan(gridSize, sub, 1, 3),
			"few-weight": weightedPlan(gridSize, sub, 6, 9),
		}
		for name, p := range plans {
			for _, workers := range []int{1, 2, 3, 4, 5, 8, 16, 300} {
				yield(p, name, workers)
			}
		}
	}
}

// TestRowBoundsProperties: the bands are contiguous runs of row-major
// order covering [0, N²) for every plan and worker count, including
// more workers than rows; a plan without visibilities gets equal rows;
// and a weighted plan's every band holds its equal share total/W to
// within the weight of the subgrid centre just before one of its
// boundaries (the centre the cumulative count crossed).
func TestRowBoundsProperties(t *testing.T) {
	rowBoundsCases(func(p *plan.Plan, name string, workers int) {
		n := p.GridSize
		b := RowBounds(p, workers)
		if len(b) != workers+1 || b[0] != 0 || b[workers] != n*n {
			t.Fatalf("%s N=%d W=%d: bounds %v do not span [0, %d) in %d bands", name, n, workers, b, n*n, workers)
		}
		for i := 1; i < len(b); i++ {
			if b[i] < b[i-1] {
				t.Fatalf("%s N=%d W=%d: bounds %v decrease", name, n, workers, b)
			}
		}
		weight := map[int]int64{} // visibilities per subgrid centre
		var total int64
		for i := range p.Items {
			it := &p.Items[i]
			weight[(it.Y0+p.SubgridSize/2)*n+it.X0+p.SubgridSize/2] += int64(it.NrVisibilities())
			total += int64(it.NrVisibilities())
		}
		if total == 0 {
			equal := grid.ShardBounds(n, workers)
			for i := range b {
				if b[i] != n*equal[min(i, len(equal)-1)] {
					t.Fatalf("%s N=%d W=%d: bounds %v, want the equal rows %v", name, n, workers, b, equal)
				}
			}
			return
		}
		for i := 0; i < workers; i++ {
			var band, slack int64
			for pos, w := range weight {
				if b[i] <= pos && pos < b[i+1] {
					band += w
				}
			}
			for _, edge := range []int{i, i + 1} {
				if edge > 0 && edge < workers {
					slack = max(slack, weight[b[edge]-1])
				}
			}
			if d := band*int64(workers) - total; d > slack*int64(workers) || -d > slack*int64(workers) {
				t.Fatalf("%s N=%d W=%d: band %d [%d, %d) holds %d of %d visibilities, off its share by more than %d",
					name, n, workers, i, b[i], b[i+1], band, total, slack)
			}
		}
	})
}

// TestRowOwnerMatchesBounds is the property test of the owner search:
// for every partition RowBounds draws, every position of [0, N²) has
// exactly one owner and it is the band RowBounds assigns it to — so
// partition (owners) and coverage (bounds) can never drift apart — and
// positions past the grid fall to the last band.
func TestRowOwnerMatchesBounds(t *testing.T) {
	rowBoundsCases(func(p *plan.Plan, name string, workers int) {
		bounds := RowBounds(p, workers)
		for band := 0; band < workers; band++ {
			for pos := bounds[band]; pos < bounds[band+1]; pos++ {
				if got := RowOwner(bounds, pos); got != band {
					t.Fatalf("%s N=%d W=%d: RowOwner(%v, %d) = %d, want band %d", name, p.GridSize, workers, bounds, pos, got, band)
				}
			}
		}
		if got := RowOwner(bounds, p.GridSize*p.GridSize); got != workers-1 {
			t.Fatalf("%s N=%d W=%d: a position past the grid owned by %d", name, p.GridSize, workers, got)
		}
	})
}

// TestWPlaneOwnerTotal checks the W-axis partition is total over
// signed plane indices: exactly one owner in [0, workers) for every
// plane, and planes congruent mod workers share an owner.
func TestWPlaneOwnerTotal(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 4, 8} {
		for plane := -25; plane <= 25; plane++ {
			got := WPlaneOwner(workers, plane)
			if got < 0 || got >= workers {
				t.Fatalf("WPlaneOwner(%d, %d) = %d outside [0, %d)", workers, plane, got, workers)
			}
			if want := WPlaneOwner(workers, plane+workers); got != want {
				t.Fatalf("WPlaneOwner(%d, %d) = %d but plane+workers owns %d", workers, plane, got, want)
			}
		}
	}
	if got := WPlaneOwner(4, -1); got != 3 {
		t.Fatalf("WPlaneOwner(4, -1) = %d, want 3 (non-negative residue)", got)
	}
}

// syntheticPlan builds a plan whose items sweep subgrid anchors across
// the grid and W-layers across a signed range, so both partition axes
// see non-trivial, non-divisible distributions.
func syntheticPlan(gridSize, subgridSize, items int) *plan.Plan {
	p := weightlessPlan(gridSize, subgridSize, items)
	for i := range p.Items {
		p.Items[i].NrTimesteps, p.Items[i].NrChannels = 1+i%3, 2
	}
	return p
}

// weightlessPlan is syntheticPlan with items that carry no visibilities.
func weightlessPlan(gridSize, subgridSize, items int) *plan.Plan {
	p := &plan.Plan{Config: plan.Config{GridSize: gridSize, SubgridSize: subgridSize}}
	for i := 0; i < items; i++ {
		p.Items = append(p.Items, plan.WorkItem{
			Baseline: i,
			X0:       (i * 7) % (gridSize - subgridSize + 1),
			Y0:       (i * 13) % (gridSize - subgridSize + 1),
			WPlane:   (i % 11) - 5, // signed planes, like plan's rounding produces
		})
	}
	return p
}

// TestFilterPlanPartitions is the partition property test on plans:
// for both axes and worker counts including non-divisible ones, the
// sub-plans are disjoint, their union is exactly the parent plan, and
// each preserves the parent's item order.
func TestFilterPlanPartitions(t *testing.T) {
	parent := syntheticPlan(100, 12, 240)
	for _, axis := range []Axis{AxisRows, AxisWPlanes} {
		for _, workers := range []int{1, 2, 3, 4, 7, 8} {
			var union []plan.WorkItem
			seen := make(map[int]int) // baseline (unique per item) -> owner
			for w := 0; w < workers; w++ {
				sub, err := FilterPlan(parent, axis, workers, w)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(sub.Config, parent.Config) {
					t.Fatalf("axis %v: sub-plan config differs from parent", axis)
				}
				last := -1
				for _, it := range sub.Items {
					if prev, dup := seen[it.Baseline]; dup {
						t.Fatalf("axis %v workers %d: item %d owned by both %d and %d", axis, workers, it.Baseline, prev, w)
					}
					seen[it.Baseline] = w
					if it.Baseline <= last {
						t.Fatalf("axis %v workers %d: worker %d sub-plan out of parent order", axis, workers, w)
					}
					last = it.Baseline
				}
				union = append(union, sub.Items...)
			}
			if len(union) != len(parent.Items) {
				t.Fatalf("axis %v workers %d: union has %d items, parent %d", axis, workers, len(union), len(parent.Items))
			}
		}
	}
}

// TestFilterPlanSingleWorkerIdentity pins the bit-identity premise of
// the one-worker distributed run: the whole parent plan, in order.
func TestFilterPlanSingleWorkerIdentity(t *testing.T) {
	parent := syntheticPlan(64, 8, 50)
	for _, axis := range []Axis{AxisRows, AxisWPlanes} {
		sub, err := FilterPlan(parent, axis, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sub.Items, parent.Items) {
			t.Fatalf("axis %v: 1-worker sub-plan is not the parent plan", axis)
		}
	}
}

// TestFilterPlanRejects covers the argument validation.
func TestFilterPlanRejects(t *testing.T) {
	parent := syntheticPlan(32, 8, 4)
	if _, err := FilterPlan(parent, AxisRows, 0, 0); err == nil {
		t.Error("FilterPlan accepted zero workers")
	}
	if _, err := FilterPlan(parent, AxisRows, 4, 4); err == nil {
		t.Error("FilterPlan accepted index == workers")
	}
	if _, err := FilterPlan(parent, AxisRows, 4, -1); err == nil {
		t.Error("FilterPlan accepted a negative index")
	}
}

// TestParseAxis round-trips the axis names the CLI flags use.
func TestParseAxis(t *testing.T) {
	for _, a := range []Axis{AxisRows, AxisWPlanes} {
		got, err := ParseAxis(a.String())
		if err != nil || got != a {
			t.Fatalf("ParseAxis(%q) = %v, %v", a.String(), got, err)
		}
	}
	if _, err := ParseAxis("diagonal"); err == nil {
		t.Error("ParseAxis accepted an unknown axis")
	}
}
