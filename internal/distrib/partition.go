// Package distrib distributes one imaging pass across N worker
// processes: the execution plan is partitioned along one of two axes
// (uv row bands or W-layers), every worker runs the streamed chunk
// scheduler over its own partition — with its own checkpoint
// directory, so a killed worker resumes bit-identically — and the
// partial grids are merged by a binary tree reduction, transported
// as length-prefixed CRC-64 frames of internal/frame.
//
// The package owns the partition math, the reduction wire frames, the
// tree reduction and the coordinator; the gridding itself is injected
// through the Launcher interface, which the facade implements on
// Observation (in-process goroutine workers) and cmd/idgdistrib
// implements by exec'ing cmd/idgworker.
package distrib

import (
	"fmt"
	"sort"

	"repro/internal/grid"
	"repro/internal/plan"
)

// Axis selects the partition axis of a distributed run.
type Axis int

const (
	// AxisRows partitions work items by the uv row band holding their
	// subgrid's centre, the contiguous bands balanced by visibility
	// count (RowBounds). Subgrids overlap band edges, so partial grids
	// overlap by at most a subgrid height and the reduction adds the
	// overlap.
	AxisRows Axis = iota
	// AxisWPlanes partitions work items by W-layer index modulo the
	// worker count — the natural axis when W-stacking is on, since a
	// layer's subgrids share their W-screen work.
	AxisWPlanes
)

// String names the axis the way the CLI flags spell it.
func (a Axis) String() string {
	switch a {
	case AxisRows:
		return "rows"
	case AxisWPlanes:
		return "wplanes"
	default:
		return fmt.Sprintf("Axis(%d)", int(a))
	}
}

// ParseAxis converts "rows" or "wplanes".
func ParseAxis(s string) (Axis, error) {
	switch s {
	case "rows":
		return AxisRows, nil
	case "wplanes":
		return AxisWPlanes, nil
	default:
		return 0, fmt.Errorf("distrib: unknown partition axis %q (want rows or wplanes)", s)
	}
}

// RowBounds returns the row-band partition of p's grid across workers:
// workers+1 non-decreasing boundaries in row-major pixel order
// (row*GridSize + column, 0 to GridSize²), worker i owning the items
// whose subgrid centre lies in [bounds[i], bounds[i+1]) — a contiguous
// band of whole rows, cut inside at most its first and last row. Bands
// are balanced by visibilities, not rows: boundary i is just past the
// first subgrid centre, in that order, at which the cumulative
// visibility count reaches i/workers of the plan's total, so a band
// misses an equal share by less than the weight of one centre next to
// its boundaries. (Whole rows are too coarse: the dense plan's centre
// row alone holds 3 % of its visibilities.) A plan without visibilities
// keeps equal rows (grid.ShardBounds); workers beyond the centres that
// carry weight own empty bands.
func RowBounds(p *plan.Plan, workers int) []int {
	workers = max(workers, 1)
	n := p.GridSize
	bounds := make([]int, workers+1)
	type centre struct {
		pos int
		vis int64
	}
	cs := make([]centre, len(p.Items))
	var total int64
	for i := range p.Items {
		cs[i] = centre{centrePos(&p.Items[i], n, p.SubgridSize), int64(p.Items[i].NrVisibilities())}
		total += cs[i].vis
	}
	if total == 0 {
		equal := grid.ShardBounds(n, workers)
		for i := range bounds {
			bounds[i] = equal[min(i, len(equal)-1)] * n
		}
		return bounds
	}
	sort.Slice(cs, func(a, b int) bool { return cs[a].pos < cs[b].pos })
	k, next, below := 0, 0, int64(0) // below: visibilities of the centres before next
	for i := 1; i < workers; i++ {
		// Take centres until the share is reached, and the rest of the
		// last one's items with it: a centre is never split.
		for k < len(cs) && (below*int64(workers) < int64(i)*total || cs[k].pos < next) {
			below += cs[k].vis
			next = cs[k].pos + 1
			k++
		}
		bounds[i] = next
	}
	bounds[workers] = n * n
	return bounds
}

// RowOwner returns the worker whose RowBounds band holds the subgrid
// centre at row-major pixel index pos, the i with bounds[i] <= pos <
// bounds[i+1], by binary search; positions past the grid belong to the
// last band.
func RowOwner(bounds []int, pos int) int {
	return sort.Search(len(bounds)-2, func(i int) bool { return bounds[i+1] > pos })
}

// centrePos is where an item sits for AxisRows: its subgrid centre as a
// row-major pixel index, clamped into the grid.
func centrePos(it *plan.WorkItem, gridSize, subgridSize int) int {
	clamp := func(x int) int { return min(max(x+subgridSize/2, 0), gridSize-1) }
	return clamp(it.Y0)*gridSize + clamp(it.X0)
}

// WPlaneOwner returns the worker owning a W-layer. Plane indices are
// signed (plan.Plan rounds w/WStepLambda to the nearest integer), so
// the mapping is the non-negative residue of plane mod workers.
func WPlaneOwner(workers, plane int) int {
	if workers < 1 {
		workers = 1
	}
	m := plane % workers
	if m < 0 {
		m += workers
	}
	return m
}

// FilterPlan returns the sub-plan of the items worker index owns
// under the axis — on AxisRows the RowBounds band holding the item's
// subgrid centre, on AxisWPlanes its W-layer's owner — preserving
// plan order, so a single worker's streamed pass accumulates its
// partition in exactly the order the serial pipeline would have, and
// the one-worker distributed run is bit-identical to the serial run.
// The sub-plan shares the parent's Config (and carries the full
// observation's DroppedVisibilities count, which is
// partition-independent).
func FilterPlan(p *plan.Plan, axis Axis, workers, index int) (*plan.Plan, error) {
	if workers < 1 {
		return nil, fmt.Errorf("distrib: need at least one worker, got %d", workers)
	}
	if index < 0 || index >= workers {
		return nil, fmt.Errorf("distrib: worker index %d outside [0, %d)", index, workers)
	}
	owner := func(it *plan.WorkItem) int { return WPlaneOwner(workers, it.WPlane) }
	if axis == AxisRows {
		bounds := RowBounds(p, workers)
		owner = func(it *plan.WorkItem) int { return RowOwner(bounds, centrePos(it, p.GridSize, p.SubgridSize)) }
	}
	sub := &plan.Plan{Config: p.Config, DroppedVisibilities: p.DroppedVisibilities}
	for i := range p.Items {
		if owner(&p.Items[i]) == index {
			sub.Items = append(sub.Items, p.Items[i])
		}
	}
	return sub, nil
}
