// Package plan implements the execution plan of the paper
// (Section V-A): before gridding, the visibilities of every baseline
// are partitioned into work items, each consisting of a subgrid
// position on the grid plus the contiguous block of time steps (and a
// channel block) whose visibilities — including the support of their
// AW convolution kernels — fit inside that subgrid. A greedy sweep
// over time implements the partitioning; Tmax bounds the work per
// item, and A-term slot boundaries and W-layers force splits.
package plan

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/uvwsim"
)

// Config describes the imaging setup the plan is built for.
type Config struct {
	// GridSize is the grid dimension in pixels (2048 in the paper's
	// dataset).
	GridSize int
	// SubgridSize is the subgrid dimension N~ in pixels (24).
	SubgridSize int
	// ImageSize is the field-of-view extent in direction cosines; one
	// uv cell is 1/ImageSize wavelengths.
	ImageSize float64
	// Frequencies lists the channel center frequencies in Hz.
	Frequencies []float64
	// KernelSupport is the half-width, in uv cells, reserved around
	// each visibility for the taper/W-term/A-term support (Fig. 5).
	KernelSupport int
	// MaxTimestepsPerSubgrid is T~max; 0 means unlimited.
	MaxTimestepsPerSubgrid int
	// ATermUpdateInterval is the number of time steps per A-term slot
	// (256 in the paper); 0 means a single slot.
	ATermUpdateInterval int
	// WStepLambda is the W-layer thickness in wavelengths for
	// W-stacking; 0 disables W-stacking (all subgrids at w=0). A
	// W-stacked plan lists its items layer by layer (layerMajor).
	WStepLambda float64
	// ChannelBlockSize is C~, the number of channels per work item;
	// 0 means all channels in one block.
	ChannelBlockSize int
}

// Validate checks the configuration for consistency.
func (c *Config) Validate() error {
	switch {
	case c.GridSize < 2:
		return fmt.Errorf("plan: grid size %d too small", c.GridSize)
	case c.SubgridSize < 2:
		return fmt.Errorf("plan: subgrid size %d too small", c.SubgridSize)
	case c.SubgridSize > c.GridSize:
		return fmt.Errorf("plan: subgrid size %d exceeds grid size %d", c.SubgridSize, c.GridSize)
	case c.ImageSize <= 0:
		return fmt.Errorf("plan: image size must be positive, got %g", c.ImageSize)
	case len(c.Frequencies) == 0:
		return errors.New("plan: no frequencies")
	case c.KernelSupport < 0:
		return fmt.Errorf("plan: negative kernel support %d", c.KernelSupport)
	case 2*c.KernelSupport >= c.SubgridSize:
		return fmt.Errorf("plan: kernel support %d leaves no room in a %d-pixel subgrid",
			c.KernelSupport, c.SubgridSize)
	case c.WStepLambda < 0:
		return fmt.Errorf("plan: negative w step %g", c.WStepLambda)
	}
	for i, f := range c.Frequencies {
		if f <= 0 {
			return fmt.Errorf("plan: frequency %d not positive: %g", i, f)
		}
	}
	return nil
}

// channelBlock returns the effective channel block size.
func (c *Config) channelBlock() int {
	if c.ChannelBlockSize <= 0 || c.ChannelBlockSize > len(c.Frequencies) {
		return len(c.Frequencies)
	}
	return c.ChannelBlockSize
}

// WorkItem is one subgrid together with the visibility block it covers
// (the paper's "work item": subgrid metadata plus associated
// visibilities).
type WorkItem struct {
	// Baseline indexes into the baseline list the plan was built from.
	Baseline int
	// TimeStart and NrTimesteps delimit the time block.
	TimeStart, NrTimesteps int
	// Channel0 and NrChannels delimit the channel block.
	Channel0, NrChannels int
	// ATermSlot is the A-term slot shared by all covered time steps.
	ATermSlot int
	// X0, Y0 anchor the subgrid in the grid (top-left pixel).
	X0, Y0 int
	// WOffset is the w coordinate of the subgrid's W-layer in
	// wavelengths (0 without W-stacking).
	WOffset float64
	// WPlane is the W-layer index (0 without W-stacking).
	WPlane int
}

// NrVisibilities returns the number of visibilities covered by the
// item.
func (w *WorkItem) NrVisibilities() int {
	return w.NrTimesteps * w.NrChannels
}

// Plan is the result of partitioning an observation.
type Plan struct {
	Config
	// Items lists all work items ("the work").
	Items []WorkItem
	// DroppedVisibilities counts visibilities that could not be
	// placed (their uv point, with support, falls off the grid).
	DroppedVisibilities int
}

// uvPixel converts a uvw coordinate in meters to grid pixel units
// relative to the grid center for frequency f.
func (c *Config) uvPixel(coord uvwsim.UVW, f float64) (float64, float64) {
	s := f / uvwsim.SpeedOfLight * c.ImageSize
	return coord.U * s, coord.V * s
}

// bbox tracks a bounding box in pixel units.
type bbox struct {
	umin, umax, vmin, vmax float64
	wmin, wmax             float64 // wavelengths
	valid                  bool
}

func (b *bbox) add(u, v, w float64) {
	if !b.valid {
		*b = bbox{umin: u, umax: u, vmin: v, vmax: v, wmin: w, wmax: w, valid: true}
		return
	}
	b.umin = math.Min(b.umin, u)
	b.umax = math.Max(b.umax, u)
	b.vmin = math.Min(b.vmin, v)
	b.vmax = math.Max(b.vmax, v)
	b.wmin = math.Min(b.wmin, w)
	b.wmax = math.Max(b.wmax, w)
}

func (b *bbox) union(o bbox) bbox {
	if !b.valid {
		return o
	}
	if !o.valid {
		return *b
	}
	return bbox{
		umin: math.Min(b.umin, o.umin), umax: math.Max(b.umax, o.umax),
		vmin: math.Min(b.vmin, o.vmin), vmax: math.Max(b.vmax, o.vmax),
		wmin: math.Min(b.wmin, o.wmin), wmax: math.Max(b.wmax, o.wmax),
		valid: true,
	}
}

// New builds the execution plan for the given per-baseline uvw tracks
// (tracks[b][t], in meters). All baselines must have equal track
// lengths.
func New(cfg Config, tracks [][]uvwsim.UVW) (*Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(tracks) == 0 {
		return nil, errors.New("plan: no baselines")
	}
	nt := len(tracks[0])
	for b, tr := range tracks {
		if len(tr) != nt {
			return nil, fmt.Errorf("plan: baseline %d has %d samples, want %d", b, len(tr), nt)
		}
	}
	p := &Plan{Config: cfg}
	cb := cfg.channelBlock()
	for c0 := 0; c0 < len(cfg.Frequencies); c0 += cb {
		nc := cb
		if c0+nc > len(cfg.Frequencies) {
			nc = len(cfg.Frequencies) - c0
		}
		for b := range tracks {
			p.planBaselineAdaptive(b, tracks[b], c0, nc)
		}
	}
	p.layerMajor()
	return p, nil
}

// layerMajor orders a W-stacked plan's items by W-layer with a stable
// sort, so each layer's items are contiguous and keep their plan order
// (channel block, baseline, time); the passes run one layer at a time
// (see StreamChunks). An unstacked plan keeps its order.
func (p *Plan) layerMajor() {
	if p.WStepLambda > 0 {
		sort.SliceStable(p.Items, func(i, j int) bool { return p.Items[i].WPlane < p.Items[j].WPlane })
	}
}

// timestepBox returns the pixel bounding box of one time step's
// channels for channel block [c0, c0+nc).
func (p *Plan) timestepBox(coord uvwsim.UVW, c0, nc int) bbox {
	var b bbox
	for c := c0; c < c0+nc; c++ {
		f := p.Frequencies[c]
		u, v := p.uvPixel(coord, f)
		w := coord.W * f / uvwsim.SpeedOfLight
		b.add(u, v, w)
	}
	return b
}

// fits reports whether a bounding box fits into a subgrid, leaving
// KernelSupport pixels of margin on every side.
func (p *Plan) fits(b bbox) bool {
	// A box of width W plus 2*support pixels of margin must fit into
	// SubgridSize-1 usable pixel distances; one extra pixel is
	// reserved for the integer rounding of the subgrid anchor.
	if !p.uvFits(b) {
		return false
	}
	if p.WStepLambda > 0 && b.wmax-b.wmin > p.WStepLambda {
		return false
	}
	return true
}

// uvFits checks only the uv extent of the box against the subgrid.
func (p *Plan) uvFits(b bbox) bool {
	free := float64(p.SubgridSize - 2*p.KernelSupport - 2)
	return b.umax-b.umin <= free && b.vmax-b.vmin <= free
}

// wPlane assigns a w coordinate (wavelengths) to a W-layer.
func (p *Plan) wPlane(w float64) int {
	if p.WStepLambda <= 0 {
		return 0
	}
	return int(math.Round(w / p.WStepLambda))
}

func (p *Plan) aTermSlot(t int) int {
	if p.ATermUpdateInterval <= 0 {
		return 0
	}
	return t / p.ATermUpdateInterval
}

// planBaselineAdaptive plans one baseline's channel block, first
// splitting the block into sub-ranges narrow enough that a single time
// step's frequency smear fits into the subgrid. This implements the
// paper's "having C~ channels that can be covered by an N~ x N~
// subgrid ... we create a new subgrid to cover the remaining
// channels": long baselines smear across many uv cells over a wide
// band, and are gridded in several channel groups.
func (p *Plan) planBaselineAdaptive(b int, track []uvwsim.UVW, c0, nc int) {
	free := float64(p.SubgridSize - 2*p.KernelSupport - 2)
	// Worst-case single-timestep uv span of the full block.
	span := 0.0
	for t := range track {
		box := p.timestepBox(track[t], c0, nc)
		span = math.Max(span, math.Max(box.umax-box.umin, box.vmax-box.vmin))
	}
	nSplit := 1
	if span > free {
		// The span scales ~linearly with the channel count; leave 20%
		// headroom for the nonlinearity across the band.
		nSplit = int(math.Ceil(span / free * 1.2))
		if nSplit > nc {
			nSplit = nc
		}
	}
	base, rem := nc/nSplit, nc%nSplit
	start := c0
	for i := 0; i < nSplit; i++ {
		n := base
		if i < rem {
			n++
		}
		if n == 0 {
			continue
		}
		p.planBaseline(b, track, start, n)
		start += n
	}
}

func (p *Plan) planBaseline(b int, track []uvwsim.UVW, c0, nc int) {
	var (
		cur      bbox
		start    = -1
		curSlot  = -1
		curPlane = 0
	)
	flush := func(end int) {
		if start < 0 {
			return
		}
		p.emit(b, start, end-start, c0, nc, curSlot, curPlane, cur)
		start = -1
		cur = bbox{}
	}
	for t := 0; t < len(track); t++ {
		box := p.timestepBox(track[t], c0, nc)
		slot := p.aTermSlot(t)
		plane := p.wPlane((box.wmin + box.wmax) / 2)
		if start >= 0 {
			merged := cur.union(box)
			splitByTmax := p.MaxTimestepsPerSubgrid > 0 && t-start >= p.MaxTimestepsPerSubgrid
			if slot != curSlot || plane != curPlane || splitByTmax || !p.fits(merged) {
				flush(t)
			} else {
				cur = merged
				continue
			}
		}
		// Start a new item at t.
		if !p.fits(box) {
			// A single time step that does not fit is either too wide
			// in uv (the channel block smears across more pixels than
			// the subgrid has; drop it) or violates the w constraint
			// of a tiny WStep (emit it alone below).
			if !p.uvFits(box) {
				p.DroppedVisibilities += nc
				continue
			}
		}
		start, cur, curSlot, curPlane = t, box, slot, plane
	}
	flush(len(track))
}

// emit finalizes one work item, positioning the subgrid so the
// bounding box is centered, and clamping to the grid. Items whose
// visibilities cannot be kept inside the grid are dropped.
func (p *Plan) emit(b, t0, nt, c0, nc, slot, plane int, box bbox) {
	n, sg := p.GridSize, p.SubgridSize
	// Optimal anchor: center of the feasible anchor interval
	// [umax+s-sg+1, umin-s] (relative to the grid center), which keeps
	// the box plus support inside the subgrid whenever fits() held.
	x0 := int(math.Round((box.umin+box.umax-float64(sg)+1)/2)) + n/2
	y0 := int(math.Round((box.vmin+box.vmax-float64(sg)+1)/2)) + n/2
	// Clamp into the grid.
	x0 = clamp(x0, 0, n-sg)
	y0 = clamp(y0, 0, n-sg)
	// Verify the visibilities still fall inside the clamped subgrid
	// with the support margin; otherwise they are off the grid.
	s := float64(p.KernelSupport)
	if box.umin+float64(n/2) < float64(x0)+s || box.umax+float64(n/2) > float64(x0+sg-1)-s ||
		box.vmin+float64(n/2) < float64(y0)+s || box.vmax+float64(n/2) > float64(y0+sg-1)-s {
		p.DroppedVisibilities += nt * nc
		return
	}
	item := WorkItem{
		Baseline:  b,
		TimeStart: t0, NrTimesteps: nt,
		Channel0: c0, NrChannels: nc,
		ATermSlot: slot,
		X0:        x0, Y0: y0,
		WPlane: plane,
	}
	if p.WStepLambda > 0 {
		item.WOffset = float64(plane) * p.WStepLambda
	}
	p.Items = append(p.Items, item)
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// WorkGroups splits the work into groups of at most m items each
// (Fig. 6: the work is split into work groups that kernels process in
// one launch). The passes run in chunks (StreamChunks); only the
// benchmark's per-layer ledger still batches by work groups.
func (p *Plan) WorkGroups(m int) [][]WorkItem {
	if m <= 0 {
		m = len(p.Items)
	}
	if m == 0 {
		return nil
	}
	var groups [][]WorkItem
	for i := 0; i < len(p.Items); i += m {
		j := i + m
		if j > len(p.Items) {
			j = len(p.Items)
		}
		groups = append(groups, p.Items[i:j])
	}
	return groups
}
