package fft

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/xmath"
)

// colBlock is the tile width of the cache-blocked column pass: B
// adjacent columns are gathered into a contiguous rows x B scratch,
// transformed as B-wide vector lanes (power-of-two and mixed-radix
// rows) or B independent contiguous columns (Bluestein rows), and
// scattered back. Eight complex128 columns are two cache lines per tile
// row, so the gather walks the source at full line utilization, and the
// butterfly legs stride B*16 bytes instead of cols*16 — which for
// power-of-two grids would alias to a handful of L1 sets.
const colBlock = 8

// smoothPlaneMax is the largest plane (in elements) a mixed-radix axis
// transforms as one tile: up to 64 KB the whole plane and its work copy
// stay in L1/L2, and whole rows make the longest lane vectors. Subgrids
// (24 x 24) are far below it; larger planes fall back to colBlock lanes.
const smoothPlaneMax = 4096

// Plan2D performs 2-D transforms on row-major data of size rows x cols.
// Like Plan, a Plan2D is safe for concurrent use; per-call state lives
// in a pooled scratch struct so steady-state transforms allocate
// nothing.
type Plan2D struct {
	rows, cols int
	rowPlan    *Plan // length rows: transforms along a column
	colPlan    *Plan // length cols: transforms along a row
	colW       int   // columns per tile of the column pass
	rowH       int   // rows per block of the mixed-radix row pass
	sigma      float64
	fusedOK    bool // fused centering needs both sides even
	scratch    sync.Pool
}

type p2dScratch struct {
	tile  []complex128 // transformed column tile / row block
	stage []complex128 // transposed input of a mixed-radix row block
	oneD  []complex128 // scratch for Bluestein 1-D transforms
}

// NewPlan2D creates a 2-D plan. Square plans share the underlying 1-D
// plan between the two dimensions.
func NewPlan2D(rows, cols int) *Plan2D {
	p := &Plan2D{rows: rows, cols: cols}
	p.colPlan = NewPlan(cols)
	if rows == cols {
		p.rowPlan = p.colPlan
	} else {
		p.rowPlan = NewPlan(rows)
	}
	p.fusedOK = rows%2 == 0 && cols%2 == 0
	p.sigma = 1
	if (rows/2+cols/2)%2 == 1 {
		p.sigma = -1
	}
	whole := rows*cols <= smoothPlaneMax
	p.colW, p.rowH = min(colBlock, cols), min(colBlock, rows)
	if p.rowPlan.smooth != nil && whole {
		p.colW = cols
	}
	tile, stage := rows*p.colW, 0
	if p.colPlan.smooth != nil {
		if whole {
			p.rowH = rows
		}
		stage = cols * p.rowH
		tile = max(tile, stage)
	}
	oneD := max(p.rowPlan.scratchLen(), p.colPlan.scratchLen())
	p.scratch.New = func() interface{} {
		return &p2dScratch{
			tile:  make([]complex128, tile),
			stage: make([]complex128, stage),
			oneD:  make([]complex128, oneD),
		}
	}
	return p
}

// Rows returns the number of rows of the plan.
func (p *Plan2D) Rows() int { return p.rows }

// Cols returns the number of columns of the plan.
func (p *Plan2D) Cols() int { return p.cols }

func (p *Plan2D) checkLen(x []complex128) {
	if len(x) != p.rows*p.cols {
		panic(fmt.Sprintf("fft: input length %d does not match %dx%d plan",
			len(x), p.rows, p.cols))
	}
}

// Forward transforms x (row-major, rows x cols) in place.
func (p *Plan2D) Forward(x []complex128) {
	p.checkLen(x)
	p.runSerial(x, false, false, 1)
}

// Inverse applies the inverse 2-D transform in place, scaling by
// 1/(rows*cols) overall.
func (p *Plan2D) Inverse(x []complex128) {
	p.checkLen(x)
	p.runSerial(x, true, false, 1/float64(p.rows*p.cols))
}

// runSerial is the 2-D driver, in place: a row pass, then the blocked
// column pass tile by tile. fused folds the centering sign flips into
// the passes; scale is applied once, during the column-tile scatter.
func (p *Plan2D) runSerial(x []complex128, inverse, fused bool, scale float64) {
	p.runSerialFrom(x, x, inverse, fused, scale)
}

// runSerialFrom is runSerial reading its input from src (see rowPass).
func (p *Plan2D) runSerialFrom(x, src []complex128, inverse, fused bool, scale float64) {
	sc := p.scratch.Get().(*p2dScratch)
	p.rowPass(x, src, 0, p.rows, inverse, fused, sc)
	for c0 := 0; c0 < p.cols; c0 += p.colW {
		p.colTile(x, c0, min(p.colW, p.cols-c0), inverse, fused, scale, sc)
	}
	p.scratch.Put(sc)
}

// rowPass transforms rows [r0, r1) of src into the same rows of x (in
// place when src is x; otherwise src is only read). preFlip first
// applies the whole (-1)^(r+c) input checkerboard of the fused
// centering: its (-1)^r half is constant along a row, so it commutes
// exactly with the row transform and the column pass can read its input
// as it lies. Out of place, each row (block) is brought over right
// before it is transformed — by the first transpose of the mixed-radix
// schedule, by a row-sized copy ahead of the in-place engines — so no
// separate pass over the whole destination precedes the transform.
func (p *Plan2D) rowPass(x, src []complex128, r0, r1 int, inverse, preFlip bool, sc *p2dScratch) {
	if p.colPlan.smooth != nil {
		for b0 := r0; b0 < r1; b0 += p.rowH {
			p.rowBlockSmooth(x, src, b0, min(p.rowH, r1-b0), inverse, preFlip, sc)
		}
		return
	}
	inPlace := &x[0] == &src[0]
	for r := r0; r < r1; r++ {
		row := x[r*p.cols : (r+1)*p.cols]
		if !inPlace {
			copy(row, src[r*p.cols:(r+1)*p.cols])
		}
		if preFlip {
			for i := (r + 1) & 1; i < len(row); i += 2 {
				row[i] = -row[i]
			}
		}
		if inverse {
			p.colPlan.backwardWith(row, sc.oneD)
		} else {
			p.colPlan.forwardWith(row, sc.oneD)
		}
	}
}

// rowBlockSmooth transforms the h rows from b0 of src into x with the
// mixed-radix schedule: the block is transposed into staging (taking
// the input checkerboard along), the lane engine runs down the former
// rows with the h rows as its lanes, and the result is transposed back.
func (p *Plan2D) rowBlockSmooth(x, src []complex128, b0, h int, inverse, preFlip bool, sc *p2dScratch) {
	cols := p.cols
	stage, tile := sc.stage[:cols*h], sc.tile[:cols*h]
	tier := p.colPlan.tier
	xmath.TransposeLanes(tier, stage, h, src[b0*cols:(b0+h)*cols], cols, cols, h, preFlip, b0)
	p.colPlan.smooth.run(tier, tile, stage, h, h, inverse)
	xmath.TransposeLanes(tier, x[b0*cols:(b0+h)*cols], cols, tile, h, h, cols, false, 0)
}

// colTile transforms columns [c0, c0+cw) of x. When fused, the scatter
// applies the output checkerboard (-1)^(k+l) together with the scale
// (which already carries the caller's sigma factor); the input
// checkerboard went in with the row pass.
func (p *Plan2D) colTile(x []complex128, c0, cw int, inverse, fused bool, scale float64, sc *p2dScratch) {
	rows, cols := p.rows, p.cols
	tile := sc.tile[:rows*cw]
	switch {
	case p.rowPlan.smooth != nil:
		// The leaf pass reads the columns where they lie, cols apart.
		p.rowPlan.smooth.run(p.rowPlan.tier, tile, x[c0:], cols, cw, inverse)
	case p.rowPlan.pow2:
		// Gather into a row-major rows x cw tile and run the engine's
		// lane-parallel schedule directly on it.
		for r := 0; r < rows; r++ {
			copy(tile[r*cw:r*cw+cw], x[r*cols+c0:r*cols+c0+cw])
		}
		p.rowPlan.colPow2(tile, cw, inverse)
	default:
		p.colTileBluestein(x, c0, cw, inverse, fused, scale, sc)
		return
	}
	p.scatterTile(x, tile, c0, cw, fused, scale)
}

// colTileBluestein stages each column contiguously and runs cw
// independent 1-D transforms.
func (p *Plan2D) colTileBluestein(x []complex128, c0, cw int, inverse, fused bool, scale float64, sc *p2dScratch) {
	rows, cols := p.rows, p.cols
	for j := 0; j < cw; j++ {
		col := sc.tile[j*rows : (j+1)*rows]
		for r := 0; r < rows; r++ {
			col[r] = x[r*cols+c0+j]
		}
		if inverse {
			p.rowPlan.backwardWith(col, sc.oneD)
		} else {
			p.rowPlan.forwardWith(col, sc.oneD)
		}
	}
	// Scatter column-major staging back (transposed relative to
	// scatterTile's row-major tile).
	for r := 0; r < rows; r++ {
		dst := x[r*cols+c0 : r*cols+c0+cw]
		s := scale
		if fused && (r+c0)&1 == 1 {
			s = -scale
		}
		for j := 0; j < cw; j++ {
			v := sc.tile[j*rows+r]
			dst[j] = complex(real(v)*s, imag(v)*s)
			if fused {
				s = -s
			}
		}
	}
}

// scatterTile writes a row-major rows x cw tile back into columns
// [c0, c0+cw), applying the output checkerboard and scale.
func (p *Plan2D) scatterTile(x, tile []complex128, c0, cw int, fused bool, scale float64) {
	rows, cols := p.rows, p.cols
	tier := p.rowPlan.tier
	for r := 0; r < rows; r++ {
		src := tile[r*cw : r*cw+cw]
		dst := x[r*cols+c0 : r*cols+c0+cw]
		switch {
		case fused && (r+c0)&1 == 1:
			xmath.ScaleLanes(tier, dst, src, -scale, scale)
		case fused:
			xmath.ScaleLanes(tier, dst, src, scale, -scale)
		case scale == 1:
			copy(dst, src)
		default:
			xmath.ScaleLanes(tier, dst, src, scale, scale)
		}
	}
}

// ForwardParallel transforms x in place using up to workers goroutines
// (<=0 means GOMAXPROCS). Large grid transforms (2048 x 2048 in the
// paper's dataset) benefit from this; subgrid transforms are too small
// and are instead batched across subgrids, see TransformBatch.
func (p *Plan2D) ForwardParallel(x []complex128, workers int) {
	p.checkLen(x)
	p.runParallel(x, x, false, false, 1, workers)
}

// InverseParallel is the parallel variant of Inverse.
func (p *Plan2D) InverseParallel(x []complex128, workers int) {
	p.checkLen(x)
	p.runParallel(x, x, true, false, 1/float64(p.rows*p.cols), workers)
}

// runParallel splits the row pass by row ranges and the column pass by
// tile ranges; the row pass reads src (x itself for an in-place
// transform), everything after it works on x. Tiles are independent
// and the per-column math is identical to the serial schedule, so
// parallel output is bitwise equal to serial.
func (p *Plan2D) runParallel(x, src []complex128, inverse, fused bool, scale float64, workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > p.rows {
		workers = p.rows
	}
	if workers <= 1 {
		p.runSerialFrom(x, src, inverse, fused, scale)
		return
	}
	var wg sync.WaitGroup
	chunk := (p.rows + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > p.rows {
			hi = p.rows
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			sc := p.scratch.Get().(*p2dScratch)
			p.rowPass(x, src, lo, hi, inverse, fused, sc)
			p.scratch.Put(sc)
		}(lo, hi)
	}
	wg.Wait()
	tiles := (p.cols + p.colW - 1) / p.colW
	tw := workers
	if tw > tiles {
		tw = tiles
	}
	chunk = (tiles + tw - 1) / tw
	for w := 0; w < tw; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > tiles {
			hi = tiles
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			sc := p.scratch.Get().(*p2dScratch)
			for t := lo; t < hi; t++ {
				c0 := t * p.colW
				p.colTile(x, c0, min(p.colW, p.cols-c0), inverse, fused, scale, sc)
			}
			p.scratch.Put(sc)
		}(lo, hi)
	}
	wg.Wait()
}

// TransformBatch applies the plan to many independent row-major arrays
// in parallel (the "embarrassingly parallel" subgrid FFT step of the
// paper, Section V-B(c)). Each element of batch must have length
// rows*cols. inverse selects the transform direction.
func (p *Plan2D) TransformBatch(batch [][]complex128, inverse bool, workers int) {
	scale := 1.0
	if inverse {
		scale = 1 / float64(p.rows*p.cols)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(batch) {
		workers = len(batch)
	}
	if workers <= 1 {
		for _, x := range batch {
			p.checkLen(x)
			p.runSerial(x, inverse, false, scale)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan []complex128, len(batch))
	for _, x := range batch {
		next <- x
	}
	close(next)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for x := range next {
				p.checkLen(x)
				p.runSerial(x, inverse, false, scale)
			}
		}()
	}
	wg.Wait()
}

// TransformPlanes runs the centered transform on each plane (all four
// correlations of one subgrid, typically) and multiplies by scale, all
// in one pass: TransformPlanes(planes, inverse, 1/(rows*cols)) is
// InverseCentered on every plane, and the forward direction matches
// ForwardCentered followed by a scale sweep — with the shift rotates
// and the normalization sweep fused away.
func (p *Plan2D) TransformPlanes(planes [][]complex128, inverse bool, scale float64) {
	if !p.fusedOK {
		// Odd sizes fall back to explicit shift rotates around the
		// blocked transform; scale stays fused into the column scatter.
		for _, x := range planes {
			p.checkLen(x)
			InverseShift2D(x, p.rows, p.cols)
			p.runSerial(x, inverse, false, scale)
			Shift2D(x, p.rows, p.cols)
		}
		return
	}
	for _, x := range planes {
		p.checkLen(x)
		p.runSerial(x, inverse, true, p.sigma*scale)
	}
}
