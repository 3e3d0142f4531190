package fft

import (
	"math"
	"math/bits"

	"repro/internal/xmath"
)

// The power-of-two engine: an iterative DIT transform whose butterfly
// fuses two consecutive radix-2 stages into one radix-4 pass. Fusing
// keeps the plain bit-reversal input permutation (the fused pass is
// algebraically the two radix-2 stages executed back to back) while
// cutting complex multiplies from 4 to 3 per 4 outputs and halving the
// number of passes over the data. For odd log2(n) a single twiddle-free
// radix-2 stage runs first, so every length is covered.
//
// Per-stage twiddle tables are stored as two flat slices (tw1[t] =
// W_2h^t, tw2[t] = W_4h^t for t < h) so the stage kernels read them
// sequentially; the third leg's factor w3 = -i*w2 (forward) / +i*w2
// (backward) is derived in-register, which is exact. The backward
// tables are the conjugates, stored separately to keep both directions
// sequential reads.

// r4Stage is one fused radix-4 pass: butterflies span 4h elements.
type r4Stage struct {
	h        int
	tw1, tw2 []complex128
}

// r4Plan holds the fused-stage schedule for one power-of-two length.
type r4Plan struct {
	leadR2 bool      // run one twiddle-free radix-2 stage first
	fwd    []r4Stage // forward tables, in execution order
	inv    []r4Stage // conjugated tables for the backward transform
}

func newR4Plan(n int) *r4Plan {
	p := &r4Plan{}
	if n < 4 {
		p.leadR2 = n == 2
		return p
	}
	logN := bits.TrailingZeros(uint(n))
	h := 1
	if logN%2 == 1 {
		p.leadR2 = true
		h = 2
	}
	for ; 4*h <= n; h *= 4 {
		fw := r4Stage{h: h, tw1: make([]complex128, h), tw2: make([]complex128, h)}
		iv := r4Stage{h: h, tw1: make([]complex128, h), tw2: make([]complex128, h)}
		for t := 0; t < h; t++ {
			w1 := unitRoot(t, 2*h)
			w2 := unitRoot(t, 4*h)
			fw.tw1[t], fw.tw2[t] = w1, w2
			iv.tw1[t] = complex(real(w1), -imag(w1))
			iv.tw2[t] = complex(real(w2), -imag(w2))
		}
		p.fwd = append(p.fwd, fw)
		p.inv = append(p.inv, iv)
	}
	return p
}

// unitRoot returns exp(-2*pi*i*t/m).
func unitRoot(t, m int) complex128 {
	ang := -2 * math.Pi * float64(t) / float64(m)
	return complex(math.Cos(ang), math.Sin(ang))
}

// forwardPow2 transforms x in place with the new engine; inverse runs
// the unnormalized backward (positive-exponent) transform.
func (p *Plan) forwardPow2(x []complex128, inverse bool) {
	for i, pi := range p.perm {
		if int32(i) < pi {
			x[i], x[pi] = x[pi], x[i]
		}
	}
	if p.r4.leadR2 {
		for i := 0; i < p.n; i += 2 {
			a, b := x[i], x[i+1]
			x[i], x[i+1] = a+b, a-b
		}
	}
	p.stagesR4(x, inverse)
}

// gatherPow2 writes src into x in bit-reversed order, x[i] =
// src[perm[i]], running the leading radix-2 stage of an odd-log2
// length on the way: forwardPow2 up to its radix-4 stages, without a
// swap or a second pass. negEven/negOdd negate the elements taken from
// even/odd source indices first: the parity of perm[i] is the top bit
// of i, so each is one half of x, and from n = 4 up no radix-2 pair
// straddles the halves.
func (p *Plan) gatherPow2(x, src []complex128, negEven, negOdd bool) {
	half := (p.n + 1) / 2
	r2 := p.r4.leadR2 && p.n >= 4
	xmath.PermGather(p.tier, x[:half], src, p.perm[:half], negEven, r2)
	xmath.PermGather(p.tier, x[half:], src, p.perm[half:], negOdd, r2)
	if p.n == 2 {
		x[0], x[1] = x[0]+x[1], x[0]-x[1]
	}
}

// stagesR4 runs the radix-4 stages over x, which holds the input in
// bit-reversed order after the leading radix-2 stage, if any.
func (p *Plan) stagesR4(x []complex128, inverse bool) {
	stages := p.r4.fwd
	if inverse {
		stages = p.r4.inv
	}
	for _, st := range stages {
		if st.h == 1 {
			xmath.DFT4Blocks(p.tier, x, inverse)
			continue
		}
		xmath.R4StageTwAt(p.tier, x, st.h, st.tw1, st.tw2, inverse)
	}
}

// Column-pass variants: the same schedule applied to a tile of cw
// adjacent columns gathered into a row-major (rows x cw) scratch, so
// each butterfly is a cw-wide vector op on contiguous memory and the
// twiddles broadcast. This is the cache-blocked column pass: the
// gather reads runs of cw*16 contiguous bytes of the plane rows, in
// bit-reversed row order, and the butterfly legs stride cw*16 bytes
// instead of cols*16, which for power-of-two grids avoids the
// pathological set-aliasing of a strided in-place pass.

// gatherCols gathers columns [c0, c0+cw) of the row-major plane x
// (cols wide) into tile in bit-reversed row order, running the leading
// radix-2 stage on the way (p.n == rows).
func (p *Plan) gatherCols(tile, x []complex128, c0, cw, cols int) {
	row := func(i int) []complex128 {
		r := int(p.perm[i])
		return x[r*cols+c0 : r*cols+c0+cw]
	}
	if p.r4.leadR2 {
		for i := 0; i < p.n; i += 2 {
			xmath.AddSubLanes(p.tier, tile[i*cw:i*cw+cw], tile[(i+1)*cw:(i+1)*cw+cw], row(i), row(i+1))
		}
		return
	}
	for i := range p.perm {
		copy(tile[i*cw:i*cw+cw], row(i))
	}
}

// colStagesR4 runs the radix-4 stages over the cw-wide columns of a
// tile gathered by gatherCols, in place.
func (p *Plan) colStagesR4(tile []complex128, cw int, inverse bool) {
	stages := p.r4.fwd
	if inverse {
		stages = p.r4.inv
	}
	for _, st := range stages {
		tw1, tw2 := st.tw1, st.tw2
		if st.h == 1 {
			tw1, tw2 = unitTw[:1], unitTw[:1]
		}
		xmath.R4ColsStage(p.tier, tile, p.n, st.h, cw, tw1, tw2, inverse)
	}
}
