package fft

import (
	"math"

	"repro/internal/xmath"
)

// The paper's subgrids are 24 pixels (2^3 * 3); vendor FFT libraries
// handle such sizes with mixed-radix decompositions rather than the
// generic Bluestein fallback. This file holds the schedule for lengths
// whose prime factors are 2, 3 and 5 and that are not powers of two: a
// flat decimation-in-time plan — one pass of leaf transforms (8, 5, 3 or
// 2 points, reading the input in digit-reversed order), then one
// in-place combine stage per remaining factor — run over w independent
// transforms at once. The data is a row-major n x w matrix, transform
// index down the rows: every butterfly operand is a row of w contiguous
// lanes and every twiddle one scalar per row, the shape colPow2 gives
// the power-of-two sizes. For 24 that is three 8-point leaves over rows
// j, j+3, ... and one radix-3 stage. The 1-D transform is the same
// schedule at one lane.

// smoothFactors factors n into primes from {2, 3, 5}; ok is false if
// other factors remain. Larger factors first keeps the leaf
// transforms short.
func smoothFactors(n int) (factors []int, ok bool) {
	for _, p := range []int{5, 3, 2} {
		for n%p == 0 {
			factors = append(factors, p)
			n /= p
		}
	}
	return factors, n == 1
}

// smoothStage is one combine stage: radix-r butterflies over blocks of
// r*m rows, row k + j*m of a block twiddled by W_(r*m)^(j*k). fwd holds
// the r-1 non-trivial twiddles of every k, inv their conjugates for the
// backward transform.
type smoothStage struct {
	r, m     int
	fwd, inv []complex128
}

// smoothPlan is the flat schedule for one length.
type smoothPlan struct {
	n       int
	leaf    int     // leaf transform length
	leafSrc []int32 // first input row of every leaf; the others follow n/leaf apart
	stages  []smoothStage
}

func newSmoothPlan(n int, factors []int) *smoothPlan {
	p := &smoothPlan{n: n, leaf: n}
	// Peel factors off the front until a leaf codelet fits; each peeled
	// factor r splits the input by residue mod r (decimation in time)
	// and becomes a combine stage. Stages run innermost first.
	peeled := 0
	for ; p.leaf != 2 && p.leaf != 3 && p.leaf != 5 && p.leaf != 8; peeled++ {
		p.leaf /= factors[peeled]
	}
	p.leafSrc = leafOrder(factors[:peeled])
	for level := peeled - 1; level >= 0; level-- {
		nb := n
		for _, r := range factors[:level] {
			nb /= r
		}
		r := factors[level]
		st := smoothStage{r: r, m: nb / r}
		for k := 0; k < st.m; k++ {
			for j := 1; j < r; j++ {
				ang := -2 * math.Pi * float64(j*k*(n/nb)%n) / float64(n)
				w := complex(math.Cos(ang), math.Sin(ang))
				st.fwd = append(st.fwd, w)
				st.inv = append(st.inv, complex(real(w), -imag(w)))
			}
		}
		p.stages = append(p.stages, st)
	}
	return p
}

// leafOrder lists the first input row of every leaf transform, in
// output order: the sub-transform of residue j at a level with input
// stride s starts s*j rows further on, and the outermost level varies
// slowest.
func leafOrder(peeled []int) []int32 {
	order := []int32{0}
	stride := 1
	for _, r := range peeled {
		stride *= r
	}
	for level := len(peeled) - 1; level >= 0; level-- {
		r := peeled[level]
		stride /= r
		next := make([]int32, 0, r*len(order))
		for j := 0; j < r; j++ {
			for _, s := range order {
				next = append(next, s+int32(j*stride))
			}
		}
		order = next
	}
	return order
}

// run transforms w lanes: row i of the input is src[i*ss : i*ss+w], the
// output lands in dst as a contiguous n x w matrix. dst and src must not
// overlap. inverse runs the unnormalized backward transform.
func (p *smoothPlan) run(tier xmath.SIMDTier, dst, src []complex128, ss, w int, inverse bool) {
	lstride := p.n / p.leaf * ss
	for b, s0 := range p.leafSrc {
		d, s := dst[b*p.leaf*w:], src[int(s0)*ss:]
		switch p.leaf {
		case 8:
			xmath.DFT8Lanes(tier, d, w, s, lstride, w, inverse)
		case 5:
			xmath.Bfly5Lanes(d, w, s, lstride, w, &unitTw, inverse)
		case 3:
			xmath.Bfly3Lanes(tier, d, w, s, lstride, w, 1, 1, inverse)
		default:
			xmath.Bfly2Lanes(tier, d, w, s, lstride, w, 1)
		}
	}
	for i := range p.stages {
		st := &p.stages[i]
		tw := st.fwd
		if inverse {
			tw = st.inv
		}
		ms := st.m * w
		for base := 0; base < p.n; base += st.r * st.m {
			for k := 0; k < st.m; k++ {
				x := dst[(base+k)*w:]
				t := tw[k*(st.r-1):]
				switch st.r {
				case 5:
					xmath.Bfly5Lanes(x, ms, x, ms, w, (*[4]complex128)(t), inverse)
				case 3:
					xmath.Bfly3Lanes(tier, x, ms, x, ms, w, t[0], t[1], inverse)
				default:
					xmath.Bfly2Lanes(tier, x, ms, x, ms, w, t[0])
				}
			}
		}
	}
}

var unitTw = [4]complex128{1, 1, 1, 1}

// smoothStack is the largest 1-D smooth transform whose work row lives
// on the stack when the caller brings no scratch.
const smoothStack = 64

// transform1D runs the schedule at one lane, in place; buf (>= n
// elements, or nil) receives the leaf pass.
func (p *smoothPlan) transform1D(tier xmath.SIMDTier, x, buf []complex128, inverse bool) {
	var stack [smoothStack]complex128
	switch {
	case len(buf) >= p.n:
		buf = buf[:p.n]
	case p.n <= smoothStack:
		buf = stack[:p.n]
	default:
		buf = make([]complex128, p.n)
	}
	p.run(tier, buf, x, 1, 1, inverse)
	copy(x, buf)
}
