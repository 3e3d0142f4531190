// Package fft implements the discrete Fourier transforms the IDG
// pipeline needs: plan-based 1-D complex transforms (fused radix-4 for
// power-of-two sizes, a lane-parallel mixed-radix schedule for
// 2/3/5-smooth sizes, Bluestein's algorithm for everything else),
// 2-D transforms, centered (fftshift-ed) transforms, and batched
// parallel execution. It plays the role MKL, cuFFT and clFFT play in
// the paper: the subgrid FFTs and the final grid FFT.
//
// Conventions: Forward computes X[k] = sum_j x[j] exp(-2*pi*i*j*k/n)
// (unnormalized); Inverse applies the opposite sign and scales by 1/n,
// so Inverse(Forward(x)) == x.
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"repro/internal/xmath"
)

// planTier resolves the SIMD tier a new plan's kernels dispatch on.
// It is a variable so the test suite can force the scalar tier without
// touching the process-wide IDG_SIMD override.
var planTier = xmath.ActiveSIMD

// Plan holds the precomputed tables for transforms of one size.
// A Plan is safe for concurrent use by multiple goroutines: all state
// is read-only after construction, and scratch buffers are pooled per
// plan (Bluestein) or not needed (power-of-two, mixed-radix up to
// smoothStack points).
type Plan struct {
	n    int
	pow2 bool
	tier xmath.SIMDTier

	// Power-of-two tables: the bit-reversal permutation and the
	// per-stage twiddles of the fused radix-4 engine (radix4.go).
	perm []int32
	r4   *r4Plan

	// Mixed-radix schedule for 2/3/5-smooth lengths (nil otherwise).
	smooth *smoothPlan

	// Bluestein tables (nil for power-of-two sizes).
	bm         int          // convolution size (power of two >= 2n-1)
	bPlan      *Plan        // power-of-two plan of size bm
	chirp      []complex128 // exp(-i*pi*k^2/n), k = 0..n-1
	bKernelFFT []complex128 // FFT of the chirp convolution kernel
	bPool      sync.Pool    // *[]complex128 of length bm (conv scratch)
}

// NewPlan creates a transform plan for length n. It panics if n < 1,
// matching the contract of the standard library's panics on programmer
// error (a transform length is never data-dependent in this codebase).
func NewPlan(n int) *Plan {
	if n < 1 {
		panic(fmt.Sprintf("fft: invalid transform length %d", n))
	}
	p := &Plan{n: n, tier: planTier()}
	if n&(n-1) == 0 {
		p.pow2 = true
		p.initPerm()
		p.r4 = newR4Plan(n)
		return p
	}
	if factors, ok := smoothFactors(n); ok {
		p.smooth = newSmoothPlan(n, factors)
		return p
	}
	p.initBluestein()
	return p
}

// N returns the transform length of the plan.
func (p *Plan) N() int { return p.n }

func (p *Plan) initPerm() {
	n := p.n
	logN := bits.TrailingZeros(uint(n))
	p.perm = make([]int32, n)
	if n == 1 {
		return
	}
	for i := 0; i < n; i++ {
		p.perm[i] = int32(bits.Reverse32(uint32(i)) >> (32 - logN))
	}
}

func (p *Plan) initBluestein() {
	n := p.n
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	p.bm = m
	p.bPlan = NewPlan(m)
	p.chirp = make([]complex128, n)
	kernel := make([]complex128, m)
	for k := 0; k < n; k++ {
		// Use k^2 mod 2n to keep the angle small and exact.
		kk := (int64(k) * int64(k)) % int64(2*n)
		ang := -math.Pi * float64(kk) / float64(n)
		c := complex(math.Cos(ang), math.Sin(ang))
		p.chirp[k] = c
		kernel[k] = complex(real(c), -imag(c)) // conj: exp(+i...)
		if k > 0 {
			kernel[m-k] = kernel[k]
		}
	}
	p.bPlan.forwardPow2(kernel, false)
	p.bKernelFFT = kernel
	p.bPool.New = func() interface{} {
		buf := make([]complex128, m)
		return &buf
	}
}

// Forward transforms x in place with the negative-exponent convention.
// It panics if len(x) != N().
func (p *Plan) Forward(x []complex128) {
	p.checkLen(x)
	if p.pow2 || p.smooth != nil {
		p.forwardWith(x, nil)
		return
	}
	p.bluesteinPooled(x)
}

// Inverse transforms x in place with the positive-exponent convention
// and scales by 1/n, so that Inverse is the exact inverse of Forward.
func (p *Plan) Inverse(x []complex128) {
	p.checkLen(x)
	if p.pow2 || p.smooth != nil {
		p.backwardWith(x, nil)
		inv := 1 / float64(p.n)
		for i, v := range x {
			x[i] = complex(real(v)*inv, imag(v)*inv)
		}
		return
	}
	// inverse(x) = conj(forward(conj(x))) / n
	for i, v := range x {
		x[i] = complex(real(v), -imag(v))
	}
	p.Forward(x)
	inv := 1 / float64(p.n)
	for i, v := range x {
		x[i] = complex(real(v)*inv, -imag(v)*inv)
	}
}

// scratchLen is the caller-supplied scratch size forwardWith and
// backwardWith need: the convolution length for Bluestein, nothing
// otherwise (power-of-two plans run in place; the 2-D driver runs
// mixed-radix plans through smoothPlan.run on its own tiles).
func (p *Plan) scratchLen() int {
	if p.pow2 || p.smooth != nil {
		return 0
	}
	return p.bm
}

// forwardWith is Forward with caller-supplied scratch (len >=
// scratchLen()), letting the 2-D driver keep every transform of a
// plane on one pooled buffer.
func (p *Plan) forwardWith(x, scratch []complex128) {
	switch {
	case p.pow2:
		p.forwardPow2(x, false)
	case p.smooth != nil:
		p.smooth.transform1D(p.tier, x, scratch, false)
	default:
		p.bluestein(x, scratch)
	}
}

// backwardWith runs the unnormalized positive-exponent transform; the
// caller folds the 1/n scale into its output pass.
func (p *Plan) backwardWith(x, scratch []complex128) {
	if p.pow2 {
		p.forwardPow2(x, true)
		return
	}
	if p.smooth != nil {
		p.smooth.transform1D(p.tier, x, scratch, true)
		return
	}
	// backward(x) = conj(forward(conj(x))); the conjugation sweeps run
	// over in-cache data and cost a fraction of the transform.
	for i, v := range x {
		x[i] = complex(real(v), -imag(v))
	}
	p.forwardWith(x, scratch)
	for i, v := range x {
		x[i] = complex(real(v), -imag(v))
	}
}

func (p *Plan) checkLen(x []complex128) {
	if len(x) != p.n {
		panic(fmt.Sprintf("fft: input length %d does not match plan length %d", len(x), p.n))
	}
}

// bluesteinPooled runs bluestein on scratch borrowed from the plan's
// pool, so repeated public Forward calls allocate nothing.
func (p *Plan) bluesteinPooled(x []complex128) {
	bufp := p.bPool.Get().(*[]complex128)
	p.bluestein(x, *bufp)
	p.bPool.Put(bufp)
}

func (p *Plan) bluestein(x, scratch []complex128) {
	n, m := p.n, p.bm
	a := scratch[:m]
	for k := 0; k < n; k++ {
		a[k] = x[k] * p.chirp[k]
	}
	// Pooled scratch arrives dirty: the convolution input must be
	// zero-padded to m.
	for k := n; k < m; k++ {
		a[k] = 0
	}
	p.bPlan.forwardPow2(a, false)
	for i := range a {
		a[i] *= p.bKernelFFT[i]
	}
	p.bPlan.forwardPow2(a, true) // unnormalized backward
	inv := 1 / float64(m)
	for k := 0; k < n; k++ {
		v := complex(real(a[k])*inv, imag(a[k])*inv)
		x[k] = v * p.chirp[k]
	}
}

// DFTDirect computes the forward DFT by direct summation. It is O(n^2)
// and exists as the ground-truth reference for the test suite.
func DFTDirect(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(j) * float64(k) / float64(n)
			sum += x[j] * complex(math.Cos(ang), math.Sin(ang))
		}
		out[k] = sum
	}
	return out
}
