package core

import (
	"fmt"
	"math"
	"testing"
	"unsafe"

	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/xmath"
)

// Bounds and transcription tests of the pixel-lane routines: the vector
// tiers' assembly at both register widths and the scalar tier's Go
// bodies. Every buffer handed to a routine is cut out of a larger
// allocation so that it ends exactly where a run of NaN canaries begins:
// a store past the end changes a canary's bits, a load past the end (or
// at a wrong stride) feeds a NaN into the result, and the result must
// equal a scalar Go transcription of the routine bit for bit — math.FMA
// and fma32 are the same single rounding as the vector FMAs, and the Go
// bodies' float32 lanes round the product first (laneFMA).

const (
	canaryPad  = 16
	canaryBits = uint64(0x7ff8dead0000beef)
)

// canaried hands out exact-length buffers surrounded by canaries and
// checks them afterwards.
type canaried struct {
	rnd    func() float64
	intact []func() bool // one per buffer handed out: its canaries are untouched
}

// buf returns n random values with canaryPad canaries on either side.
func (c *canaried) buf(n int) []float64 { return canaryBuf[float64](c, n) }

// canaryBuf is buf for either element type; the float32 canary is the
// float64 one narrowed, still a NaN with a payload.
func canaryBuf[F floatT](c *canaried, n int) []F {
	canary := F(math.Float64frombits(canaryBits))
	b := make([]F, n+2*canaryPad)
	for i := range b {
		b[i] = canary
	}
	c.intact = append(c.intact, func() bool {
		for i := 0; i < canaryPad; i++ {
			if floatBits(b[i]) != floatBits(canary) || floatBits(b[len(b)-1-i]) != floatBits(canary) {
				return false
			}
		}
		return true
	})
	out := b[canaryPad : canaryPad+n : canaryPad+n]
	for i := range out {
		out[i] = F(c.rnd())
	}
	return out
}

// floatBits is the bit pattern of a value of either precision.
func floatBits[F floatT](x F) uint64 {
	if v, ok := any(x).(float32); ok {
		return uint64(math.Float32bits(v))
	}
	return math.Float64bits(float64(x))
}

// check fails the test if any canary was overwritten.
func (c *canaried) check(t *testing.T, what string) {
	t.Helper()
	for bi, ok := range c.intact {
		if !ok() {
			t.Fatalf("%s: buffer %d written outside its bounds", what, bi)
		}
	}
}

func requireBitwise[F floatT](t *testing.T, what string, got, want []F) {
	t.Helper()
	for i := range want {
		if floatBits(got[i]) != floatBits(want[i]) {
			t.Fatalf("%s: element %d = %v, transcription gives %v", what, i, got[i], want[i])
		}
	}
}

// forEachWidth runs fn as one subtest per form of the pixel-lane
// routines, with the dispatch table of the tier that runs it — the Go
// bodies on scalar, YMM on avx2, ZMM on avx512 — and skips a width the
// active tier does not reach.
func forEachWidth(t *testing.T, fn func(t *testing.T, d *simdDispatch)) {
	for _, tier := range []xmath.SIMDTier{xmath.SIMDScalar, xmath.SIMDAVX2, xmath.SIMDAVX512} {
		d := dispatchFor(tier)
		t.Run(tier.String(), func(t *testing.T) {
			if xmath.ActiveSIMD() < tier || d.scalar != (tier == xmath.SIMDScalar) {
				t.Skipf("%v kernels unavailable on this CPU or tier", tier)
			}
			fn(t, &d)
		})
	}
}

// laneFMA is the multiply-add a lane of d's routines runs in F: one
// rounding in float64 on every tier and in the assembled float32 lanes,
// the product rounded first in the Go bodies' float32 lanes.
func laneFMA[F floatT](d *simdDispatch) func(a, b, c F) F {
	switch {
	case unsafe.Sizeof(F(0)) == 8:
		return func(a, b, c F) F { return F(math.FMA(float64(a), float64(b), float64(c))) }
	case d.scalar:
		return func(a, b, c F) F { return F(a*b) + c }
	}
	return func(a, b, c F) F { return F(fma32(float32(a), float32(b), float32(c))) }
}

// stagePIdxOf and stageArgsOf run the phase stagers d selects, as the
// tiles do.
func stagePIdxOf(d *simdDispatch, dst, l, m, n *float64, npix int, uvw *float64, nt int) {
	if d.scalar {
		stagePIdxGo(dst, l, m, n, npix, uvw, nt)
		return
	}
	stagePIdxW(dst, l, m, n, npix, uvw, nt, d.zmm)
}

func stageArgsOf(d *simdDispatch, arg *float64, stride int, pIdx, off *float64, scale float64, npix, nt int) {
	if d.scalar {
		stageArgsGo(arg, stride, pIdx, off, scale, npix, nt)
		return
	}
	stageArgsW(arg, stride, pIdx, off, scale, npix, nt, d.zmm)
}

// fma32 is the float32 fused multiply-add, a*b + c rounded once, which
// Go does not have: the product of two float32 is exact in float64, the
// float64 sum is forced to round-to-odd (when it is inexact, TwoSum's
// error term says which neighbour is the odd one), and a round-to-odd
// value with 29 bits to spare narrows to the correctly rounded float32.
func fma32(a, b, c float32) float32 {
	p, cc := float64(a)*float64(b), float64(c)
	s := p + cc
	bv := s - p
	if err := (p - (s - bv)) + (cc - bv); err != 0 && math.Float64bits(s)&1 == 0 {
		if (err > 0) == (s > 0) {
			s = math.Float64frombits(math.Float64bits(s) + 1)
		} else {
			s = math.Float64frombits(math.Float64bits(s) - 1)
		}
	}
	return float32(s)
}

// TestFMA32RoundsOnce: sums 2^-70 short of a float32 tie, which float64
// rounds onto the tie — narrowing that would then round to even, away
// from the correctly rounded result.
func TestFMA32RoundsOnce(t *testing.T) {
	const odd = 1 + 0x1p-23 // the tie above it rounds to even, 1 + 2^-22
	for _, tc := range [][4]float32{
		{0x1p-24 * odd, 1 - 0x1p-23, odd, odd},
		{-0x1p-24 * odd, 1 - 0x1p-23, -odd, -odd},
		{0x1p-25 * odd, 1 - 0x1p-23, 1 - 0x1p-24, 1 - 0x1p-24},
	} {
		if got := fma32(tc[0], tc[1], tc[2]); got != tc[3] {
			t.Errorf("fma32(%g, %g, %g) = %g, want %g", tc[0], tc[1], tc[2], got, tc[3])
		}
		if twice := float32(float64(tc[0])*float64(tc[1]) + float64(tc[2])); twice == tc[3] {
			t.Errorf("case %v does not separate one rounding from two", tc)
		}
	}
}

// rotAccPixRef is the scalar replay of the pixel-lane gridder kernels of
// either width and precision, one lane at a time, sums in planar groups
// of sw (sumAt). With rowCh > 1: per time step the lane's delta phasor,
// per chunk of rowCh channels a fresh base phasor — both narrowed to F as
// the kernel narrows them — per channel the four correlations' FMA pairs
// and then the rotation, all in the kernel's order. With rowCh = 1 no
// delta row is staged and every channel takes its own base phasor. fma
// is the lanes' multiply-add (laneFMA).
func rotAccPixRef[F floatT](acc []F, re, im *[4][]F, nc int, sn, cs []float64, bn, rowCh, sw int, fma func(a, b, c F) F) {
	w := len(acc) / 8
	lead := min(rowCh-1, 1)
	stride := w * (lead + (nc+rowCh-1)/rowCh)
	for lane := 0; lane < w; lane++ {
		for r := 0; r < bn; r++ {
			ds, dc := F(sn[r*stride+lane]), F(cs[r*stride+lane]) // unused when rowCh = 1
			var ps, pc F
			for c := 0; c < nc; c++ {
				if c%rowCh == 0 {
					o := r*stride + w*(lead+c/rowCh) + lane
					ps, pc = F(sn[o]), F(cs[o])
				}
				j := r*nc + c
				for p := 0; p < 4; p++ {
					vr, vi := re[p][j], im[p][j]
					are, aim := &acc[sumAt(sw, lane, 2*p)], &acc[sumAt(sw, lane, 2*p+1)]
					*are = fma(vr, pc, *are)
					*are = fma(-vi, ps, *are)
					*aim = fma(vr, ps, *aim)
					*aim = fma(vi, pc, *aim)
				}
				ps, pc = fma(ps, dc, F(pc*ds)), fma(pc, dc, -F(ps*ds))
			}
		}
	}
}

// TestRotAccPixBlk64BoundsAndReplay: the pixel-lane gridder kernel of
// every form stays inside its buffers and equals the scalar replay bit
// for bit — with the recurrence, channel counts below, at and across the
// resync boundary, with and without a tail chunk; with a base row per
// channel, one, two and seven channels — equals bn single-step calls
// (block depth cannot reach the result), and gives a pixel the same bits
// in any lane beside any neighbours.
func TestRotAccPixBlk64BoundsAndReplay(t *testing.T) {
	testRotAccPixBlk[float64](t)
}

// TestRotAccPixBlk32BoundsAndReplay is the same for the float32 kernels,
// whose phasors are narrowed from the float64 rows in-register.
func TestRotAccPixBlk32BoundsAndReplay(t *testing.T) {
	testRotAccPixBlk[float32](t)
}

func testRotAccPixBlk[F floatT](t *testing.T) {
	forEachWidth(t, func(t *testing.T, d *simdDispatch) {
		fma := laneFMA[F](d)
		const resync = xmath.DefaultPhasorResync
		sw := d.sumsW
		w := sw * 8 / int(unsafe.Sizeof(F(0))) // the kernel's group of pixels
		for _, shape := range [][2]int{{2, resync}, {3, resync}, {5, resync}, {16, resync}, {37, resync}, {64, resync}, {66, resync}, {130, resync}, {1, 1}, {2, 1}, {7, 1}} {
			nc, rowCh := shape[0], shape[1]
			for _, bn := range []int{1, 3, 16} {
				what := fmt.Sprintf("w=%d nc=%d rowCh=%d bn=%d", w, nc, rowCh, bn)
				c := &canaried{rnd: newTestRand(uint64(100*nc + bn + rowCh))}
				var re, im [4][]F
				for p := range re {
					re[p], im[p] = canaryBuf[F](c, nc*bn), canaryBuf[F](c, nc*bn)
				}
				stride := w * (min(rowCh-1, 1) + (nc+rowCh-1)/rowCh)
				sn, cs := c.buf(stride*bn), c.buf(stride*bn)
				acc := canaryBuf[F](c, 8*w)
				want := append([]F(nil), acc...)
				perStep := append([]F(nil), acc...)
				call := func(a []F, sn, cs []float64, j, nt int) {
					rotAccPixBlk(&a[0],
						&re[0][j], &im[0][j], &re[1][j], &im[1][j],
						&re[2][j], &im[2][j], &re[3][j], &im[3][j],
						nc, &sn[0], &cs[0], nt, rowCh, d.scalar, d.zmm)
				}
				rotAccPixRef(want, &re, &im, nc, sn, cs, bn, rowCh, sw, fma)
				for r := 0; r < bn; r++ {
					call(perStep, sn[r*stride:], cs[r*stride:], r*nc, 1)
				}
				lanes0 := append([]F(nil), acc...)
				call(acc, sn, cs, 0, bn)
				c.check(t, what)
				requireBitwise(t, what, acc, want)
				requireBitwise(t, what+" against per-step calls", acc, perStep)

				// Reverse the lanes and replace the even ones with other
				// pixels: the odd pixels must come out as before.
				swapped := make([]F, 8*w)
				sn2, cs2 := make([]float64, len(sn)), make([]float64, len(cs))
				for lane := 0; lane < w; lane++ {
					for k := 0; k < 8; k++ {
						swapped[sumAt(sw, w-1-lane, k)] = lanes0[sumAt(sw, lane, k)]
					}
					for row := 0; row < len(sn); row += w {
						sn2[row+w-1-lane], cs2[row+w-1-lane] = sn[row+lane], cs[row+lane]
						if lane%2 == 0 {
							sn2[row+w-1-lane], cs2[row+w-1-lane] = c.rnd(), c.rnd()
						}
					}
				}
				call(swapped, sn2, cs2, 0, bn)
				for lane := 1; lane < w; lane += 2 {
					for k := 0; k < 8; k++ {
						if floatBits(swapped[sumAt(sw, w-1-lane, k)]) != floatBits(want[sumAt(sw, lane, k)]) {
							t.Fatalf("%s: pixel of lane %d changed sum %d when moved to lane %d", what, lane, k, w-1-lane)
						}
					}
				}
			}
		}
	})
}

// TestPhaseStagersBoundsAndTranscription: stagePIdx and stageArgs of
// every form stay inside their buffers and equal the Go expressions
// they replace bit for bit, for pixel counts on both sides of every
// register boundary, with signed zeros, subnormals and arguments around
// 1e6 rad among the inputs, with and without an offset table, in place
// and strided.
func TestPhaseStagersBoundsAndTranscription(t *testing.T) {
	forEachWidth(t, func(t *testing.T, d *simdDispatch) {
		special := []float64{0, math.Copysign(0, -1), 5e-324, -2.5e-310, 1e6, -1e6, 1}
		for npix := 1; npix <= 33; npix++ {
			for _, nt := range []int{1, 2, 5} {
				what := fmt.Sprintf("npix=%d nt=%d", npix, nt)
				c := &canaried{rnd: newTestRand(uint64(60*npix + nt))}
				l, m, n, off := c.buf(npix), c.buf(npix), c.buf(npix), c.buf(npix)
				uvw := c.buf(3 * nt)
				// Specials in every operand position: zero products of both
				// signs, subnormal products and sums, large arguments.
				for i := 0; i < npix; i++ {
					l[i] *= special[i%len(special)]
					m[i] *= special[(i/2)%len(special)]
					off[i] *= special[(i+3)%len(special)]
				}
				for r := 0; r < nt; r++ {
					uvw[3*r+r%3] *= special[(r+4)%len(special)]
				}
				pIdx := c.buf(npix * nt)
				wantIdx := make([]float64, npix*nt)
				for r := 0; r < nt; r++ {
					u, v, w := uvw[3*r], uvw[3*r+1], uvw[3*r+2]
					for i := 0; i < npix; i++ {
						wantIdx[r*npix+i] = float64(u*l[i]) + float64(v*m[i]) + float64(w*n[i])
					}
				}
				stagePIdxOf(d, &pIdx[0], &l[0], &m[0], &n[0], npix, &uvw[0], nt)
				c.check(t, "stagePIdx "+what)
				requireBitwise(t, "stagePIdx "+what, pIdx, wantIdx)

				for _, scale := range []float64{3.25e-3, -1e6, 0, 5e-324} {
					// Rows a few doubles apart, the gap canaried.
					pitch := npix + 3
					arg := c.buf(pitch*(nt-1) + npix)
					before := append([]float64(nil), arg...)
					wantArg := append([]float64(nil), arg...)
					wantDelta := make([]float64, npix*nt)
					for r := 0; r < nt; r++ {
						for i := 0; i < npix; i++ {
							wantArg[r*pitch+i] = float64(pIdx[r*npix+i]*scale) - off[i]
							wantDelta[r*npix+i] = pIdx[r*npix+i] * scale
						}
					}
					stageArgsOf(d, &arg[0], 8*pitch, &pIdx[0], &off[0], scale, npix, nt)
					c.check(t, "stageArgs "+what)
					requireBitwise(t, fmt.Sprintf("stageArgs %s scale=%g", what, scale), arg, wantArg)
					for r := 0; r < nt-1; r++ {
						requireBitwise(t, "stageArgs row gap "+what, arg[r*pitch+npix:(r+1)*pitch], before[r*pitch+npix:(r+1)*pitch])
					}
					// No offset table, in place.
					delta := c.buf(npix * nt)
					copy(delta, pIdx)
					stageArgsOf(d, &delta[0], 8*npix, &delta[0], nil, scale, npix, nt)
					c.check(t, "stageArgs in place "+what)
					requireBitwise(t, fmt.Sprintf("stageArgs %s scale=%g, no offsets", what, scale), delta, wantDelta)
				}
			}
		}
	})
}

// pairTree is the fused kernels' lane fold, a pairwise tree over adjacent
// lanes (REDUCE8, FOLD4_PD, FOLD8_PS) — for sixteen lanes after folding
// the halves onto each other, m(i) = l(i) + l(i+8) (REDUCE16).
func pairTree[F floatT](l []F) F {
	switch len(l) {
	case 1:
		return l[0]
	case 16:
		var m [8]F
		for i := range m {
			m[i] = l[i] + l[i+8]
		}
		return pairTree(m[:])
	}
	return pairTree(l[:len(l)/2]) + pairTree(l[len(l)/2:])
}

// rotConjAccRef is the scalar transcription of the fused degridder
// kernels: per channel, pixel i accumulates into lane i mod lanes with
// FUSED_VEC's FMA sequence, the lanes fold in the kernel's order and add
// once into dst, and the phasors advance with its rotation. fma is the
// lanes' multiply-add (laneFMA).
func rotConjAccRef[F floatT](dst, phRe, phIm, dRe, dIm []F, planes *[8][]F, n, nch, lanes int, fma func(a, b, c F) F) {
	for c := 0; c < nch; c++ {
		var acc [8][16]F
		for i := 0; i < n; i++ {
			lane := i % lanes
			cr, pi := phRe[i], phIm[i]
			for p := 0; p < 4; p++ {
				vr, vi := planes[2*p][i], planes[2*p+1][i]
				acc[2*p][lane] = fma(vr, cr, acc[2*p][lane])
				acc[2*p][lane] = fma(vi, pi, acc[2*p][lane])
				acc[2*p+1][lane] = fma(-vr, pi, acc[2*p+1][lane])
				acc[2*p+1][lane] = fma(vi, cr, acc[2*p+1][lane])
			}
			if c < nch-1 { // no rotation after the last channel
				phIm[i] = fma(cr, dIm[i], F(pi*dRe[i]))
				phRe[i] = fma(-pi, dIm[i], F(cr*dRe[i]))
			}
		}
		for k := range acc {
			dst[8*c+k] += pairTree(acc[k][:lanes])
		}
	}
}

// TestRotConjAccOctsBlk64BoundsAndTranscription sweeps the float64 fused
// degridder kernel of every form over pixel counts on both sides of
// every register boundary (the masked tail) and chunk depths from one
// channel up, against the scalar transcription: sums, and the phasor
// state the sweep leaves behind.
func TestRotConjAccOctsBlk64BoundsAndTranscription(t *testing.T) {
	testRotConjAccBlk[float64](t, []int{1, 2, 5, 16})
}

// TestRotConjAccBlk32BoundsAndTranscription is the same for the float32
// kernels — every residue of n, tiles of fewer pixels than a register,
// one channel up to a whole resync chunk.
func TestRotConjAccBlk32BoundsAndTranscription(t *testing.T) {
	testRotConjAccBlk[float32](t, []int{1, 2, 3, 63, 64})
}

func testRotConjAccBlk[F floatT](t *testing.T, nchs []int) {
	forEachWidth(t, func(t *testing.T, d *simdDispatch) {
		fma := laneFMA[F](d)
		lanes := d.lanes * 8 / int(unsafe.Sizeof(F(0)))
		for n := 1; n <= 4*lanes+1; n++ {
			for _, nch := range nchs {
				what := fmt.Sprintf("lanes=%d n=%d nch=%d", lanes, n, nch)
				c := &canaried{rnd: newTestRand(uint64(40*n + nch))}
				phRe, phIm := canaryBuf[F](c, n), canaryBuf[F](c, n)
				dRe, dIm := canaryBuf[F](c, n), canaryBuf[F](c, n)
				// Delta phasors of unit modulus, as the degridder's are: the
				// state stays finite over a whole chunk of rotations.
				for i := range dRe {
					s, co := math.Sincos(float64(dIm[i]))
					dRe[i], dIm[i] = F(co), F(s)
				}
				// The planes sit at a fixed pitch inside one block, like the
				// degridder's planar arena; the tile is its first n pixels.
				pitch := n + 3
				block := canaryBuf[F](c, 7*pitch+n)
				var planes [8][]F
				for j := range planes {
					planes[j] = block[j*pitch : j*pitch+n]
					for g := j*pitch + n; g < (j+1)*pitch && g < len(block); g++ {
						block[g] = F(math.Float64frombits(canaryBits)) // a read past the tile's n poisons a sum
					}
				}
				dst := canaryBuf[F](c, 8*nch)
				want := append([]F(nil), dst...)
				wRe, wIm := append([]F(nil), phRe...), append([]F(nil), phIm...)
				rotConjAccRef(want, wRe, wIm, dRe, dIm, &planes, n, nch, lanes, fma)
				rotConjAccBlk(&dst[0], &phRe[0], &phIm[0], &dRe[0], &dIm[0],
					&block[0], int(unsafe.Sizeof(F(0)))*pitch, n, nch, d.scalar, d.zmm)
				c.check(t, what)
				requireBitwise(t, what+" sums", dst, want)
				requireBitwise(t, what+" phRe", phRe, wRe)
				requireBitwise(t, what+" phIm", phIm, wIm)
			}
		}
	})
}

// TestPixelLanesShapes pins which items run the pixel-lane tiles, in
// either precision and both directions: on every tier every shape — any
// channel count, uniform comb or not, recurrence enabled or not.
func TestPixelLanesShapes(t *testing.T) {
	const sg = 8
	vector := map[Precision]string{Float64: obs.MetricKernelPathVector, Float32: obs.MetricKernelPathVector32}
	for _, tier := range coreHostTiers() {
		for _, prec := range []Precision{Float64, Float32} {
			for _, sh := range shortAndUniformShapes(3, 3, 16, 66) {
				ob := obs.New(0)
				k := tilingKernels(t, sg, sh.nc, func(p *Params) {
					p.Precision, p.Observer = prec, ob
					sh.mod(p)
					forceTier(tier)(p)
				})
				item, uvw, vis, _ := tilingItem(131, sh.nt, sh.nc)
				out := grid.NewSubgrid(sg, item.X0, item.Y0)
				k.GridSubgrid(item, uvw, vis, nil, nil, out)
				k.DegridSubgrid(item, out, uvw, nil, nil, vis)
				if got := ob.Metrics.Snapshot().Counters[vector[prec]]; got != 2 {
					t.Errorf("%v %v %s: %s = %d, want 2", tier, prec, sh.name, vector[prec], got)
				}
			}
		}
	}
}

// shortShapes are the item shapes that stage a base row per channel and
// rotate nothing: one and two channels, a non-uniform comb, a uniform
// comb with the recurrence disabled.
type itemShape struct {
	name   string
	nt, nc int
	mod    func(*Params)
}

var shortShapes = []itemShape{
	{"one channel", 9, 1, func(*Params) {}},
	{"two channels", 8, 2, func(*Params) {}},
	{"non-uniform comb", 7, len(nonUniformComb), func(p *Params) { p.Frequencies = nonUniformComb }},
	{"recurrence disabled", 6, 16, func(p *Params) { p.disablePhasorRecurrence = true }},
}

// shortAndUniformShapes is shortShapes followed by uniform combs of nt
// time steps with the given channel counts.
func shortAndUniformShapes(nt int, ncs ...int) []itemShape {
	shapes := append([]itemShape(nil), shortShapes...)
	for _, nc := range ncs {
		shapes = append(shapes, itemShape{fmt.Sprintf("nc=%d", nc), nt, nc, func(*Params) {}})
	}
	return shapes
}

// TestPixelLanes32Decomposition: on every tier the float32 pixel-lane
// gridder's result does not depend on the tile height (one,
// three and all rows of an 18-pixel subgrid: tiles of 18, 54 and 324
// pixels, none a multiple of a 32-pixel group, the first none of an
// 8-pixel one), the visibility block depth, or whether the tiles run on
// one worker or four — below, at and across the resync boundary, with
// and without a channel tail, and for the shapes that stage a row per
// channel.
func TestPixelLanes32Decomposition(t *testing.T) {
	const sg = 18
	for _, tier := range coreHostTiers() {
		for _, sh := range shortAndUniformShapes(7, 3, 5, 8, 16, 37, 64, 66, 130) {
			nt, nc := sh.nt, sh.nc
			item, uvw, vis, _ := tilingItem(71, nt, nc)
			run := func(rows, block, workers int) *grid.Subgrid {
				k := tilingKernels(t, sg, nc, func(p *Params) {
					p.Precision = Float32
					p.pixelTileRows, p.visBlockTimesteps, p.Workers = rows, block, workers
					sh.mod(p)
					forceTier(tier)(p)
				})
				out := grid.NewSubgrid(sg, item.X0, item.Y0)
				k.GridSubgrid(item, uvw, vis, nil, nil, out)
				return out
			}
			want := run(0, 0, 1)
			for _, rows := range []int{1, 3, sg} {
				for _, block := range []int{1, 3, nt} {
					for _, workers := range []int{1, 4} {
						if !subgridsEqual(want, run(rows, block, workers)) {
							t.Fatalf("%v %s: result depends on the decomposition (tile rows %d, block %d, workers %d)", tier, sh.name, rows, block, workers)
						}
					}
				}
			}
		}
	}
}

// TestFloat32DegridderTiersBitwise: what the avx512 tier's float32
// degridder shares with the avx2 tier's, as bits, on an 18-pixel subgrid
// (four-row tiles of 72 and 36 pixels: a masked half register on both tiers, a
// masked quarter ZMM and a masked half YMM). Both tiers run the fused
// kernel with one per-lane text, so their phasors are the same bits: a
// subgrid with one lit pixel predicts conj(phasor) * pixel with nothing
// to reassociate, so its visibilities are bitwise equal — for a pixel in
// a whole register, in a masked tail, in the last tile. On a random
// subgrid the sums differ by the association of the lane fold, sixteen
// roundings per term at most (measured 0.3 % of that; run with -v).
func TestFloat32DegridderTiersBitwise(t *testing.T) {
	if xmath.ActiveSIMD() < xmath.SIMDAVX512 {
		t.Skip("AVX-512 kernels unavailable on this CPU or tier")
	}
	const sg = 18
	degrid := func(nt, nc int, in *grid.Subgrid, mod func(*Params)) (wide, narrow []xmath.Matrix2) {
		item, uvw, _, _ := tilingItem(73, nt, nc)
		var got [2][]xmath.Matrix2
		for i, tier := range []xmath.SIMDTier{xmath.SIMDAVX512, xmath.SIMDAVX2} {
			k := tilingKernels(t, sg, nc, func(p *Params) {
				p.Precision, p.pixelTileRows = Float32, 4
				forceTier(tier)(p)
				mod(p)
			})
			got[i] = make([]xmath.Matrix2, nt*nc)
			k.DegridSubgrid(item, in, uvw, nil, nil, got[i])
		}
		return got[0], got[1]
	}
	item, _, _, _ := tilingItem(73, 6, 1)
	random, pixAmp := randomSubgrid(sg, item, 79)
	for _, sh := range shortAndUniformShapes(6, 5, 16, 37, 66) {
		for _, pixel := range []int{0, 37, 70, 16*sg + 20} {
			lit := grid.NewSubgrid(sg, item.X0, item.Y0)
			for p := range lit.Data {
				lit.Data[p][pixel] = complex(0.75+float64(p), -0.5)
			}
			if wide, narrow := degrid(sh.nt, sh.nc, lit, sh.mod); !visEqual(wide, narrow) {
				t.Errorf("%s: the phasors of pixel %d differ between avx512 and avx2", sh.name, pixel)
			}
		}
		wide, narrow := degrid(sh.nt, sh.nc, random, sh.mod)
		d, tol := maxVisDiff(wide, narrow), 16*float64(sg*sg)*math.Sqrt2*pixAmp*0x1p-24
		t.Logf("%s: ZMM against YMM %.3g, %.2g of the reassociation bound", sh.name, d, d/tol)
		if d > tol || d == 0 {
			t.Errorf("%s: float32 degridder avx512 against avx2 differs by %g, want reassociation only (0 < d <= %g)", sh.name, d, tol)
		}
	}
}
