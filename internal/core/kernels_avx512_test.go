package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/xmath"
)

// Bounds and transcription tests of the SIMDAVX512 tier's float64
// routines (kernels_avx512_amd64.s), on kernels_asm_test.go's
// conventions: exact-length canary-fenced buffers, results bitwise
// equal to a math.FMA transcription. All of it skips without AVX-512.

func skipWithoutAVX512(t *testing.T) {
	t.Helper()
	if xmath.ActiveSIMD() < xmath.SIMDAVX512 {
		t.Skip("AVX-512 kernels unavailable on this CPU or tier")
	}
}

// foldOct64Ref is REDUCE8's order for one accumulator's eight lanes.
func foldOct64Ref(l []float64) float64 {
	return ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

// rotAccPixRef is the scalar replay of rotAccPixBlk64, one lane at a
// time: per time step the lane's delta phasor, per resync chunk a fresh
// base phasor, per channel the four correlations' FMA pairs and then
// the rotation, all in the kernel's order.
func rotAccPixRef(acc []float64, re, im *[4][]float64, nc int, sn, cs []float64, bn int) {
	nchunks := (nc + xmath.DefaultPhasorResync - 1) / xmath.DefaultPhasorResync
	stride := 16 * (nchunks + 1)
	for lane := 0; lane < 16; lane++ {
		for r := 0; r < bn; r++ {
			ds, dc := sn[r*stride+lane], cs[r*stride+lane]
			var ps, pc float64
			for c := 0; c < nc; c++ {
				if c%xmath.DefaultPhasorResync == 0 {
					o := r*stride + 16*(1+c/xmath.DefaultPhasorResync) + lane
					ps, pc = sn[o], cs[o]
				}
				j := r*nc + c
				for p := 0; p < 4; p++ {
					vr, vi := re[p][j], im[p][j]
					are, aim := &acc[32*p+lane], &acc[32*p+16+lane]
					*are = math.FMA(vr, pc, *are)
					*are = math.FMA(-vi, ps, *are)
					*aim = math.FMA(vr, ps, *aim)
					*aim = math.FMA(vi, pc, *aim)
				}
				ps, pc = math.FMA(ps, dc, pc*ds), math.FMA(pc, dc, -(ps*ds))
			}
		}
	}
}

// TestRotAccPixBlk64BoundsAndReplay: the pixel-lane gridder kernel
// stays inside its buffers and equals the scalar replay bit for bit —
// channel counts below, at and across the resync boundary, with and
// without a tail chunk — equals bn single-step calls (block depth
// cannot reach the result), and gives a pixel the same bits in any lane
// beside any neighbours.
func TestRotAccPixBlk64BoundsAndReplay(t *testing.T) {
	skipWithoutAVX512(t)
	for _, nc := range []int{3, 5, 16, 37, 64, 66, 130} {
		for _, bn := range []int{1, 3, 16} {
			what := fmt.Sprintf("rotAccPixBlk64 nc=%d bn=%d", nc, bn)
			c := &canaried{rnd: newTestRand(uint64(100*nc + bn))}
			re, im := visPlanesCanaried(c, nc*bn)
			stride := 16 * ((nc+xmath.DefaultPhasorResync-1)/xmath.DefaultPhasorResync + 1)
			sn, cs := c.buf(stride*bn), c.buf(stride*bn)
			acc := c.buf(128)
			want := append([]float64(nil), acc...)
			perStep := append([]float64(nil), acc...)
			call := func(a []float64, sn, cs []float64, j, nt int) {
				rotAccPixBlk64(&a[0],
					&re[0][j], &im[0][j], &re[1][j], &im[1][j],
					&re[2][j], &im[2][j], &re[3][j], &im[3][j],
					nc, &sn[0], &cs[0], nt)
			}
			rotAccPixRef(want, &re, &im, nc, sn, cs, bn)
			for r := 0; r < bn; r++ {
				call(perStep, sn[r*stride:], cs[r*stride:], r*nc, 1)
			}
			lanes0 := append([]float64(nil), acc...)
			call(acc, sn, cs, 0, bn)
			c.check(t, what)
			requireBitwise(t, what, acc, want)
			requireBitwise(t, what+" against per-step calls", acc, perStep)

			// Reverse the lanes and replace the even ones with other
			// pixels: the odd pixels must come out as before.
			swapped := make([]float64, 128)
			sn2, cs2 := make([]float64, len(sn)), make([]float64, len(cs))
			for lane := 0; lane < 16; lane++ {
				for k := 0; k < 8; k++ {
					swapped[16*k+15-lane] = lanes0[16*k+lane]
				}
				for row := 0; row < len(sn); row += 16 {
					sn2[row+15-lane], cs2[row+15-lane] = sn[row+lane], cs[row+lane]
					if lane%2 == 0 {
						sn2[row+15-lane], cs2[row+15-lane] = c.rnd(), c.rnd()
					}
				}
			}
			call(swapped, sn2, cs2, 0, bn)
			for lane := 1; lane < 16; lane += 2 {
				for k := 0; k < 8; k++ {
					if math.Float64bits(swapped[16*k+15-lane]) != math.Float64bits(want[16*k+lane]) {
						t.Fatalf("%s: pixel of lane %d changed sum %d when moved to lane %d", what, lane, k, 15-lane)
					}
				}
			}
		}
	}
}

// TestPhaseStagersBoundsAndTranscription: stagePIdx and stageArgs stay
// inside their buffers and equal the Go expressions they replace bit
// for bit, for pixel counts on both sides of every oct boundary, with
// signed zeros, subnormals and arguments around 1e6 rad among the
// inputs, with and without an offset table, in place and strided.
func TestPhaseStagersBoundsAndTranscription(t *testing.T) {
	skipWithoutAVX512(t)
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
					wantIdx[r*npix+i] = u*l[i] + v*m[i] + w*n[i]
				}
			}
			stagePIdx(&pIdx[0], &l[0], &m[0], &n[0], npix, &uvw[0], nt)
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
						wantArg[r*pitch+i] = pIdx[r*npix+i]*scale - off[i]
						wantDelta[r*npix+i] = pIdx[r*npix+i] * scale
					}
				}
				stageArgs(&arg[0], 8*pitch, &pIdx[0], &off[0], scale, npix, nt)
				c.check(t, "stageArgs "+what)
				requireBitwise(t, fmt.Sprintf("stageArgs %s scale=%g", what, scale), arg, wantArg)
				for r := 0; r < nt-1; r++ {
					requireBitwise(t, "stageArgs row gap "+what, arg[r*pitch+npix:(r+1)*pitch], before[r*pitch+npix:(r+1)*pitch])
				}
				// No offset table, in place.
				delta := c.buf(npix * nt)
				copy(delta, pIdx)
				stageArgs(&delta[0], 8*npix, &delta[0], nil, scale, npix, nt)
				c.check(t, "stageArgs in place "+what)
				requireBitwise(t, fmt.Sprintf("stageArgs %s scale=%g, no offsets", what, scale), delta, wantDelta)
			}
		}
	}
}

// rotConjAccOctsRef is the scalar transcription of rotConjAccOctsBlk64:
// per channel, pixel i accumulates into lane i mod 8 with conjAccQuads'
// FMA sequence, the lanes fold in REDUCE8's order and add once into
// dst, and the phasors advance with rotQuads' sequence.
func rotConjAccOctsRef(dst, phRe, phIm, dRe, dIm []float64, planes *[8][]float64, n, nch int) {
	for c := 0; c < nch; c++ {
		var acc [8][8]float64
		for i := 0; i < n; i++ {
			lane := i % 8
			cr, pi := phRe[i], phIm[i]
			for p := 0; p < 4; p++ {
				vr, vi := planes[2*p][i], planes[2*p+1][i]
				acc[2*p][lane] = math.FMA(vr, cr, acc[2*p][lane])
				acc[2*p][lane] = math.FMA(vi, pi, acc[2*p][lane])
				acc[2*p+1][lane] = math.FMA(-vr, pi, acc[2*p+1][lane])
				acc[2*p+1][lane] = math.FMA(vi, cr, acc[2*p+1][lane])
			}
			phIm[i] = math.FMA(cr, dIm[i], pi*dRe[i])
			phRe[i] = math.FMA(-pi, dIm[i], cr*dRe[i])
		}
		for k := range acc {
			dst[8*c+k] += foldOct64Ref(acc[k][:])
		}
	}
}

// TestRotConjAccOctsBlk64BoundsAndTranscription sweeps pixel counts on
// both sides of every oct boundary (the masked tail) and chunk depths
// from one channel up. Besides the transcription, the phasor state must
// equal nch rotQuads passes bit for bit where the quad kernel covers
// the tile, and the sums must agree with conjAccQuads' (a different
// lane count, so a different association) to rounding.
func TestRotConjAccOctsBlk64BoundsAndTranscription(t *testing.T) {
	skipWithoutAVX512(t)
	for n := 1; n <= 33; n++ {
		for _, nch := range []int{1, 2, 5, 16} {
			what := fmt.Sprintf("rotConjAccOctsBlk64 n=%d nch=%d", n, nch)
			c := &canaried{rnd: newTestRand(uint64(40*n + nch))}
			phRe, phIm, dRe, dIm := c.buf(n), c.buf(n), c.buf(n), c.buf(n)
			// The planes sit at a fixed pitch inside one block, like the
			// degridder's planar arena; the tile is its first n pixels.
			pitch := n + 3
			block := c.buf(7*pitch + n)
			var planes [8][]float64
			for j := range planes {
				planes[j] = block[j*pitch : j*pitch+n]
				for g := j*pitch + n; g < (j+1)*pitch && g < len(block); g++ {
					block[g] = math.Float64frombits(canaryBits) // a read past the tile's n poisons a sum
				}
			}
			dst := c.buf(8 * nch)
			want := append([]float64(nil), dst...)
			wRe, wIm := append([]float64(nil), phRe...), append([]float64(nil), phIm...)
			qRe, qIm := append([]float64(nil), phRe...), append([]float64(nil), phIm...)
			quad := append([]float64(nil), dst...)
			rotConjAccOctsRef(want, wRe, wIm, dRe, dIm, &planes, n, nch)
			if n%4 == 0 {
				for ch := 0; ch < nch; ch++ {
					conjAccQuads(&quad[8*ch], &qRe[0], &qIm[0],
						&planes[0][0], &planes[1][0], &planes[2][0], &planes[3][0],
						&planes[4][0], &planes[5][0], &planes[6][0], &planes[7][0], n/4)
					rotQuads(&qRe[0], &qIm[0], &dRe[0], &dIm[0], n/4)
				}
			}
			rotConjAccOctsBlk64(&dst[0], &phRe[0], &phIm[0], &dRe[0], &dIm[0],
				&block[0], 8*pitch, n, nch)
			c.check(t, what)
			requireBitwise(t, what+" sums", dst, want)
			requireBitwise(t, what+" phRe", phRe, wRe)
			requireBitwise(t, what+" phIm", phIm, wIm)
			if n%4 == 0 {
				requireBitwise(t, what+" phRe against rotQuads", phRe, qRe)
				requireBitwise(t, what+" phIm against rotQuads", phIm, qIm)
				for i := range dst {
					// |terms| < 2 each, 4n of them per sum.
					if d := math.Abs(dst[i] - quad[i]); d > 8*float64(n)*0x1p-52 {
						t.Fatalf("%s: sum %d differs from conjAccQuads by %g", what, i, d)
					}
				}
			}
		}
	}
}

// TestPixelLanesShapes pins which items the float64 gridder runs with
// pixels in the lanes: on the avx512 tier every uniform comb from
// phasorMinChannels up — whole octs or not, one resync chunk or several
// — and nothing else; below the tier nothing at all.
func TestPixelLanesShapes(t *testing.T) {
	skipWithoutAVX512(t)
	wide := func(nc int, mod func(*Params)) bool {
		return tilingKernels(t, 8, nc, mod).pixelLanes(nc)
	}
	for nc := 1; nc <= 130; nc++ {
		if got, want := wide(nc, nil), nc >= phasorMinChannels; got != want {
			t.Errorf("nc=%d: pixel lanes = %v on the avx512 tier, want %v", nc, got, want)
		}
		if wide(nc, forceTier(xmath.SIMDAVX2)) || wide(nc, forceTier(xmath.SIMDScalar)) {
			t.Errorf("nc=%d takes the pixel-lane kernel below the avx512 tier", nc)
		}
		if wide(nc, func(p *Params) { p.DisablePhasorRecurrence = true }) {
			t.Errorf("nc=%d takes the pixel-lane kernel with the recurrence disabled", nc)
		}
	}
	if k := tilingKernels(t, 8, 5, func(p *Params) { p.Frequencies = nonUniformComb }); k.pixelLanes(5) {
		t.Error("a non-uniform comb takes the pixel-lane kernel")
	}
}
