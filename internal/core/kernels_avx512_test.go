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

// rotAccOctsRef is the scalar transcription of one time step of
// rotAccOctsBlk64: no oct iterations over the samples from j, the
// lanes advanced by the rotator after each.
func rotAccOctsRef(a []float64, re, im *[4][]float64, j, no int, ph []float64) {
	var ps, pc [8]float64
	copy(ps[:], ph[0:8])
	copy(pc[:], ph[8:16])
	ds8, dc8 := ph[16], ph[17]
	for o := 0; o < no; o++ {
		for lane := 0; lane < 8; lane++ {
			jj := j + 8*o + lane
			for p := 0; p < 4; p++ {
				vr, vi := re[p][jj], im[p][jj]
				a[16*p+lane] = math.FMA(vr, pc[lane], a[16*p+lane])
				a[16*p+lane] = math.FMA(-vi, ps[lane], a[16*p+lane])
				a[16*p+8+lane] = math.FMA(vr, ps[lane], a[16*p+8+lane])
				a[16*p+8+lane] = math.FMA(vi, pc[lane], a[16*p+8+lane])
			}
			s, c := ps[lane], pc[lane]
			ps[lane] = math.FMA(c, ds8, s*dc8)
			pc[lane] = math.FMA(-s, ds8, c*dc8)
		}
	}
}

// TestRotAccOctsBlk64BoundsAndPerStep: the oct gridder kernel stays
// inside its buffers, equals the scalar transcription for both pixels,
// equals bn single-step calls (block depth cannot reach the result),
// and gives a pixel the same bits whichever pixel it is paired with and
// on whichever side of the pair — for the channel counts the tile
// blocks (8, 16, 24, ..., 64) and one oct count beyond.
func TestRotAccOctsBlk64BoundsAndPerStep(t *testing.T) {
	skipWithoutAVX512(t)
	for no := 1; no <= 9; no++ {
		for bn := 1; bn <= 9; bn++ {
			what := fmt.Sprintf("rotAccOctsBlk64 nc=%d bn=%d", 8*no, bn)
			c := &canaried{rnd: newTestRand(uint64(100*no + bn))}
			re, im := visPlanesCanaried(c, 8*no*bn)
			ph := [3][]float64{c.buf(18 * bn), c.buf(18 * bn), c.buf(18 * bn)}
			acc := [3][]float64{c.buf(64), c.buf(64), c.buf(64)}
			var want, perStep, swapped [3][]float64
			for p := range acc {
				want[p] = append([]float64(nil), acc[p]...)
				perStep[p] = append([]float64(nil), acc[p]...)
				swapped[p] = append([]float64(nil), acc[p]...)
			}
			call := func(a0, a1 []float64, p0, p1, j, r, nt int) {
				rotAccOctsBlk64(&a0[0], &a1[0],
					&re[0][j], &im[0][j], &re[1][j], &im[1][j],
					&re[2][j], &im[2][j], &re[3][j], &im[3][j],
					no, &ph[p0][18*r], &ph[p1][18*r], nt)
			}
			for r := 0; r < bn; r++ {
				j := 8 * no * r
				for p := range want {
					rotAccOctsRef(want[p], &re, &im, j, no, ph[p][18*r:])
				}
				call(perStep[0], perStep[1], 0, 1, j, r, 1)
			}
			call(acc[0], acc[1], 0, 1, 0, 0, bn)
			c.check(t, what)
			requireBitwise(t, what+" first pixel", acc[0], want[0])
			requireBitwise(t, what+" second pixel", acc[1], want[1])
			requireBitwise(t, what+" first pixel against per-step calls", acc[0], perStep[0])
			requireBitwise(t, what+" second pixel against per-step calls", acc[1], perStep[1])
			// Pixel 0 on the other side of a pair with pixel 2.
			call(swapped[2], swapped[0], 2, 0, 0, 0, bn)
			requireBitwise(t, what+" re-paired pixel", swapped[0], want[0])
			requireBitwise(t, what+" its new neighbour", swapped[2], want[2])
		}
	}
}

func TestFoldOctLanes64BoundsAndTranscription(t *testing.T) {
	skipWithoutAVX512(t)
	for npix := 1; npix <= 9; npix++ {
		what := fmt.Sprintf("foldOctLanes64 npix=%d", npix)
		c := &canaried{rnd: newTestRand(uint64(300 + npix))}
		vacc := c.buf(64 * npix)
		sums := c.buf(8 * npix)
		want := make([]float64, 8*npix)
		for i := range want {
			want[i] = foldOct64Ref(vacc[8*i : 8*i+8])
		}
		foldOctLanes64(&sums[0], &vacc[0], npix)
		c.check(t, what)
		requireBitwise(t, what, sums, want)
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

// TestOctsBlockedShapes is TestQuadsBlockedShapes for the 512-bit form:
// only the avx512 tier, only uniform channels, only whole octs inside
// one resync chunk. An oct tail (12, 20, 36 channels) or a second chunk
// (72, 128) stays on the quad forms, as does everything below the tier.
func TestOctsBlockedShapes(t *testing.T) {
	skipWithoutAVX512(t)
	wide := func(nc int, mod func(*Params)) bool {
		return tilingKernels(t, 8, nc, mod).octsBlocked(nc)
	}
	for _, nc := range []int{8, 16, 24, 40, 64} {
		if !wide(nc, nil) {
			t.Errorf("nc=%d must take the oct kernel on the avx512 tier", nc)
		}
		if wide(nc, forceTier(xmath.SIMDAVX2)) || wide(nc, forceTier(xmath.SIMDScalar)) {
			t.Errorf("nc=%d takes the oct kernel below the avx512 tier", nc)
		}
		if wide(nc, func(p *Params) { p.DisablePhasorRecurrence = true }) {
			t.Errorf("nc=%d takes the oct kernel with the recurrence disabled", nc)
		}
	}
	for _, nc := range []int{1, 2, 4, 12, 20, 21, 36, 66, 72, 128} {
		if wide(nc, nil) {
			t.Errorf("nc=%d must not take the oct kernel", nc)
		}
	}
	if k := tilingKernels(t, 8, 5, func(p *Params) { p.Frequencies = nonUniformComb }); k.octsBlocked(8) {
		t.Error("a non-uniform comb takes the oct kernel")
	}
}
