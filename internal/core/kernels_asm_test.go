package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/uvwsim"
	"repro/internal/xmath"
)

// Bounds and transcription tests of the float64 gridder's assembly
// routines. Every buffer handed to a routine is cut out of a larger
// allocation so that it ends exactly where a run of NaN canaries
// begins: a store past the end changes a canary's bits, a load past
// the end (or at a wrong stride) feeds a NaN into the result, and the
// result must equal a scalar Go transcription of the routine bit for
// bit — math.FMA is the same single rounding as the vector FMAs.

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

// visPlanesCanaried builds the eight planar visibility streams of n
// samples each.
func visPlanesCanaried(c *canaried, n int) (re, im [4][]float64) {
	for p := 0; p < 4; p++ {
		re[p], im[p] = c.buf(n), c.buf(n)
	}
	return re, im
}

// accQuadRef is the scalar transcription of one quad iteration of the
// accumulate kernels: samples j..j+3 against the lane phasors ps/pc.
func accQuadRef(a []float64, re, im *[4][]float64, j int, ps, pc []float64) {
	for lane := 0; lane < 4; lane++ {
		for p := 0; p < 4; p++ {
			vr, vi := re[p][j+lane], im[p][j+lane]
			a[8*p+lane] = math.FMA(vr, pc[lane], a[8*p+lane])
			a[8*p+lane] = math.FMA(-vi, ps[lane], a[8*p+lane])
			a[8*p+4+lane] = math.FMA(vr, ps[lane], a[8*p+4+lane])
			a[8*p+4+lane] = math.FMA(vi, pc[lane], a[8*p+4+lane])
		}
	}
}

// rotAccQuadsRef is the scalar transcription of rotAccQuads: nq quad
// iterations with the lanes advanced by the rotator after each.
func rotAccQuadsRef(a []float64, re, im *[4][]float64, j, nq int, ph []float64) {
	var ps, pc [4]float64
	copy(ps[:], ph[0:4])
	copy(pc[:], ph[4:8])
	ds4, dc4 := ph[8], ph[9]
	for q := 0; q < nq; q++ {
		accQuadRef(a, re, im, j+4*q, ps[:], pc[:])
		for lane := 0; lane < 4; lane++ {
			s, c := ps[lane], pc[lane]
			ps[lane] = math.FMA(c, ds4, s*dc4)
			pc[lane] = math.FMA(-s, ds4, c*dc4)
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

func skipWithoutVectorKernels(t *testing.T) {
	t.Helper()
	if dispatchFor(xmath.ActiveSIMD()).gridVec64 == nil {
		t.Skip("vector kernels unavailable on this CPU")
	}
}

func TestAccQuadsPixBoundsAndTranscription(t *testing.T) {
	skipWithoutVectorKernels(t)
	for nq := 1; nq <= 17; nq++ {
		for npix := 1; npix <= 9; npix++ {
			for _, tail := range []int{0, 1, 3} {
				what := fmt.Sprintf("accQuadsPix nq=%d npix=%d tail=%d", nq, npix, tail)
				c := &canaried{rnd: newTestRand(uint64(1000*nq + 10*npix + tail))}
				n := 4*nq + tail // phasor row pitch; the kernel reads 4*nq of each row
				re, im := visPlanesCanaried(c, 4*nq)
				ps := c.buf((npix-1)*n + 4*nq)
				pc := c.buf((npix-1)*n + 4*nq)
				acc := c.buf(32 * npix)
				want := append([]float64(nil), acc...)
				for p := 0; p < npix; p++ {
					for q := 0; q < nq; q++ {
						accQuadRef(want[32*p:32*p+32], &re, &im, 4*q, ps[p*n+4*q:], pc[p*n+4*q:])
					}
				}
				accQuadsPix(&acc[0],
					&re[0][0], &im[0][0], &re[1][0], &im[1][0],
					&re[2][0], &im[2][0], &re[3][0], &im[3][0],
					&ps[0], &pc[0], nq, npix, 8*n)
				c.check(t, what)
				requireBitwise(t, what, acc, want)
			}
		}
	}
}

// TestRotAccQuadsBlkBoundsAndPerStep: the blocked kernel stays inside
// its buffers, equals the scalar transcription, and equals bn separate
// rotAccQuads calls bit for bit — for the channel counts the tile
// blocks (4, 8, 16, 64) and every other quad count up to 17.
func TestRotAccQuadsBlkBoundsAndPerStep(t *testing.T) {
	skipWithoutVectorKernels(t)
	for nq := 1; nq <= 17; nq++ {
		for bn := 1; bn <= 9; bn++ {
			what := fmt.Sprintf("rotAccQuadsBlk nc=%d bn=%d", 4*nq, bn)
			c := &canaried{rnd: newTestRand(uint64(100*nq + bn))}
			re, im := visPlanesCanaried(c, 4*nq*bn)
			ph := c.buf(10 * bn)
			acc := c.buf(32)
			want := append([]float64(nil), acc...)
			perStep := append([]float64(nil), acc...)
			for r := 0; r < bn; r++ {
				j := 4 * nq * r
				rotAccQuadsRef(want, &re, &im, j, nq, ph[10*r:])
				rotAccQuads(&perStep[0],
					&re[0][j], &im[0][j], &re[1][j], &im[1][j],
					&re[2][j], &im[2][j], &re[3][j], &im[3][j],
					nq, &ph[10*r])
			}
			rotAccQuadsBlk(&acc[0],
				&re[0][0], &im[0][0], &re[1][0], &im[1][0],
				&re[2][0], &im[2][0], &re[3][0], &im[3][0],
				nq, &ph[0], bn)
			c.check(t, what)
			requireBitwise(t, what, acc, want)
			requireBitwise(t, what+" against per-step rotAccQuads", acc, perStep)
		}
	}
}

// TestQuadsBlockedShapes pins which channel counts take the blocked
// kernel: a channel tail (18, 21, 66) or a second resync chunk (68,
// 128) must stay on per-step calls or direct phasors, because a
// blocked sweep over them would reorder the per-lane accumulation.
func TestQuadsBlockedShapes(t *testing.T) {
	for _, nc := range []int{4, 8, 16, 20, 64} {
		if !quadsBlocked(nc) {
			t.Errorf("nc=%d must take the blocked kernel", nc)
		}
	}
	for _, nc := range []int{1, 2, 3, 5, 18, 21, 66, 68, 128} {
		if quadsBlocked(nc) {
			t.Errorf("nc=%d must not take the blocked kernel", nc)
		}
	}
}

func TestSeedQuadsBlkBoundsAndTranscription(t *testing.T) {
	skipWithoutVectorKernels(t)
	for ng := 1; ng <= 5; ng++ {
		what := fmt.Sprintf("seedQuadsBlk ng=%d", ng)
		c := &canaried{rnd: newTestRand(uint64(7 + ng))}
		s0, c0, ds, dc := c.buf(4*ng), c.buf(4*ng), c.buf(4*ng), c.buf(4*ng)
		ph := c.buf(40 * ng)
		want := make([]float64, 40*ng)
		for r := 0; r < 4*ng; r++ {
			seedQuadLanes((*[10]float64)(want[10*r:]), s0[r], c0[r], ds[r], dc[r])
		}
		seedQuadsBlk(&ph[0], &s0[0], &c0[0], &ds[0], &dc[0], ng)
		c.check(t, what)
		requireBitwise(t, what, ph, want)
	}
}

func TestStageArgsQuadBoundsAndTranscription(t *testing.T) {
	skipWithoutVectorKernels(t)
	for nt := 1; nt <= 9; nt++ {
		for nc := 1; nc <= 17; nc++ {
			what := fmt.Sprintf("stageArgsQuad nt=%d nc=%d", nt, nc)
			c := &canaried{rnd: newTestRand(uint64(50*nt + nc))}
			l, m, nn := c.buf(4), c.buf(4), c.buf(4)
			scale := c.buf(nc)
			// The uvw triples are read through a *float64 to their first
			// field; lay them out the way the slice does.
			flat := c.buf(3 * nt)
			uvw := make([]uvwsim.UVW, nt)
			for i := range uvw {
				uvw[i] = uvwsim.UVW{U: flat[3*i], V: flat[3*i+1], W: flat[3*i+2]}
			}
			uOff, vOff, wOff := c.rnd(), c.rnd(), c.rnd()
			n := nt * nc
			arg := c.buf(4 * n)
			want := make([]float64, 4*n)
			for p := 0; p < 4; p++ {
				phaseOffset := twoPi * (uOff*l[p] + vOff*m[p] + wOff*nn[p])
				for ti, c3 := range uvw {
					phaseIndex := c3.U*l[p] + c3.V*m[p] + c3.W*nn[p]
					for ci, sc := range scale {
						want[p*n+ti*nc+ci] = phaseIndex*sc - phaseOffset
					}
				}
			}
			stageArgsQuad(&arg[0], 8*n, &l[0], &m[0], &nn[0], &flat[0], nt, &scale[0], nc, uOff, vOff, wOff)
			c.check(t, what)
			requireBitwise(t, what, arg, want)
		}
	}
}
