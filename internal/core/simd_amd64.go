//go:build amd64

package core

import (
	"unsafe"

	"repro/internal/uvwsim"
)

// haveVectorASM gates the hand-vectorized (AVX2+FMA) tile kernel
// bodies in kernels_amd64.s and kernels32_amd64.s. Whether they
// actually run is decided per Kernels value by the runtime dispatch
// table (dispatch.go): the assembled code exists on amd64, but only
// engages when the active xmath.SIMDTier is at least SIMDAVX2.
const haveVectorASM = true

// rotAccQuads is the gridder's fused rotate-and-accumulate channel
// loop, four float64 channels per iteration; see kernels_amd64.s and
// gridTileVec for the layout contract.
//
//go:noescape
func rotAccQuads(acc, r0, i0, r1, i1, r2, i2, r3, i3 *float64, nq int, ph *float64)

// rotAccQuadsBlk is rotAccQuads blocked over nt time steps of one
// pixel: the accumulators stay in registers across the block and the
// phasor lanes reload from a fresh [10]float64 block per step. The
// visibility streams must be contiguous across steps (nc = 4*nq).
// Bitwise equal to nt separate rotAccQuads calls.
//
//go:noescape
func rotAccQuadsBlk(acc, r0, i0, r1, i1, r2, i2, r3, i3 *float64, nq int, ph *float64, nt int)

// seedQuadsBlk is seedQuadLanes vectorized over time steps: it seeds
// ng*4 consecutive [10]float64 phasor blocks at ph from the planar
// base/delta sincos arrays (s0/c0/ds/dc each hold one value per time
// step). Bitwise equal to 4*ng seedQuadLanes calls; the caller covers
// the nt mod 4 leftover steps with seedQuadLanes.
//
//go:noescape
func seedQuadsBlk(ph, s0, c0, ds, dc *float64, ng int)

// stageArgsQuad stages the direct-phasor gridder's phase arguments for
// four consecutive pixels (l, m, n point at their direction cosines):
// nt*nc arguments per pixel, rows stride bytes apart, from the nt
// {U, V, W} triples at uvw and the nc channel scales. Bitwise equal to
// the scalar staging loop of gridLanesDirect.
//
//go:noescape
func stageArgsQuad(arg *float64, stride int, l, m, n, uvw *float64, nt int, scale *float64, nc int, uOff, vOff, wOff float64)

// stageArgsQuad walks a []uvwsim.UVW as packed {U, V, W} float64
// triples; this fails to compile if the struct ever stops being one.
var _ = [1]struct{}{}[unsafe.Sizeof(uvwsim.UVW{})-24]

// accQuadsPix is the direct-phasor gridder reduction: npix pixels,
// each accumulating the same 4*nq planar visibility samples against
// its own precomputed phasors (ps/pc advance phStride bytes and acc 32
// doubles per pixel); see kernels_amd64.s and gridLanesDirect.
//
//go:noescape
func accQuadsPix(acc, r0, i0, r1, i1, r2, i2, r3, i3, ps, pc *float64, nq, npix, phStride int)

// conjAccQuads is the degridder's conjugate accumulation pixel loop,
// four float64 pixels per iteration.
//
//go:noescape
func conjAccQuads(out, phRe, phIm, p0r, p0i, p1r, p1i, p2r, p2i, p3r, p3i *float64, nq int)

// rotQuads advances four per-pixel phasors per iteration by their
// per-pixel delta phasors (the degridder's rotation pass).
//
//go:noescape
func rotQuads(phRe, phIm, dRe, dIm *float64, nq int)

// rotAccOcts is the float32 analogue of rotAccQuads, eight channels
// per iteration; see kernels32_amd64.s and gridTileVec32 for the
// layout contract.
//
//go:noescape
func rotAccOcts(acc, r0, i0, r1, i1, r2, i2, r3, i3 *float32, no int, ph *float32)

// rotAccOctsBlk is rotAccOcts blocked over nt time steps of one
// pixel: the accumulators stay in registers across the block, the
// phasor lanes reload from a fresh [18]float32 block per step (ph
// advancing phAdj bytes), and the visibility pointers advance visAdj
// bytes between steps. Bitwise equal to nt separate rotAccOcts calls.
//
//go:noescape
func rotAccOctsBlk(acc, r0, i0, r1, i1, r2, i2, r3, i3 *float32, no int, ph *float32, nt, visAdj, phAdj int)

// seedOctsBlk is seedOctLanes vectorized over time steps: it seeds
// ng*4 consecutive [18]float64 phasor blocks at ph from the planar
// base/delta sincos arrays (s0/c0/ds/dc each hold one value per time
// step). Bitwise equal to 4*ng seedOctLanes calls; the caller covers
// the nt mod 4 leftover steps with seedOctLanes.
//
//go:noescape
func seedOctsBlk(ph, s0, c0, ds, dc *float64, ng int)

// conjAccOcts is the float32 analogue of conjAccQuads, eight pixels
// per iteration.
//
//go:noescape
func conjAccOcts(out, phRe, phIm, p0r, p0i, p1r, p1i, p2r, p2i, p3r, p3i *float32, no int)

// rotOcts is the float32 analogue of rotQuads, eight pixels per
// iteration.
//
//go:noescape
func rotOcts(phRe, phIm, dRe, dIm *float32, no int)

// foldQuadLanes reduces the float64 vector gridder's accumulator lanes
// (32 doubles per pixel at vacc) to eight sums per pixel, each
// (l0+l2)+(l1+l3), in planar groups of four pixels: sum j of pixel i at
// sums[32*(i/4)+4*j+i%4].
//
//go:noescape
func foldQuadLanes(sums, vacc *float64, npix int)

// gridSandwichQuads and gridSandwichOcts are the gridder tile epilogue
// for nv whole registers of four (avx2 tier) or eight (avx512 tier)
// pixels: out_c[i] = taper[i] * (P[i]^H S[i] Q[i])_c, S[i] pixel i's
// eight sums in the tier's planar groups (gridSandwich), p and q plane 0
// of the two Jones maps at the first pixel, their planes stride bytes
// apart; p nil: out_c[i] = taper[i] * S[i]_c. Bitwise equal to
// gridSandwichPixel.
//
//go:noescape
func gridSandwichQuads(out0, out1, out2, out3 *complex128, sums, p, q *float64, stride int, taper *float64, nv int)

//go:noescape
func gridSandwichOcts(out0, out1, out2, out3 *complex128, sums, p, q *float64, stride int, taper *float64, nv int)

// degridSandwichQuads and degridSandwichOcts are the degridder prologue
// for nv whole registers of pixels: taper[i] * (P[i] S[i] Q[i]^H), S[i] =
// (in0[i]..in3[i]), or taper[i] * S[i] with p nil, written to eight
// planes (re0, im0, re1, ...) that lie stride bytes apart, as the planes
// of p and q do. Bitwise equal to degridSandwichPixel.
//
//go:noescape
func degridSandwichQuads(planes *float64, stride int, in0, in1, in2, in3 *complex128, p, q, taper *float64, nv int)

//go:noescape
func degridSandwichOcts(planes *float64, stride int, in0, in1, in2, in3 *complex128, p, q, taper *float64, nv int)

// rotAccPixBlk64 is the pixel-lane gridder kernel of the SIMDAVX512
// tier (kernels_avx512_amd64.s, like everything below): sixteen pixels,
// one per lane, accumulate nt time steps of nc channels into acc, an
// [8][16]float64 (sum k of lane p at acc[16k+p]). sn/cs are the sincos
// of gridLanesPix's staged arguments in rows of sixteen lanes: with
// rowCh > 1, per step a row of per-pixel delta phasors, then one row of
// base phasors per chunk of rowCh channels; with rowCh = 1, per step one
// base row per channel and nothing else. The visibility streams are
// contiguous over (t, c). Lanes never interact, so a pixel's sums do not
// depend on what shares the call, and nt calls of one step give the bits
// of one call of nt.
//
//go:noescape
func rotAccPixBlk64(acc, r0, i0, r1, i1, r2, i2, r3, i3 *float64, nc int, sn, cs *float64, nt, rowCh int)

// rotAccPixBlk32 is rotAccPixBlk64 at sixteen float32 lanes per
// register: thirty-two pixels per call, acc a [2][8][16]float32 (sum k
// of lane p at acc[128*(p/16)+16k+p%16]). sn/cs are still float64, rows
// of thirty-two lanes in the same order; the kernel narrows each row
// in-register (VCVTPD2PS, the bits of float32(x)) and rotates and
// accumulates in float32.
//
//go:noescape
func rotAccPixBlk32(acc, r0, i0, r1, i1, r2, i2, r3, i3 *float32, nc int, sn, cs *float64, nt, rowCh int)

// stagePIdx stages phase indices: dst[r*npix+i] = U_r*l[i] + V_r*m[i] +
// W_r*n[i] for the nt packed {U, V, W} triples at uvw, bitwise the Go
// expression.
//
//go:noescape
func stagePIdx(dst, l, m, n *float64, npix int, uvw *float64, nt int)

// stageArgs turns staged phase indices into phase arguments, nt rows of
// npix (pIdx rows contiguous, arg rows stride bytes apart): arg[i] =
// pIdx[i]*scale - off[i], or pIdx[i]*scale when off is nil; off has one
// entry per pixel. Bitwise the Go expressions; arg may alias pIdx.
//
//go:noescape
func stageArgs(arg *float64, stride int, pIdx, off *float64, scale float64, npix, nt int)

// rotConjAccOctsBlk64 is the degridder's fused rotation and conjugate
// accumulation over the nch channels of one resync chunk, eight pixels
// per instruction with the n mod 8 tail masked: per channel it adds the
// eight sums over the n pixels (planes re0, im0, re1, ... stride bytes
// apart at planes; each folded ((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7)))
// into dst[8*c:8*c+8]
// and advances phRe/phIm in place by dRe/dIm.
//
//go:noescape
func rotConjAccOctsBlk64(dst, phRe, phIm, dRe, dIm, planes *float64, stride, n, nch int)

// rotConjAccBlk32 is rotConjAccOctsBlk64 at sixteen float32 pixels per
// instruction, the n mod 16 tail masked. Per channel each of the eight
// sums folds its sixteen lanes as m(i) = l(i) + l(i+8), then
// ((m0+m1)+(m2+m3))+((m4+m5)+(m6+m7)), and is added once into
// dst[8*c:8*c+8]; phRe/phIm advance in place with rotOcts' bits.
//
//go:noescape
func rotConjAccBlk32(dst, phRe, phIm, dRe, dIm, planes *float32, stride, n, nch int)
