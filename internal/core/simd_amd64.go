//go:build amd64

package core

import (
	"unsafe"

	"repro/internal/uvwsim"
)

// haveVectorASM gates the hand-vectorized tile kernel bodies: the YMM
// routines in kernels_amd64.s and the ZMM ones in
// kernels_avx512_amd64.s. Whether they actually run is decided per
// Kernels value by the runtime dispatch table (dispatch.go): the
// assembled code exists on amd64, but only engages when the active
// xmath.SIMDTier is at least SIMDAVX2, and the ZMM routines only at
// SIMDAVX512.
const haveVectorASM = true

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

// The pixel-lane routines below come in two widths with one contract
// each: the ZMM form (kernels_avx512_amd64.s) and the YMM form
// (kernels_amd64.s), whose group is a quarter of the ZMM one's for the
// gridder and half a register for the rest. Per lane both widths run the
// same operations in the same order. Go calls the W routine, which runs
// the YMM form, or with zmm set jumps into the ZMM one.

// rotAccPixBlk64 is the pixel-lane gridder kernel: sixteen pixels (four
// for the YMM form), one per lane, accumulate nt time steps of nc
// channels into acc, an [8][16]float64 (sum k of lane p at acc[16k+p];
// [8][4] and acc[4k+p] at YMM). sn/cs are the sincos of gridLanesPix's
// staged arguments in rows of sixteen (four) lanes: with rowCh > 1, per
// step a row of per-pixel delta phasors, then one row of base phasors per
// chunk of rowCh channels; with rowCh = 1, per step one base row per
// channel and nothing else. The visibility streams are contiguous over
// (t, c). Lanes never interact, so a pixel's sums do not depend on what
// shares the call, and nt calls of one step give the bits of one call of
// nt.
//
//go:noescape
func rotAccPixBlk64(acc, r0, i0, r1, i1, r2, i2, r3, i3 *float64, nc int, sn, cs *float64, nt, rowCh int)

//go:noescape
func rotAccPixBlk64W(acc, r0, i0, r1, i1, r2, i2, r3, i3 *float64, nc int, sn, cs *float64, nt, rowCh int, zmm bool)

// rotAccPixBlk32 is rotAccPixBlk64 at sixteen float32 lanes per
// register: thirty-two pixels per call (eight at YMM), acc a
// [2][8][16]float32 ([2][8][4]): sum k of lane p at acc[8w*(p/w) + wk +
// p%w] for w = 16 (4). sn/cs are still float64, rows of thirty-two
// (eight) lanes in the same order; the kernel narrows each row
// in-register (VCVTPD2PS, the bits of float32(x)) and rotates and
// accumulates in float32.
//
//go:noescape
func rotAccPixBlk32(acc, r0, i0, r1, i1, r2, i2, r3, i3 *float32, nc int, sn, cs *float64, nt, rowCh int)

//go:noescape
func rotAccPixBlk32W(acc, r0, i0, r1, i1, r2, i2, r3, i3 *float32, nc int, sn, cs *float64, nt, rowCh int, zmm bool)

// stagePIdx stages phase indices: dst[r*npix+i] = U_r*l[i] + V_r*m[i] +
// W_r*n[i] for the nt packed {U, V, W} triples at uvw, bitwise the Go
// expression.
//
//go:noescape
func stagePIdx(dst, l, m, n *float64, npix int, uvw *float64, nt int)

//go:noescape
func stagePIdxW(dst, l, m, n *float64, npix int, uvw *float64, nt int, zmm bool)

// stagePIdx walks a []uvwsim.UVW as packed {U, V, W} float64 triples;
// this fails to compile if the struct ever stops being one.
var _ = [1]struct{}{}[unsafe.Sizeof(uvwsim.UVW{})-24]

// stageArgs turns staged phase indices into phase arguments, nt rows of
// npix (pIdx rows contiguous, arg rows stride bytes apart): arg[i] =
// pIdx[i]*scale - off[i], or pIdx[i]*scale when off is nil; off has one
// entry per pixel. Bitwise the Go expressions; arg may alias pIdx.
//
//go:noescape
func stageArgs(arg *float64, stride int, pIdx, off *float64, scale float64, npix, nt int)

//go:noescape
func stageArgsW(arg *float64, stride int, pIdx, off *float64, scale float64, npix, nt int, zmm bool)

// rotConjAccOctsBlk64 is the degridder's fused rotation and conjugate
// accumulation over the nch channels of one resync chunk, eight pixels
// (four at YMM) per instruction with the tail masked: per
// channel it adds the eight sums over the n pixels (planes re0, im0, re1,
// ... stride bytes apart at planes; each folded
// ((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7)), or (l0+l1)+(l2+l3)) into
// dst[8*c:8*c+8] and advances phRe/phIm in place by dRe/dIm.
//
//go:noescape
func rotConjAccOctsBlk64(dst, phRe, phIm, dRe, dIm, planes *float64, stride, n, nch int)

//go:noescape
func rotConjAccBlk64W(dst, phRe, phIm, dRe, dIm, planes *float64, stride, n, nch int, zmm bool)

// rotConjAccBlk32 is rotConjAccOctsBlk64 at sixteen float32 pixels per
// instruction (eight at YMM). Per channel each of the eight
// sums folds its sixteen lanes as m(i) = l(i) + l(i+8), then
// ((m0+m1)+(m2+m3))+((m4+m5)+(m6+m7)) — its eight lanes as the m — and
// is added once into dst[8*c:8*c+8]; phRe/phIm advance in place.
//
//go:noescape
func rotConjAccBlk32(dst, phRe, phIm, dRe, dIm, planes *float32, stride, n, nch int)

//go:noescape
func rotConjAccBlk32W(dst, phRe, phIm, dRe, dIm, planes *float32, stride, n, nch int, zmm bool)
