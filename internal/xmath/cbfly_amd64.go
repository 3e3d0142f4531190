//go:build amd64

package xmath

// hasCBflyASM gates the assembled lane routines; callers still clamp on
// the runtime SIMD tier (the routines are VEX- or EVEX-encoded).
const hasCBflyASM = true

// The W routines are cbfly.go's lane loops, one per routine for both
// vector widths: with zmm set they run four lanes per ZMM (avx512), else
// two per YMM (avx2 and up). The forms over n lanes cover them all at
// ZMM (the last quad under an opmask) and need n even at YMM; r4StageTwW
// needs h a multiple of the lanes, dft4W n a multiple of twice them, and
// bfly3StageTW and transposeW whole registers. n > 0 everywhere. See
// cbfly_amd64.h for the bodies.

//go:noescape
func r4StageTwW(x *complex128, n, h int, tw1, tw2 *complex128, inverse, zmm bool)

// r4ColsStageW runs R4ColsStage over the first nl of the w lanes.
//
//go:noescape
func r4ColsStageW(x *complex128, n, h, w, nl int, tw1, tw2 *complex128, inverse, zmm bool)

//go:noescape
func dft4W(x *complex128, n int, inverse, zmm bool)

//go:noescape
func addSubW(a, b, x, y *complex128, n int, zmm bool)

//go:noescape
func scaleW(dst, src *complex128, n int, s0, s1 float64, zmm bool)

//go:noescape
func bfly2W(dst *complex128, ds int, src *complex128, ss, n int, tw complex128, zmm bool)

//go:noescape
func bfly3W(dst *complex128, ds int, src *complex128, ss, n int, w1, w2 complex128, inverse, zmm bool)

//go:noescape
func bfly3StageScaledW(dst *complex128, ds int, src *complex128, ss, n, m int, tw *complex128, inverse bool, s0, s1 float64, alt, zmm bool)

//go:noescape
func bfly3StageTW(dst *complex128, dl int, src *complex128, ss, n, m int, tw *complex128, inverse, zmm bool)

//go:noescape
func dft8W(dst *complex128, ds int, src *complex128, ss, n int, inverse, zmm bool)

//go:noescape
func transposeW(dst *complex128, ds int, src *complex128, ss, na, nb, mode int, zmm bool)

// permGather is PermGather's loop (VEX-encoded 128-bit, so avx2 and
// up). cbfly_amd64.s.
//
//go:noescape
func permGather(dst, src *complex128, perm *int32, n int, neg, addSub bool)
