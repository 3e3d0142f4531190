//go:build !amd64

package xmath

// hasCBflyASM is false off amd64: the lane helpers run their Go bodies.
const hasCBflyASM = false

// The assembled routines below are never called: every dispatch checks
// hasCBflyASM first.
const noASM = "xmath: assembled lane routine called off amd64"

func r4StageTwW(x *complex128, n, h int, tw1, tw2 *complex128, inverse, zmm bool) { panic(noASM) }
func r4ColsStageW(x *complex128, n, h, w, nl int, tw1, tw2 *complex128, inverse, zmm bool) {
	panic(noASM)
}
func dft4W(x *complex128, n int, inverse, zmm bool)                { panic(noASM) }
func addSubW(a, b, x, y *complex128, n int, zmm bool)              { panic(noASM) }
func scaleW(dst, src *complex128, n int, s0, s1 float64, zmm bool) { panic(noASM) }
func bfly2W(dst *complex128, ds int, src *complex128, ss, n int, tw complex128, zmm bool) {
	panic(noASM)
}
func bfly3W(dst *complex128, ds int, src *complex128, ss, n int, w1, w2 complex128, inverse, zmm bool) {
	panic(noASM)
}
func bfly3StageScaledW(dst *complex128, ds int, src *complex128, ss, n, m int, tw *complex128, inverse bool, s0, s1 float64, alt, zmm bool) {
	panic(noASM)
}
func bfly3StageTW(dst *complex128, dl int, src *complex128, ss, n, m int, tw *complex128, inverse, zmm bool) {
	panic(noASM)
}
func dft8W(dst *complex128, ds int, src *complex128, ss, n int, inverse, zmm bool) { panic(noASM) }
func transposeW(dst *complex128, ds int, src *complex128, ss, na, nb, mode int, zmm bool) {
	panic(noASM)
}
func permGather(dst, src *complex128, perm *int32, n int, neg, addSub bool) { panic(noASM) }
