//go:build !amd64

package xmath

// hasCBflyASM is false off amd64: the butterfly helpers run their
// scalar loops.
const hasCBflyASM = false

// The assembled loops below are never called: every dispatch checks
// hasCBflyASM first.
const noASM = "xmath: assembled butterfly loop called off amd64"

func r4StageTwPairs(x *complex128, n, h int, tw1, tw2 *complex128, inverse bool)     { panic(noASM) }
func r4ColsPairs(a, b, c, d *complex128, np int, w1, w2 complex128, inverse bool)    { panic(noASM) }
func bfly2Pairs(dst *complex128, ds int, src *complex128, ss, np int, tw complex128) { panic(noASM) }
func bfly3Pairs(dst *complex128, ds int, src *complex128, ss, np int, w1, w2 complex128, inverse bool) {
	panic(noASM)
}
func dft8Pairs(dst *complex128, ds int, src *complex128, ss, np int, inverse bool)    { panic(noASM) }
func scalePairs(dst, src *complex128, np int, s0, s1 float64)                         { panic(noASM) }
func transposePairs(dst *complex128, ds int, src *complex128, ss, npa, npb, mode int) { panic(noASM) }
func dft4Pairs(x *complex128, nq int, inverse bool)                                   { panic(noASM) }
func addSubPairs(a, b, x, y *complex128, np int)                                      { panic(noASM) }
func bfly3PairsScaled(dst *complex128, ds int, src *complex128, ss, np int, w1, w2 complex128, inverse bool, s0, s1 float64, alt bool) {
	panic(noASM)
}
func bfly3PairsT(dst *complex128, ds, dl int, src *complex128, ss, np int, w1, w2 complex128, inverse bool) {
	panic(noASM)
}
func r4StageTwQuads(x *complex128, n, h int, tw1, tw2 *complex128, inverse bool)    { panic(noASM) }
func dft4Quads(x *complex128, nq int, inverse bool)                                 { panic(noASM) }
func addSubQuads(a, b, x, y *complex128, n int)                                     { panic(noASM) }
func scaleQuads(dst, src *complex128, n int, s0, s1 float64)                        { panic(noASM) }
func bfly2Quads(dst *complex128, ds int, src *complex128, ss, n int, tw complex128) { panic(noASM) }
func bfly3Quads(dst *complex128, ds int, src *complex128, ss, n int, w1, w2 complex128, inverse bool) {
	panic(noASM)
}
func bfly3StageQuadsScaled(dst *complex128, ds int, src *complex128, ss, n, m int, tw *complex128, inverse bool, s0, s1 float64, alt bool) {
	panic(noASM)
}
func bfly3StageQuadsT(dst *complex128, dl int, src *complex128, ss, nq, m int, tw *complex128, inverse bool) {
	panic(noASM)
}
func dft8Quads(dst *complex128, ds int, src *complex128, ss, n int, inverse bool)     { panic(noASM) }
func transposeQuads(dst *complex128, ds int, src *complex128, ss, nqa, nqb, mode int) { panic(noASM) }
func permGather(dst, src *complex128, perm *int32, n int, neg, addSub bool)           { panic(noASM) }
func r4ColsStageQuads(x *complex128, n, h, w int, tw1, tw2 *complex128, inverse bool) { panic(noASM) }
