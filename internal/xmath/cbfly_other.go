//go:build !amd64

package xmath

// hasCBflyASM is false off amd64: the butterfly helpers run their
// scalar loops.
const hasCBflyASM = false

func r4StageTwPairs(x *complex128, n, h int, tw1, tw2 *complex128) {
	panic("xmath: r4StageTwPairs without AVX")
}

func r4StageTwPairsInv(x *complex128, n, h int, tw1, tw2 *complex128) {
	panic("xmath: r4StageTwPairsInv without AVX")
}

func r4ColsPairs(a, b, c, d *complex128, np int, w1, w2 complex128) {
	panic("xmath: r4ColsPairs without AVX")
}

func r4ColsPairsInv(a, b, c, d *complex128, np int, w1, w2 complex128) {
	panic("xmath: r4ColsPairsInv without AVX")
}

func bfly2Pairs(dst *complex128, ds int, src *complex128, ss, np int, tw complex128) {
	panic("xmath: bfly2Pairs without AVX")
}

func bfly3Pairs(dst *complex128, ds int, src *complex128, ss, np int, w1, w2 complex128, inverse bool) {
	panic("xmath: bfly3Pairs without AVX")
}

func dft8Pairs(dst *complex128, ds int, src *complex128, ss, np int, inverse bool) {
	panic("xmath: dft8Pairs without AVX")
}

func scalePairs(dst, src *complex128, np int, s0, s1 float64) {
	panic("xmath: scalePairs without AVX")
}

func transposePairs(dst *complex128, ds int, src *complex128, ss, npa, npb, mode int) {
	panic("xmath: transposePairs without AVX")
}
