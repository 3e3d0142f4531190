//go:build amd64

package xmath

// hasCBflyASM gates the assembled radix-4 butterfly loops; callers
// still clamp on the runtime SIMD tier (the loops are VEX-encoded).
const hasCBflyASM = true

// r4StageTwPairs runs a fused radix-4 stage over n contiguous
// complex128 elements, two butterflies per iteration; n must be a
// multiple of 4h and h even, h >= 2. cbfly_amd64.s.
//
//go:noescape
func r4StageTwPairs(x *complex128, n, h int, tw1, tw2 *complex128)

// r4StageTwPairsInv is the backward-direction stage (w3 = +i*w2).
//
//go:noescape
func r4StageTwPairsInv(x *complex128, n, h int, tw1, tw2 *complex128)

// r4ColsPairs applies np pairs of broadcast-twiddle butterflies across
// four lane arrays (2*np elements each). cbfly_amd64.s.
//
//go:noescape
func r4ColsPairs(a, b, c, d *complex128, np int, w1, w2 complex128)

// r4ColsPairsInv is the backward-direction broadcast butterfly.
//
//go:noescape
func r4ColsPairsInv(a, b, c, d *complex128, np int, w1, w2 complex128)

// bfly2Pairs, bfly3Pairs and dft8Pairs are the lane-pair loops of
// Bfly2Lanes, Bfly3Lanes and DFT8Lanes: np pairs of lanes of rows ds
// (destination) and ss (source) elements apart. cbfly_amd64.s.
//
//go:noescape
func bfly2Pairs(dst *complex128, ds int, src *complex128, ss, np int, tw complex128)

//go:noescape
func bfly3Pairs(dst *complex128, ds int, src *complex128, ss, np int, w1, w2 complex128, inverse bool)

//go:noescape
func dft8Pairs(dst *complex128, ds int, src *complex128, ss, np int, inverse bool)

// scalePairs and transposePairs are the pair loops of ScaleLanes and
// TransposeLanes. cbfly_amd64.s.
//
//go:noescape
func scalePairs(dst, src *complex128, np int, s0, s1 float64)

//go:noescape
func transposePairs(dst *complex128, ds int, src *complex128, ss, npa, npb, mode int)
