//go:build amd64

package xmath

// hasCBflyASM gates the assembled radix-4 butterfly loops; callers
// still clamp on the runtime SIMD tier (the loops are VEX-encoded).
const hasCBflyASM = true

// r4StageTwPairs runs a fused radix-4 stage over n contiguous
// complex128 elements, two butterflies per iteration; n must be a
// multiple of 4h and h even, h >= 2. inverse selects w3 = +i*w2.
// cbfly_amd64.s.
//
//go:noescape
func r4StageTwPairs(x *complex128, n, h int, tw1, tw2 *complex128, inverse bool)

// r4ColsPairs applies np pairs of broadcast-twiddle butterflies across
// four lane arrays (2*np elements each). cbfly_amd64.s.
//
//go:noescape
func r4ColsPairs(a, b, c, d *complex128, np int, w1, w2 complex128, inverse bool)

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

// dft4Pairs runs nq twiddle-free 4-point DFTs over contiguous quads,
// one per iteration in two YMM; addSubPairs is AddSubLanes' pair loop.
// bfly3PairsScaled and bfly3PairsT are bfly3Pairs storing scaled or
// transposed. cbfly_amd64.s.
//
//go:noescape
func dft4Pairs(x *complex128, nq int, inverse bool)

//go:noescape
func addSubPairs(a, b, x, y *complex128, np int)

//go:noescape
func bfly3PairsScaled(dst *complex128, ds int, src *complex128, ss, np int, w1, w2 complex128, inverse bool, s0, s1 float64, alt bool)

//go:noescape
func bfly3PairsT(dst *complex128, ds, dl int, src *complex128, ss, np int, w1, w2 complex128, inverse bool)

// The ZMM forms, four lanes per register (cbfly_avx512_amd64.s). The
// routines over n lanes cover a partial last quad under an opmask;
// r4StageTwQuads needs h a multiple of 4, bfly3StageQuadsT and
// transposeQuads whole quads.
//
//go:noescape
func r4StageTwQuads(x *complex128, n, h int, tw1, tw2 *complex128, inverse bool)

//go:noescape
func r4ColsStageQuads(x *complex128, n, h, w int, tw1, tw2 *complex128, inverse bool)

//go:noescape
func dft4Quads(x *complex128, nq int, inverse bool)

//go:noescape
func addSubQuads(a, b, x, y *complex128, n int)

//go:noescape
func scaleQuads(dst, src *complex128, n int, s0, s1 float64)

//go:noescape
func bfly2Quads(dst *complex128, ds int, src *complex128, ss, n int, tw complex128)

//go:noescape
func bfly3Quads(dst *complex128, ds int, src *complex128, ss, n int, w1, w2 complex128, inverse bool)

//go:noescape
func bfly3StageQuadsScaled(dst *complex128, ds int, src *complex128, ss, n, m int, tw *complex128, inverse bool, s0, s1 float64, alt bool)

//go:noescape
func bfly3StageQuadsT(dst *complex128, dl int, src *complex128, ss, nq, m int, tw *complex128, inverse bool)

//go:noescape
func dft8Quads(dst *complex128, ds int, src *complex128, ss, n int, inverse bool)

//go:noescape
func transposeQuads(dst *complex128, ds int, src *complex128, ss, nqa, nqb, mode int)

// permGather is PermGather's loop (VEX-encoded 128-bit, so avx2 and
// up). cbfly_amd64.s.
//
//go:noescape
func permGather(dst, src *complex128, perm *int32, n int, neg, addSub bool)
