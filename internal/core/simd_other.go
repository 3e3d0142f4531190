//go:build !amd64

package core

// haveVectorASM is false off amd64: the dispatch table (dispatch.go)
// pins the scalar tier, whose tiles run the Go bodies of the pixel-lane
// routines (lanes.go) and the per-pixel sandwiches, so the stubs below
// are unreachable.
const haveVectorASM = false

const noVectorKernels = "core: vector kernel without vector kernels"

func gridSandwichQuads(out0, out1, out2, out3 *complex128, sums, p, q *float64, stride int, taper *float64, nv int) {
	panic(noVectorKernels)
}

func gridSandwichOcts(out0, out1, out2, out3 *complex128, sums, p, q *float64, stride int, taper *float64, nv int) {
	panic(noVectorKernels)
}

func degridSandwichQuads(planes *float64, stride int, in0, in1, in2, in3 *complex128, p, q, taper *float64, nv int) {
	panic(noVectorKernels)
}

func degridSandwichOcts(planes *float64, stride int, in0, in1, in2, in3 *complex128, p, q, taper *float64, nv int) {
	panic(noVectorKernels)
}

func rotAccPixBlk64W(acc, r0, i0, r1, i1, r2, i2, r3, i3 *float64, nc int, sn, cs *float64, nt, rowCh int, zmm bool) {
	panic(noVectorKernels)
}

func rotAccPixBlk32W(acc, r0, i0, r1, i1, r2, i2, r3, i3 *float32, nc int, sn, cs *float64, nt, rowCh int, zmm bool) {
	panic(noVectorKernels)
}

func stagePIdxW(dst, l, m, n *float64, npix int, uvw *float64, nt int, zmm bool) {
	panic(noVectorKernels)
}

func stageArgsW(arg *float64, stride int, pIdx, off *float64, scale float64, npix, nt int, zmm bool) {
	panic(noVectorKernels)
}

func rotConjAccBlk64W(dst, phRe, phIm, dRe, dIm, planes *float64, stride, n, nch int, zmm bool) {
	panic(noVectorKernels)
}

func rotConjAccBlk32W(dst, phRe, phIm, dRe, dIm, planes *float32, stride, n, nch int, zmm bool) {
	panic(noVectorKernels)
}
