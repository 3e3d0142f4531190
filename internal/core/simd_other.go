//go:build !amd64

package core

// haveVectorASM is false off amd64: the generic Go kernels are the
// only implementation, the dispatch table (dispatch.go) never installs
// the vector tiles, and the stubs below are unreachable (their only
// callers sit behind haveVectorASM-gated dispatch entries, so the
// linker drops them).
const haveVectorASM = false

func rotAccQuads(acc, r0, i0, r1, i1, r2, i2, r3, i3 *float64, nq int, ph *float64) {
	panic("core: rotAccQuads without vector kernels")
}

func rotAccQuadsBlk(acc, r0, i0, r1, i1, r2, i2, r3, i3 *float64, nq int, ph *float64, nt int) {
	panic("core: rotAccQuadsBlk without vector kernels")
}

func seedQuadsBlk(ph, s0, c0, ds, dc *float64, ng int) {
	panic("core: seedQuadsBlk without vector kernels")
}

func stageArgsQuad(arg *float64, stride int, l, m, n, uvw *float64, nt int, scale *float64, nc int, uOff, vOff, wOff float64) {
	panic("core: stageArgsQuad without vector kernels")
}

func accQuadsPix(acc, r0, i0, r1, i1, r2, i2, r3, i3, ps, pc *float64, nq, npix, phStride int) {
	panic("core: accQuadsPix without vector kernels")
}

func conjAccQuads(out, phRe, phIm, p0r, p0i, p1r, p1i, p2r, p2i, p3r, p3i *float64, nq int) {
	panic("core: conjAccQuads without vector kernels")
}

func rotQuads(phRe, phIm, dRe, dIm *float64, nq int) {
	panic("core: rotQuads without vector kernels")
}

func rotAccOcts(acc, r0, i0, r1, i1, r2, i2, r3, i3 *float32, no int, ph *float32) {
	panic("core: rotAccOcts without vector kernels")
}

func rotAccOctsBlk(acc, r0, i0, r1, i1, r2, i2, r3, i3 *float32, no int, ph *float32, nt, visAdj, phAdj int) {
	panic("core: rotAccOctsBlk without vector kernels")
}

func seedOctsBlk(ph, s0, c0, ds, dc *float64, ng int) {
	panic("core: seedOctsBlk without vector kernels")
}

func conjAccOcts(out, phRe, phIm, p0r, p0i, p1r, p1i, p2r, p2i, p3r, p3i *float32, no int) {
	panic("core: conjAccOcts without vector kernels")
}

func rotOcts(phRe, phIm, dRe, dIm *float32, no int) {
	panic("core: rotOcts without vector kernels")
}

func foldQuadLanes(sums, vacc *float64, npix int) {
	panic("core: foldQuadLanes without vector kernels")
}

func gridSandwichQuads(out0, out1, out2, out3 *complex128, sums, p, q *float64, stride int, taper *float64, nv int) {
	panic("core: gridSandwichQuads without vector kernels")
}

func gridSandwichOcts(out0, out1, out2, out3 *complex128, sums, p, q *float64, stride int, taper *float64, nv int) {
	panic("core: gridSandwichOcts without vector kernels")
}

func degridSandwichQuads(planes *float64, stride int, in0, in1, in2, in3 *complex128, p, q, taper *float64, nv int) {
	panic("core: degridSandwichQuads without vector kernels")
}

func degridSandwichOcts(planes *float64, stride int, in0, in1, in2, in3 *complex128, p, q, taper *float64, nv int) {
	panic("core: degridSandwichOcts without vector kernels")
}

func rotAccPixBlk64(acc, r0, i0, r1, i1, r2, i2, r3, i3 *float64, nc int, sn, cs *float64, nt, rowCh int) {
	panic("core: rotAccPixBlk64 without vector kernels")
}

func rotAccPixBlk32(acc, r0, i0, r1, i1, r2, i2, r3, i3 *float32, nc int, sn, cs *float64, nt, rowCh int) {
	panic("core: rotAccPixBlk32 without vector kernels")
}

func stagePIdx(dst, l, m, n *float64, npix int, uvw *float64, nt int) {
	panic("core: stagePIdx without vector kernels")
}

func stageArgs(arg *float64, stride int, pIdx, off *float64, scale float64, npix, nt int) {
	panic("core: stageArgs without vector kernels")
}

func rotConjAccOctsBlk64(dst, phRe, phIm, dRe, dIm, planes *float64, stride, n, nch int) {
	panic("core: rotConjAccOctsBlk64 without vector kernels")
}

func rotConjAccBlk32(dst, phRe, phIm, dRe, dIm, planes *float32, stride, n, nch int) {
	panic("core: rotConjAccBlk32 without vector kernels")
}
