//go:build amd64

#include "textflag.h"

// The hand-vectorized inner loops of the gridder and degridder
// (see simd_amd64.go for the contract and vector layout). All
// routines are leaf functions: NOSPLIT, no calls, VZEROUPPER before
// returning to Go code.

// func rotAccQuads(acc, r0, i0, r1, i1, r2, i2, r3, i3 *float64, nq int, ph *float64)
//
// Gridder channel loop, four channels per iteration. acc points at a
// [32]float64 block: eight accumulators x four lanes, accumulator k's
// lanes at acc[4k:4k+4]. ph points at [10]float64: per-lane phasor
// sin at ph[0:4], cos at ph[4:8], and the four-channel step rotator
// sin/cos at ph[8], ph[9]. The phasor register state is NOT written
// back: callers re-seed per resync chunk.
TEXT ·rotAccQuads(SB), NOSPLIT, $0-88
	MOVQ acc+0(FP), AX
	MOVQ r0+8(FP), SI
	MOVQ i0+16(FP), DI
	MOVQ r1+24(FP), R8
	MOVQ i1+32(FP), R9
	MOVQ r2+40(FP), R10
	MOVQ i2+48(FP), R11
	MOVQ r3+56(FP), R12
	MOVQ i3+64(FP), R13
	MOVQ nq+72(FP), DX
	MOVQ ph+80(FP), BX

	VMOVUPD      (BX), Y0       // ps lanes
	VMOVUPD      32(BX), Y1     // pc lanes
	VBROADCASTSD 64(BX), Y2     // sin(4*delta)
	VBROADCASTSD 72(BX), Y3     // cos(4*delta)

	VMOVUPD (AX), Y4
	VMOVUPD 32(AX), Y5
	VMOVUPD 64(AX), Y6
	VMOVUPD 96(AX), Y7
	VMOVUPD 128(AX), Y8
	VMOVUPD 160(AX), Y9
	VMOVUPD 192(AX), Y10
	VMOVUPD 224(AX), Y11

quadloop:
	VMOVUPD      (SI), Y12      // vr, correlation 0
	VMOVUPD      (DI), Y13      // vi
	VFMADD231PD  Y1, Y12, Y4    // a0 += vr*pc
	VFNMADD231PD Y0, Y13, Y4    // a0 -= vi*ps
	VFMADD231PD  Y0, Y12, Y5    // a1 += vr*ps
	VFMADD231PD  Y1, Y13, Y5    // a1 += vi*pc
	VMOVUPD      (R8), Y12
	VMOVUPD      (R9), Y13
	VFMADD231PD  Y1, Y12, Y6
	VFNMADD231PD Y0, Y13, Y6
	VFMADD231PD  Y0, Y12, Y7
	VFMADD231PD  Y1, Y13, Y7
	VMOVUPD      (R10), Y12
	VMOVUPD      (R11), Y13
	VFMADD231PD  Y1, Y12, Y8
	VFNMADD231PD Y0, Y13, Y8
	VFMADD231PD  Y0, Y12, Y9
	VFMADD231PD  Y1, Y13, Y9
	VMOVUPD      (R12), Y12
	VMOVUPD      (R13), Y13
	VFMADD231PD  Y1, Y12, Y10
	VFNMADD231PD Y0, Y13, Y10
	VFMADD231PD  Y0, Y12, Y11
	VFMADD231PD  Y1, Y13, Y11

	// Advance the phasor lanes by four channels:
	// ps' = ps*dc4 + pc*ds4, pc' = pc*dc4 - ps*ds4.
	VMULPD       Y3, Y0, Y14
	VMULPD       Y3, Y1, Y15
	VFMADD231PD  Y2, Y1, Y14
	VFNMADD231PD Y2, Y0, Y15
	VMOVAPD      Y14, Y0
	VMOVAPD      Y15, Y1

	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	ADDQ $32, R12
	ADDQ $32, R13
	DECQ DX
	JNZ  quadloop

	VMOVUPD Y4, (AX)
	VMOVUPD Y5, 32(AX)
	VMOVUPD Y6, 64(AX)
	VMOVUPD Y7, 96(AX)
	VMOVUPD Y8, 128(AX)
	VMOVUPD Y9, 160(AX)
	VMOVUPD Y10, 192(AX)
	VMOVUPD Y11, 224(AX)
	VZEROUPPER
	RET

// ACC_QUAD_AT_R14 is one quad iteration of the blocked and direct
// accumulate kernels: the four samples at byte offset R14 of the eight
// visibility streams (SI, DI, R8-R13: re/im of correlations 0-3)
// against the phasor lanes Y0 (sin) and Y1 (cos), the same FMA sequence
// as rotAccQuads — per correlation a_re += vr*pc, a_re -= vi*ps,
// a_im += vr*ps, a_im += vi*pc into Y4-Y11. Clobbers Y12, Y13.
#define ACC_QUAD_AT_R14 \
	VMOVUPD      (SI)(R14*1), Y12; \
	VMOVUPD      (DI)(R14*1), Y13; \
	VFMADD231PD  Y1, Y12, Y4; \
	VFNMADD231PD Y0, Y13, Y4; \
	VFMADD231PD  Y0, Y12, Y5; \
	VFMADD231PD  Y1, Y13, Y5; \
	VMOVUPD      (R8)(R14*1), Y12; \
	VMOVUPD      (R9)(R14*1), Y13; \
	VFMADD231PD  Y1, Y12, Y6; \
	VFNMADD231PD Y0, Y13, Y6; \
	VFMADD231PD  Y0, Y12, Y7; \
	VFMADD231PD  Y1, Y13, Y7; \
	VMOVUPD      (R10)(R14*1), Y12; \
	VMOVUPD      (R11)(R14*1), Y13; \
	VFMADD231PD  Y1, Y12, Y8; \
	VFNMADD231PD Y0, Y13, Y8; \
	VFMADD231PD  Y0, Y12, Y9; \
	VFMADD231PD  Y1, Y13, Y9; \
	VMOVUPD      (R12)(R14*1), Y12; \
	VMOVUPD      (R13)(R14*1), Y13; \
	VFMADD231PD  Y1, Y12, Y10; \
	VFNMADD231PD Y0, Y13, Y10; \
	VFMADD231PD  Y0, Y12, Y11; \
	VFMADD231PD  Y1, Y13, Y11

// func rotAccQuadsBlk(acc, r0, i0, r1, i1, r2, i2, r3, i3 *float64, nq int, ph *float64, nt int)
//
// Timestep-blocked rotAccQuads: one call covers nt time steps of one
// pixel, keeping the eight accumulator registers live across the whole
// block instead of round-tripping them through memory per time step.
// Per time step the phasor lanes and the rotator reload from a fresh
// [10]float64 block (ph advances 80 bytes per step) and the channel
// loop runs nq iterations. Only called when one resync chunk covers
// every channel with no tail (nc = 4*nq), so the visibility streams are
// contiguous across steps: R14 is the running byte offset into all
// eight. The arithmetic sequence per (time step, channel) is identical
// to per-step rotAccQuads calls, so results are bitwise equal to the
// unblocked form.
TEXT ·rotAccQuadsBlk(SB), NOSPLIT, $0-96
	MOVQ acc+0(FP), AX
	MOVQ r0+8(FP), SI
	MOVQ i0+16(FP), DI
	MOVQ r1+24(FP), R8
	MOVQ i1+32(FP), R9
	MOVQ r2+40(FP), R10
	MOVQ i2+48(FP), R11
	MOVQ r3+56(FP), R12
	MOVQ i3+64(FP), R13
	MOVQ nq+72(FP), R15
	MOVQ ph+80(FP), BX
	MOVQ nt+88(FP), CX
	XORQ R14, R14

	VMOVUPD (AX), Y4
	VMOVUPD 32(AX), Y5
	VMOVUPD 64(AX), Y6
	VMOVUPD 96(AX), Y7
	VMOVUPD 128(AX), Y8
	VMOVUPD 160(AX), Y9
	VMOVUPD 192(AX), Y10
	VMOVUPD 224(AX), Y11

blktloop:
	VMOVUPD      (BX), Y0       // ps lanes of this time step
	VMOVUPD      32(BX), Y1     // pc lanes
	VBROADCASTSD 64(BX), Y2     // sin(4*delta)
	VBROADCASTSD 72(BX), Y3     // cos(4*delta)
	MOVQ         R15, DX

blkquadloop:
	ACC_QUAD_AT_R14

	// Advance the phasor lanes by four channels (see rotAccQuads).
	VMULPD       Y3, Y0, Y14
	VMULPD       Y3, Y1, Y15
	VFMADD231PD  Y2, Y1, Y14
	VFNMADD231PD Y2, Y0, Y15
	VMOVAPD      Y14, Y0
	VMOVAPD      Y15, Y1

	ADDQ $32, R14
	DECQ DX
	JNZ  blkquadloop

	ADDQ $80, BX
	DECQ CX
	JNZ  blktloop

	VMOVUPD Y4, (AX)
	VMOVUPD Y5, 32(AX)
	VMOVUPD Y6, 64(AX)
	VMOVUPD Y7, 96(AX)
	VMOVUPD Y8, 128(AX)
	VMOVUPD Y9, 160(AX)
	VMOVUPD Y10, 192(AX)
	VMOVUPD Y11, 224(AX)
	VZEROUPPER
	RET

// func seedQuadsBlk(ph, s0, c0, ds, dc *float64, ng int)
//
// Vectorized seedQuadLanes over time steps: each iteration seeds FOUR
// consecutive time steps' 10-wide phasor register blocks from the
// planar base/delta sincos results (s0/c0 hold sin/cos of the channel-0
// phase per step, ds/dc of the per-channel delta). The arithmetic is
// element-wise identical to seedQuadLanes — the same unfused multiply
// and add sequence, four steps per VMULPD/VADDPD/VSUBPD — so results
// are bitwise equal to the scalar Go seeding (2*x is computed as x+x,
// which rounds identically). The caller handles the nt%4 leftover
// steps with seedQuadLanes.
//
// Register map per iteration: Y0-Y1 s0/c0, Y2-Y3 ds/dc, Y10-Y15 lanes
// 1-3 s/c, Y4-Y5 ds2/dc2, Y8-Y9 rotator sin/cos, Y6-Y7 scratch.
// Transposed stores go through VUNPCKL/HPD pairs and 128-bit halves
// (low half via X register, high half via VEXTRACTF128-to-memory).
// Block stride is 10 doubles = 80 bytes.
TEXT ·seedQuadsBlk(SB), NOSPLIT, $0-48
	MOVQ ph+0(FP), DI
	MOVQ s0+8(FP), SI
	MOVQ c0+16(FP), BX
	MOVQ ds+24(FP), R8
	MOVQ dc+32(FP), R9
	MOVQ ng+40(FP), CX

seedloop:
	VMOVUPD (SI), Y0  // s0
	VMOVUPD (BX), Y1  // c0
	VMOVUPD (R8), Y2  // ds
	VMOVUPD (R9), Y3  // dc

	// Lanes 1-3 by single-delta rotations (sk*dc+ck*ds, ck*dc-sk*ds).
	VMULPD Y3, Y0, Y10
	VMULPD Y2, Y1, Y11
	VADDPD Y11, Y10, Y10 // s1
	VMULPD Y3, Y1, Y11
	VMULPD Y2, Y0, Y12
	VSUBPD Y12, Y11, Y11 // c1
	VMULPD Y3, Y10, Y12
	VMULPD Y2, Y11, Y13
	VADDPD Y13, Y12, Y12 // s2
	VMULPD Y3, Y11, Y13
	VMULPD Y2, Y10, Y14
	VSUBPD Y14, Y13, Y13 // c2
	VMULPD Y3, Y12, Y14
	VMULPD Y2, Y13, Y15
	VADDPD Y15, Y14, Y14 // s3
	VMULPD Y3, Y13, Y15
	VMULPD Y2, Y12, Y4
	VSUBPD Y4, Y15, Y15  // c3

	// Double-angle chain: delta -> 2*delta -> 4*delta (the rotator).
	VADDPD Y2, Y2, Y4
	VMULPD Y3, Y4, Y4 // ds2 = (2*ds)*dc
	VMULPD Y3, Y3, Y5
	VMULPD Y2, Y2, Y6
	VSUBPD Y6, Y5, Y5 // dc2 = dc*dc - ds*ds
	VADDPD Y4, Y4, Y8
	VMULPD Y5, Y8, Y8 // rotator sin = (2*ds2)*dc2
	VMULPD Y5, Y5, Y9
	VMULPD Y4, Y4, Y6
	VSUBPD Y6, Y9, Y9 // rotator cos = dc2*dc2 - ds2*ds2

	// Transposed stores: lane sin -> ph[t][0:4] (bytes +0).
	VUNPCKLPD    Y10, Y0, Y2
	VUNPCKHPD    Y10, Y0, Y3
	VUNPCKLPD    Y14, Y12, Y4
	VUNPCKHPD    Y14, Y12, Y5
	VMOVUPD      X2, (DI)
	VMOVUPD      X4, 16(DI)
	VMOVUPD      X3, 80(DI)
	VMOVUPD      X5, 96(DI)
	VEXTRACTF128 $1, Y2, 160(DI)
	VEXTRACTF128 $1, Y4, 176(DI)
	VEXTRACTF128 $1, Y3, 240(DI)
	VEXTRACTF128 $1, Y5, 256(DI)

	// Lane cos -> ph[t][4:8] (bytes +32).
	VUNPCKLPD    Y11, Y1, Y2
	VUNPCKHPD    Y11, Y1, Y3
	VUNPCKLPD    Y15, Y13, Y4
	VUNPCKHPD    Y15, Y13, Y5
	VMOVUPD      X2, 32(DI)
	VMOVUPD      X4, 48(DI)
	VMOVUPD      X3, 112(DI)
	VMOVUPD      X5, 128(DI)
	VEXTRACTF128 $1, Y2, 192(DI)
	VEXTRACTF128 $1, Y4, 208(DI)
	VEXTRACTF128 $1, Y3, 272(DI)
	VEXTRACTF128 $1, Y5, 288(DI)

	// Rotator -> ph[t][8:10] (bytes +64).
	VUNPCKLPD    Y9, Y8, Y2
	VUNPCKHPD    Y9, Y8, Y3
	VMOVUPD      X2, 64(DI)
	VMOVUPD      X3, 144(DI)
	VEXTRACTF128 $1, Y2, 224(DI)
	VEXTRACTF128 $1, Y3, 304(DI)

	ADDQ $32, SI
	ADDQ $32, BX
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $320, DI
	DECQ CX
	JNZ  seedloop

	VZEROUPPER
	RET

// func stageArgsQuad(arg *float64, stride int, l, m, n, uvw *float64, nt int, scale *float64, nc int, uOff, vOff, wOff float64)
//
// Phase-argument staging of the direct-phasor gridder for FOUR
// consecutive pixels at once (lanes = pixels): for every time step t
// (uvw holds nt {U, V, W} triples) and channel c it writes
//
//	phaseIndex*scale[c] - phaseOffset,
//	phaseIndex  = (U*l + V*m) + W*n,
//	phaseOffset = 2*pi * ((uOff*l + vOff*m) + wOff*n)
//
// to arg[p*stride/8 + t*nc + c] for pixel p = 0..3 (stride in bytes).
// Every product and sum is a separate, unfused instruction in the order
// the Go expression evaluates them on amd64, so the arguments are
// bitwise equal to the scalar staging loop in gridLanesDirect, which
// covers the pixels that do not fill a quad.
DATA twoPi<>+0(SB)/8, $0x401921fb54442d18
GLOBL twoPi<>(SB), RODATA|NOPTR, $8

TEXT ·stageArgsQuad(SB), NOSPLIT, $0-96
	MOVQ arg+0(FP), DI
	MOVQ stride+8(FP), DX
	MOVQ l+16(FP), AX
	MOVQ m+24(FP), BX
	MOVQ n+32(FP), CX
	MOVQ uvw+40(FP), SI
	MOVQ nt+48(FP), R8
	MOVQ scale+56(FP), R9
	MOVQ nc+64(FP), R10

	VMOVUPD      (AX), Y0       // l of the four pixels
	VMOVUPD      (BX), Y1       // m
	VMOVUPD      (CX), Y2       // n
	VBROADCASTSD uOff+72(FP), Y4
	VBROADCASTSD vOff+80(FP), Y5
	VBROADCASTSD wOff+88(FP), Y6
	VMULPD       Y0, Y4, Y4
	VMULPD       Y1, Y5, Y5
	VADDPD       Y5, Y4, Y4
	VMULPD       Y2, Y6, Y6
	VADDPD       Y6, Y4, Y4
	VBROADCASTSD twoPi<>(SB), Y3
	VMULPD       Y4, Y3, Y3     // phaseOffset

	// One output row per pixel.
	LEAQ (DI)(DX*1), R11
	LEAQ (DI)(DX*2), R12
	LEAQ (R11)(DX*2), R13

stagetloop:
	VBROADCASTSD (SI), Y4       // U
	VBROADCASTSD 8(SI), Y5      // V
	VBROADCASTSD 16(SI), Y6     // W
	VMULPD       Y0, Y4, Y4
	VMULPD       Y1, Y5, Y5
	VADDPD       Y5, Y4, Y4
	VMULPD       Y2, Y6, Y6
	VADDPD       Y6, Y4, Y4     // phaseIndex
	MOVQ         R9, R14
	MOVQ         R10, R15

stagecloop:
	VBROADCASTSD (R14), Y5
	VMULPD       Y5, Y4, Y5
	VSUBPD       Y3, Y5, Y5     // phaseIndex*scale[c] - phaseOffset
	VEXTRACTF128 $1, Y5, X6
	VMOVLPD      X5, (DI)
	VMOVHPD      X5, (R11)
	VMOVLPD      X6, (R12)
	VMOVHPD      X6, (R13)
	ADDQ         $8, DI
	ADDQ         $8, R11
	ADDQ         $8, R12
	ADDQ         $8, R13
	ADDQ         $8, R14
	DECQ         R15
	JNZ          stagecloop

	ADDQ $24, SI
	DECQ R8
	JNZ  stagetloop

	VZEROUPPER
	RET

// func accQuadsPix(acc, r0, i0, r1, i1, r2, i2, r3, i3, ps, pc *float64, nq, npix, phStride int)
//
// Direct-phasor gridder reduction: the phasors are read from memory
// (one sin/cos pair per visibility sample, evaluated beforehand)
// instead of advancing in registers. One call sweeps npix consecutive
// pixels over the same 4*nq visibility samples: pixel p accumulates
// into the [32]float64 block at acc+256*p (layout as rotAccQuads) with
// the phasors at ps/pc + p*phStride bytes. Sample j lands in lane
// j mod 4 and each lane sees its samples in increasing j, through the
// same FMA sequence as rotAccQuads.
TEXT ·accQuadsPix(SB), NOSPLIT, $0-112
	MOVQ acc+0(FP), AX
	MOVQ r0+8(FP), SI
	MOVQ i0+16(FP), DI
	MOVQ r1+24(FP), R8
	MOVQ i1+32(FP), R9
	MOVQ r2+40(FP), R10
	MOVQ i2+48(FP), R11
	MOVQ r3+56(FP), R12
	MOVQ i3+64(FP), R13
	MOVQ ps+72(FP), BX
	MOVQ pc+80(FP), CX
	MOVQ npix+96(FP), R15

accpixloop:
	VMOVUPD (AX), Y4
	VMOVUPD 32(AX), Y5
	VMOVUPD 64(AX), Y6
	VMOVUPD 96(AX), Y7
	VMOVUPD 128(AX), Y8
	VMOVUPD 160(AX), Y9
	VMOVUPD 192(AX), Y10
	VMOVUPD 224(AX), Y11
	XORQ    R14, R14
	MOVQ    nq+88(FP), DX

accquadloop:
	VMOVUPD      (BX)(R14*1), Y0   // ps of samples j..j+3
	VMOVUPD      (CX)(R14*1), Y1   // pc
	ACC_QUAD_AT_R14

	ADDQ $32, R14
	DECQ DX
	JNZ  accquadloop

	VMOVUPD Y4, (AX)
	VMOVUPD Y5, 32(AX)
	VMOVUPD Y6, 64(AX)
	VMOVUPD Y7, 96(AX)
	VMOVUPD Y8, 128(AX)
	VMOVUPD Y9, 160(AX)
	VMOVUPD Y10, 192(AX)
	VMOVUPD Y11, 224(AX)
	ADDQ    $256, AX
	MOVQ    phStride+104(FP), DX
	ADDQ    DX, BX
	ADDQ    DX, CX
	DECQ    R15
	JNZ     accpixloop

	VZEROUPPER
	RET

// func conjAccQuads(out, phRe, phIm, p0r, p0i, p1r, p1i, p2r, p2i, p3r, p3i *float64, nq int)
//
// Degridder pixel loop, four pixels per iteration: accumulates
// sum_i conj(phasor_i) * pixel_i over 4*nq pixels into the eight
// scalars at out (re/im per correlation). Vector partial sums reduce
// lane 0+1+2+3 on exit and ADD into out.
TEXT ·conjAccQuads(SB), NOSPLIT, $0-96
	MOVQ out+0(FP), AX
	MOVQ phRe+8(FP), BX
	MOVQ phIm+16(FP), CX
	MOVQ p0r+24(FP), SI
	MOVQ p0i+32(FP), DI
	MOVQ p1r+40(FP), R8
	MOVQ p1i+48(FP), R9
	MOVQ p2r+56(FP), R10
	MOVQ p2i+64(FP), R11
	MOVQ p3r+72(FP), R12
	MOVQ p3i+80(FP), R13
	MOVQ nq+88(FP), DX

	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11

pixloop:
	VMOVUPD (BX), Y0            // cr = phRe
	VMOVUPD (CX), Y1            // -ci = phIm (conjugate phasor)
	VMOVUPD      (SI), Y12      // vr, correlation 0
	VMOVUPD      (DI), Y13      // vi
	VFMADD231PD  Y0, Y12, Y4    // s_re += vr*cr
	VFMADD231PD  Y1, Y13, Y4    // s_re += vi*phIm  (= -vi*ci)
	VFNMADD231PD Y1, Y12, Y5    // s_im -= vr*phIm  (= +vr*ci)
	VFMADD231PD  Y0, Y13, Y5    // s_im += vi*cr
	VMOVUPD      (R8), Y12
	VMOVUPD      (R9), Y13
	VFMADD231PD  Y0, Y12, Y6
	VFMADD231PD  Y1, Y13, Y6
	VFNMADD231PD Y1, Y12, Y7
	VFMADD231PD  Y0, Y13, Y7
	VMOVUPD      (R10), Y12
	VMOVUPD      (R11), Y13
	VFMADD231PD  Y0, Y12, Y8
	VFMADD231PD  Y1, Y13, Y8
	VFNMADD231PD Y1, Y12, Y9
	VFMADD231PD  Y0, Y13, Y9
	VMOVUPD      (R12), Y12
	VMOVUPD      (R13), Y13
	VFMADD231PD  Y0, Y12, Y10
	VFMADD231PD  Y1, Y13, Y10
	VFNMADD231PD Y1, Y12, Y11
	VFMADD231PD  Y0, Y13, Y11

	ADDQ $32, BX
	ADDQ $32, CX
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	ADDQ $32, R12
	ADDQ $32, R13
	DECQ DX
	JNZ  pixloop

	// Reduce each accumulator's lanes as (l0+l2)+(l1+l3) and add into
	// out[k]. VEXTRACTF128 folds the upper half onto the lower; HADDPD
	// sums the remaining pair.
	VEXTRACTF128 $1, Y4, X12
	VADDPD       X12, X4, X4
	VHADDPD      X4, X4, X4
	VEXTRACTF128 $1, Y5, X12
	VADDPD       X12, X5, X5
	VHADDPD      X5, X5, X5
	VEXTRACTF128 $1, Y6, X12
	VADDPD       X12, X6, X6
	VHADDPD      X6, X6, X6
	VEXTRACTF128 $1, Y7, X12
	VADDPD       X12, X7, X7
	VHADDPD      X7, X7, X7
	VEXTRACTF128 $1, Y8, X12
	VADDPD       X12, X8, X8
	VHADDPD      X8, X8, X8
	VEXTRACTF128 $1, Y9, X12
	VADDPD       X12, X9, X9
	VHADDPD      X9, X9, X9
	VEXTRACTF128 $1, Y10, X12
	VADDPD       X12, X10, X10
	VHADDPD      X10, X10, X10
	VEXTRACTF128 $1, Y11, X12
	VADDPD       X12, X11, X11
	VHADDPD      X11, X11, X11

	VADDSD (AX), X4, X4
	VMOVSD X4, (AX)
	VADDSD 8(AX), X5, X5
	VMOVSD X5, 8(AX)
	VADDSD 16(AX), X6, X6
	VMOVSD X6, 16(AX)
	VADDSD 24(AX), X7, X7
	VMOVSD X7, 24(AX)
	VADDSD 32(AX), X8, X8
	VMOVSD X8, 32(AX)
	VADDSD 40(AX), X9, X9
	VMOVSD X9, 40(AX)
	VADDSD 48(AX), X10, X10
	VMOVSD X10, 48(AX)
	VADDSD 56(AX), X11, X11
	VMOVSD X11, 56(AX)
	VZEROUPPER
	RET

// func rotQuads(phRe, phIm, dRe, dIm *float64, nq int)
//
// Degridder phasor rotation pass, four pixels per iteration:
// phIm' = phIm*dRe + phRe*dIm, phRe' = phRe*dRe - phIm*dIm.
TEXT ·rotQuads(SB), NOSPLIT, $0-40
	MOVQ phRe+0(FP), AX
	MOVQ phIm+8(FP), BX
	MOVQ dRe+16(FP), CX
	MOVQ dIm+24(FP), SI
	MOVQ nq+32(FP), DX

rotloop:
	VMOVUPD      (AX), Y0       // co
	VMOVUPD      (BX), Y1       // s
	VMOVUPD      (CX), Y2       // dRe
	VMOVUPD      (SI), Y3       // dIm
	VMULPD       Y2, Y1, Y4     // s*dRe
	VFMADD231PD  Y3, Y0, Y4     // += co*dIm -> phIm'
	VMULPD       Y2, Y0, Y5     // co*dRe
	VFNMADD231PD Y3, Y1, Y5     // -= s*dIm -> phRe'
	VMOVUPD      Y4, (BX)
	VMOVUPD      Y5, (AX)
	ADDQ         $32, AX
	ADDQ         $32, BX
	ADDQ         $32, CX
	ADDQ         $32, SI
	DECQ         DX
	JNZ          rotloop
	VZEROUPPER
	RET

// func foldQuadLanes(sums, vacc *float64, npix int)
//
// Gridder lane fold: per pixel i, the eight four-lane accumulators at
// vacc[32*i:] reduce to eight sums, each as (l0+l2)+(l1+l3) — the order
// of conjAccQuads' in-register reduce — and land where the sandwich
// below reads them, in planar groups of four pixels: sum j at
// sums[32*(i/4) + 4*j + i%4].
TEXT ·foldQuadLanes(SB), NOSPLIT, $0-24
	MOVQ sums+0(FP), DI
	MOVQ vacc+8(FP), SI
	MOVQ npix+16(FP), CX
	XORQ AX, AX                  // pixels folded

#define FOLD_PAIR(off) \
	VMOVUPD      off(SI), Y0     \
	VMOVUPD      off+32(SI), Y2  \
	VEXTRACTF128 $1, Y0, X1      \
	VEXTRACTF128 $1, Y2, X3      \
	VADDPD       X1, X0, X0      \ // l0+l2, l1+l3
	VADDPD       X3, X2, X2      \
	VHADDPD      X2, X0, X0      \ // (l0+l2)+(l1+l3) of both accumulators
	VMOVLPD      X0, off(DI)     \
	VMOVHPD      X0, off+32(DI)

foldloop:
	FOLD_PAIR(0)
	FOLD_PAIR(64)
	FOLD_PAIR(128)
	FOLD_PAIR(192)
	ADDQ  $256, SI
	ADDQ  $8, DI
	INCQ  AX
	TESTQ $3, AX
	JNZ   foldnext
	ADDQ  $224, DI               // the next group of four
foldnext:
	DECQ CX
	JNZ  foldloop
	VZEROUPPER
	RET

// The A-term sandwiches at four pixels per YMM: sandwich_amd64.h on the
// sums as foldQuadLanes leaves them.
#define V0 Y0
#define V1 Y1
#define V2 Y2
#define V3 Y3
#define V4 Y4
#define V5 Y5
#define V6 Y6
#define V7 Y7
#define V8 Y8
#define V9 Y9
#define V10 Y10
#define V11 Y11
#define V15 Y15
#define VB 32
#define SPL 32
#define S_NEXT ADDQ $256, AX

// STORE_AOS(re, im, out): interleaves four (re, im) pairs into four
// consecutive complex128 at out.
#define STORE_AOS(re, im, out) \
	VUNPCKLPD  im, re, Y12          \
	VUNPCKHPD  im, re, Y13          \
	VPERM2F128 $0x20, Y13, Y12, Y14 \
	VPERM2F128 $0x31, Y13, Y12, Y13 \
	VMOVUPD    Y14, (out)           \
	VMOVUPD    Y13, 32(out)

// LOAD_AOS(in, re, im): splits four consecutive complex128 at in into
// their real and imaginary vectors.
#define LOAD_AOS(in, re, im) \
	VMOVUPD    (in), Y12            \
	VMOVUPD    32(in), Y13          \
	VPERM2F128 $0x20, Y13, Y12, Y14 \
	VPERM2F128 $0x31, Y13, Y12, Y13 \
	VUNPCKLPD  Y13, Y14, Y12        \
	VUNPCKHPD  Y13, Y14, Y13        \
	VMOVUPD    Y12, re              \
	VMOVUPD    Y13, im

#include "sandwich_amd64.h"

// func gridSandwichQuads(out0, out1, out2, out3 *complex128, sums, p, q *float64, stride int, taper *float64, nv int)
TEXT ·gridSandwichQuads(SB), NOSPLIT, $0-80
	MOVQ out0+0(FP), DI
	MOVQ out1+8(FP), SI
	MOVQ out2+16(FP), R8
	MOVQ out3+24(FP), R9
	MOVQ sums+32(FP), AX
	MOVQ p+40(FP), BX
	MOVQ q+48(FP), DX
	MOVQ stride+56(FP), R11
	MOVQ taper+64(FP), R10
	MOVQ nv+72(FP), CX
	GRID_SANDWICH

// func degridSandwichQuads(planes *float64, stride int, in0, in1, in2, in3 *complex128, p, q, taper *float64, nv int)
TEXT ·degridSandwichQuads(SB), 0, $256-80
	MOVQ planes+0(FP), DI
	MOVQ stride+8(FP), R11
	MOVQ in0+16(FP), SI
	MOVQ in1+24(FP), R8
	MOVQ in2+32(FP), R9
	MOVQ in3+40(FP), R10
	MOVQ p+48(FP), BX
	MOVQ q+56(FP), DX
	MOVQ taper+64(FP), AX
	MOVQ nv+72(FP), CX
	DEGRID_SANDWICH
