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
// Gridder lane fold: per pixel, the eight four-lane accumulators at
// vacc[32*i:] reduce to eight sums at sums[8*i:], each as
// (l0+l2)+(l1+l3) — the order of conjAccQuads' in-register reduce.
TEXT ·foldQuadLanes(SB), NOSPLIT, $0-24
	MOVQ sums+0(FP), DI
	MOVQ vacc+8(FP), SI
	MOVQ npix+16(FP), CX

#define FOLD_PAIR(off, out) \
	VMOVUPD      off(SI), Y0     \
	VMOVUPD      off+32(SI), Y2  \
	VEXTRACTF128 $1, Y0, X1      \
	VEXTRACTF128 $1, Y2, X3      \
	VADDPD       X1, X0, X0      \ // l0+l2, l1+l3
	VADDPD       X3, X2, X2      \
	VHADDPD      X2, X0, X0      \ // (l0+l2)+(l1+l3) of both accumulators
	VMOVUPD      X0, out(DI)

foldloop:
	FOLD_PAIR(0, 0)
	FOLD_PAIR(64, 16)
	FOLD_PAIR(128, 32)
	FOLD_PAIR(192, 48)
	ADDQ $256, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  foldloop
	VZEROUPPER
	RET

// The A-term sandwiches work on four pixels at a time in structure-of-
// arrays form: every component of the 2x2 complex matrices S, P and Q
// is one YMM of four pixels, staged in the frame. Slot j of a matrix
// holds component j of [m0.re m0.im m1.re m1.im m2.re ... m3.im].
#define S_(j) (32*(j))(SP)
#define P_(j) (256+32*(j))(SP)
#define Q_(j) (512+32*(j))(SP)

// LOADT4 transposes the 4x4 block of doubles whose rows lie 64 bytes
// apart from off(base) (half a Matrix2 of four consecutive pixels) into
// the frame slots slot..slot+3.
#define LOADT4(base, off, slot) \
	VMOVUPD    off(base), Y0         \
	VMOVUPD    off+64(base), Y1      \
	VMOVUPD    off+128(base), Y2     \
	VMOVUPD    off+192(base), Y3     \
	VUNPCKLPD  Y1, Y0, Y4            \
	VUNPCKHPD  Y1, Y0, Y5            \
	VUNPCKLPD  Y3, Y2, Y6            \
	VUNPCKHPD  Y3, Y2, Y7            \
	VPERM2F128 $0x20, Y6, Y4, Y0     \
	VPERM2F128 $0x20, Y7, Y5, Y1     \
	VPERM2F128 $0x31, Y6, Y4, Y2     \
	VPERM2F128 $0x31, Y7, Y5, Y3     \
	VMOVUPD    Y0, (slot)(SP)        \
	VMOVUPD    Y1, (slot+32)(SP)     \
	VMOVUPD    Y2, (slot+64)(SP)     \
	VMOVUPD    Y3, (slot+96)(SP)

// MULADD2(xr, xi, zr, zi, y, w, re, im): re+i*im = x*y + z*w with x, z
// in registers and y, w in the frame (slot of the real part).
#define MULADD2(xr, xi, zr, zi, yr, yi, wr, wi, re, im) \
	VMULPD       yr, xr, re  \
	VFNMADD231PD yi, xi, re  \
	VFMADD231PD  wr, zr, re  \
	VFNMADD231PD wi, zi, re  \
	VMULPD       yi, xr, im  \
	VFMADD231PD  yr, xi, im  \
	VFMADD231PD  wi, zr, im  \
	VFMADD231PD  wr, zi, im

// CMULADD2: re+i*im = conj(x)*y + conj(z)*w, same operand homes.
#define CMULADD2(xr, xi, zr, zi, yr, yi, wr, wi, re, im) \
	VMULPD       yr, xr, re  \
	VFMADD231PD  yi, xi, re  \
	VFMADD231PD  wr, zr, re  \
	VFMADD231PD  wi, zi, re  \
	VMULPD       yi, xr, im  \
	VFNMADD231PD yr, xi, im  \
	VFMADD231PD  wi, zr, im  \
	VFNMADD231PD wr, zi, im

// MULCADD2: re+i*im = x*conj(y) + z*conj(w), same operand homes.
#define MULCADD2(xr, xi, zr, zi, yr, yi, wr, wi, re, im) \
	VMULPD       yr, xr, re  \
	VFMADD231PD  yi, xi, re  \
	VFMADD231PD  wr, zr, re  \
	VFMADD231PD  wi, zi, re  \
	VMULPD       yr, xi, im  \
	VFNMADD231PD yi, xr, im  \
	VFMADD231PD  wr, zi, im  \
	VFNMADD231PD wi, zr, im

// STORE_AOS(re, im, out): interleaves four (re, im) pairs into four
// consecutive complex128 at out.
#define STORE_AOS(re, im, out) \
	VUNPCKLPD  im, re, Y12          \
	VUNPCKHPD  im, re, Y13          \
	VPERM2F128 $0x20, Y13, Y12, Y14 \
	VPERM2F128 $0x31, Y13, Y12, Y13 \
	VMOVUPD    Y14, (out)           \
	VMOVUPD    Y13, 32(out)

// GRID_ROW(pa, pb, outa, outb): one row of R = (P^H S) Q for the P
// column (pa, pb): T0 = conj(pa) s0 + conj(pb) s2, T1 = conj(pa) s1 +
// conj(pb) s3, then outa = T0 q0 + T1 q2, outb = T0 q1 + T1 q3, both
// times the taper in Y15.
#define GRID_ROW(pa, pb, outa, outb) \
	VMOVUPD P_(2*pa), Y0   \
	VMOVUPD P_(2*pa+1), Y1 \
	VMOVUPD P_(2*pb), Y2   \
	VMOVUPD P_(2*pb+1), Y3 \
	CMULADD2(Y0, Y1, Y2, Y3, S_(0), S_(1), S_(4), S_(5), Y4, Y5) \
	CMULADD2(Y0, Y1, Y2, Y3, S_(2), S_(3), S_(6), S_(7), Y6, Y7) \
	MULADD2(Y4, Y5, Y6, Y7, Q_(0), Q_(1), Q_(4), Q_(5), Y8, Y9)   \
	MULADD2(Y4, Y5, Y6, Y7, Q_(2), Q_(3), Q_(6), Q_(7), Y10, Y11) \
	VMULPD Y15, Y8, Y8     \
	VMULPD Y15, Y9, Y9     \
	VMULPD Y15, Y10, Y10   \
	VMULPD Y15, Y11, Y11   \
	STORE_AOS(Y8, Y9, outa)   \
	STORE_AOS(Y10, Y11, outb)

// func gridSandwichQuads(out0, out1, out2, out3 *complex128, sums *float64, p, q *complex128, taper *float64, nq int)
//
// Gridder tile epilogue, four pixels per iteration: out_c[i] =
// taper[i] * (P[i]^H S[i] Q[i])_c with S[i] the folded sums (eight
// doubles per pixel), P and Q the per-pixel Jones matrices.
TEXT ·gridSandwichQuads(SB), 0, $768-72
	MOVQ out0+0(FP), DI
	MOVQ out1+8(FP), SI
	MOVQ out2+16(FP), R8
	MOVQ out3+24(FP), R9
	MOVQ sums+32(FP), AX
	MOVQ p+40(FP), BX
	MOVQ q+48(FP), DX
	MOVQ taper+56(FP), R10
	MOVQ nq+64(FP), CX

gridsandwich:
	LOADT4(AX, 0, 0)
	LOADT4(AX, 32, 128)
	LOADT4(BX, 0, 256)
	LOADT4(BX, 32, 384)
	LOADT4(DX, 0, 512)
	LOADT4(DX, 32, 640)
	VMOVUPD (R10), Y15
	GRID_ROW(0, 2, DI, SI)
	GRID_ROW(1, 3, R8, R9)
	ADDQ $256, AX
	ADDQ $256, BX
	ADDQ $256, DX
	ADDQ $32, R10
	ADDQ $64, DI
	ADDQ $64, SI
	ADDQ $64, R8
	ADDQ $64, R9
	DECQ CX
	JNZ  gridsandwich
	VZEROUPPER
	RET

// LOAD_AOS(in, slot): splits four consecutive complex128 at in into
// their real and imaginary vectors, frame slots slot and slot+1.
#define LOAD_AOS(in, slot) \
	VMOVUPD    (in), Y0             \
	VMOVUPD    32(in), Y1           \
	VPERM2F128 $0x20, Y1, Y0, Y2    \
	VPERM2F128 $0x31, Y1, Y0, Y3    \
	VUNPCKLPD  Y3, Y2, Y4           \
	VUNPCKHPD  Y3, Y2, Y5           \
	VMOVUPD    Y4, S_(slot)         \
	VMOVUPD    Y5, S_(slot+1)

// DEGRID_ROW(pa, pb): one row of R = (P S) Q^H for the P row (pa, pb):
// T0 = pa s0 + pb s2, T1 = pa s1 + pb s3, then Y8/Y9 = T0 conj(q0) +
// T1 conj(q1) and Y10/Y11 = T0 conj(q2) + T1 conj(q3), both times the
// taper in Y15.
#define DEGRID_ROW(pa, pb) \
	VMOVUPD P_(2*pa), Y0   \
	VMOVUPD P_(2*pa+1), Y1 \
	VMOVUPD P_(2*pb), Y2   \
	VMOVUPD P_(2*pb+1), Y3 \
	MULADD2(Y0, Y1, Y2, Y3, S_(0), S_(1), S_(4), S_(5), Y4, Y5) \
	MULADD2(Y0, Y1, Y2, Y3, S_(2), S_(3), S_(6), S_(7), Y6, Y7) \
	MULCADD2(Y4, Y5, Y6, Y7, Q_(0), Q_(1), Q_(2), Q_(3), Y8, Y9)   \
	MULCADD2(Y4, Y5, Y6, Y7, Q_(4), Q_(5), Q_(6), Q_(7), Y10, Y11) \
	VMULPD Y15, Y8, Y8     \
	VMULPD Y15, Y9, Y9     \
	VMULPD Y15, Y10, Y10   \
	VMULPD Y15, Y11, Y11

// func degridSandwichQuads(planes *float64, stride int, in0, in1, in2, in3, p, q *complex128, taper *float64, nq int)
//
// Degridder prologue, four pixels per iteration: the corrected pixel
// taper[i] * (P[i] S[i] Q[i]^H) with S[i] = (in0[i] .. in3[i]), written
// to the eight planar arrays re0, im0, re1, ... that start stride bytes
// apart at planes.
TEXT ·degridSandwichQuads(SB), 0, $768-80
	MOVQ planes+0(FP), DI
	MOVQ stride+8(FP), R11
	MOVQ in0+16(FP), SI
	MOVQ in1+24(FP), R8
	MOVQ in2+32(FP), R9
	MOVQ in3+40(FP), R10
	MOVQ p+48(FP), BX
	MOVQ q+56(FP), DX
	MOVQ taper+64(FP), AX
	MOVQ nq+72(FP), CX
	LEAQ (R11)(R11*2), R12
	LEAQ (DI)(R11*4), R13

degridsandwich:
	LOAD_AOS(SI, 0)
	LOAD_AOS(R8, 2)
	LOAD_AOS(R9, 4)
	LOAD_AOS(R10, 6)
	LOADT4(BX, 0, 256)
	LOADT4(BX, 32, 384)
	LOADT4(DX, 0, 512)
	LOADT4(DX, 32, 640)
	VMOVUPD (AX), Y15
	DEGRID_ROW(0, 1)
	VMOVUPD Y8, (DI)
	VMOVUPD Y9, (DI)(R11*1)
	VMOVUPD Y10, (DI)(R11*2)
	VMOVUPD Y11, (DI)(R12*1)
	DEGRID_ROW(2, 3)
	VMOVUPD Y8, (R13)
	VMOVUPD Y9, (R13)(R11*1)
	VMOVUPD Y10, (R13)(R11*2)
	VMOVUPD Y11, (R13)(R12*1)
	ADDQ $64, SI
	ADDQ $64, R8
	ADDQ $64, R9
	ADDQ $64, R10
	ADDQ $256, BX
	ADDQ $256, DX
	ADDQ $32, AX
	ADDQ $32, DI
	ADDQ $32, R13
	DECQ CX
	JNZ  degridsandwich
	VZEROUPPER
	RET
