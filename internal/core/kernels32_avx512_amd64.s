// AVX-512VL float32 tile kernel for the SIMDAVX512 dispatch tier.
//
// The loop body stays at YMM width (float32 at sixteen lanes per ZMM
// has not been measured; the float64 tiles of this tier,
// kernels_avx512_amd64.s, went to 512 bits when it was), but EVEX
// encoding unlocks registers Y16-Y31, enough to keep TWO pixels'
// accumulator files and phasor lanes live at once.
// The two pixels share every visibility load — the visibility planes
// do not depend on the pixel — so the doubled FMA stream costs no
// extra memory traffic and fills both FMA ports where the
// single-pixel kernel is bound on the phasor-rotation latency chain.
// Each pixel's operation sequence is exactly that of rotAccOctsBlk,
// so results are bitwise identical to two single-pixel calls.
//
// Only the SIMDAVX512 dispatch tier reaches this code: the tier
// detection (internal/xmath) requires AVX-512 F+DQ+BW+VL and the
// OS-saved opmask/upper-ZMM/hi16-ZMM state EVEX register access
// needs.

#include "textflag.h"

// func rotAccOctsBlk2(acc0, acc1, r0, i0, r1, i1, r2, i2, r3, i3 *float32, no int, ph0, ph1 *float32, nt, visAdj, phAdj int)
//
// Timestep-blocked rotate-and-accumulate for two pixels: pixel A uses
// the rotAccOctsBlk register file (phasors Y0-Y3, accumulators
// Y4-Y11), pixel B mirrors it in EVEX registers (phasors Y16-Y19,
// accumulators Y20-Y27). ph0/ph1 walk the two pixels' [18]float32
// phasor blocks, phAdj bytes per time step.
TEXT ·rotAccOctsBlk2(SB), NOSPLIT, $0-128
	MOVQ r0+16(FP), SI
	MOVQ i0+24(FP), DI
	MOVQ r1+32(FP), R8
	MOVQ i1+40(FP), R9
	MOVQ r2+48(FP), R10
	MOVQ i2+56(FP), R11
	MOVQ r3+64(FP), R12
	MOVQ i3+72(FP), R13
	MOVQ no+80(FP), R15
	MOVQ nt+104(FP), CX
	MOVQ visAdj+112(FP), R14

	MOVQ    acc0+0(FP), AX
	VMOVUPS (AX), Y4
	VMOVUPS 32(AX), Y5
	VMOVUPS 64(AX), Y6
	VMOVUPS 96(AX), Y7
	VMOVUPS 128(AX), Y8
	VMOVUPS 160(AX), Y9
	VMOVUPS 192(AX), Y10
	VMOVUPS 224(AX), Y11
	MOVQ    acc1+8(FP), AX
	VMOVUPS (AX), Y20
	VMOVUPS 32(AX), Y21
	VMOVUPS 64(AX), Y22
	VMOVUPS 96(AX), Y23
	VMOVUPS 128(AX), Y24
	VMOVUPS 160(AX), Y25
	VMOVUPS 192(AX), Y26
	VMOVUPS 224(AX), Y27

	MOVQ ph0+88(FP), BX
	MOVQ ph1+96(FP), AX

blk2tloop:
	// Phasor lanes and rotator of this time step, both pixels.
	VMOVUPS      (BX), Y0
	VMOVUPS      32(BX), Y1
	VBROADCASTSS 64(BX), Y2
	VBROADCASTSS 68(BX), Y3
	VMOVUPS      (AX), Y16
	VMOVUPS      32(AX), Y17
	VBROADCASTSS 64(AX), Y18
	VBROADCASTSS 68(AX), Y19
	MOVQ         R15, DX

blk2octloop:
	VMOVUPS      (SI), Y12      // vr, correlation 0 (shared by A and B)
	VMOVUPS      (DI), Y13      // vi
	VFMADD231PS  Y1, Y12, Y4    // A: a0 += vr*pc
	VFNMADD231PS Y0, Y13, Y4    // A: a0 -= vi*ps
	VFMADD231PS  Y0, Y12, Y5    // A: a1 += vr*ps
	VFMADD231PS  Y1, Y13, Y5    // A: a1 += vi*pc
	VFMADD231PS  Y17, Y12, Y20  // B: same, pixel B phasors
	VFNMADD231PS Y16, Y13, Y20
	VFMADD231PS  Y16, Y12, Y21
	VFMADD231PS  Y17, Y13, Y21
	VMOVUPS      (R8), Y12
	VMOVUPS      (R9), Y13
	VFMADD231PS  Y1, Y12, Y6
	VFNMADD231PS Y0, Y13, Y6
	VFMADD231PS  Y0, Y12, Y7
	VFMADD231PS  Y1, Y13, Y7
	VFMADD231PS  Y17, Y12, Y22
	VFNMADD231PS Y16, Y13, Y22
	VFMADD231PS  Y16, Y12, Y23
	VFMADD231PS  Y17, Y13, Y23
	VMOVUPS      (R10), Y12
	VMOVUPS      (R11), Y13
	VFMADD231PS  Y1, Y12, Y8
	VFNMADD231PS Y0, Y13, Y8
	VFMADD231PS  Y0, Y12, Y9
	VFMADD231PS  Y1, Y13, Y9
	VFMADD231PS  Y17, Y12, Y24
	VFNMADD231PS Y16, Y13, Y24
	VFMADD231PS  Y16, Y12, Y25
	VFMADD231PS  Y17, Y13, Y25
	VMOVUPS      (R12), Y12
	VMOVUPS      (R13), Y13
	VFMADD231PS  Y1, Y12, Y10
	VFNMADD231PS Y0, Y13, Y10
	VFMADD231PS  Y0, Y12, Y11
	VFMADD231PS  Y1, Y13, Y11
	VFMADD231PS  Y17, Y12, Y26
	VFNMADD231PS Y16, Y13, Y26
	VFMADD231PS  Y16, Y12, Y27
	VFMADD231PS  Y17, Y13, Y27

	// Advance both pixels' phasor lanes by eight channels.
	VMULPS       Y3, Y0, Y14
	VMULPS       Y3, Y1, Y15
	VFMADD231PS  Y2, Y1, Y14
	VFNMADD231PS Y2, Y0, Y15
	VMOVAPS      Y14, Y0
	VMOVAPS      Y15, Y1
	VMULPS       Y19, Y16, Y28
	VMULPS       Y19, Y17, Y29
	VFMADD231PS  Y18, Y17, Y28
	VFNMADD231PS Y18, Y16, Y29
	VMOVAPS      Y28, Y16
	VMOVAPS      Y29, Y17

	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	ADDQ $32, R12
	ADDQ $32, R13
	DECQ DX
	JNZ  blk2octloop

	ADDQ R14, SI
	ADDQ R14, DI
	ADDQ R14, R8
	ADDQ R14, R9
	ADDQ R14, R10
	ADDQ R14, R11
	ADDQ R14, R12
	ADDQ R14, R13
	MOVQ phAdj+120(FP), DX
	ADDQ DX, BX
	ADDQ DX, AX
	DECQ CX
	JNZ  blk2tloop

	MOVQ    acc0+0(FP), AX
	VMOVUPS Y4, (AX)
	VMOVUPS Y5, 32(AX)
	VMOVUPS Y6, 64(AX)
	VMOVUPS Y7, 96(AX)
	VMOVUPS Y8, 128(AX)
	VMOVUPS Y9, 160(AX)
	VMOVUPS Y10, 192(AX)
	VMOVUPS Y11, 224(AX)
	MOVQ    acc1+8(FP), AX
	VMOVUPS Y20, (AX)
	VMOVUPS Y21, 32(AX)
	VMOVUPS Y22, 64(AX)
	VMOVUPS Y23, 96(AX)
	VMOVUPS Y24, 128(AX)
	VMOVUPS Y25, 160(AX)
	VMOVUPS Y26, 192(AX)
	VMOVUPS Y27, 224(AX)
	VZEROUPPER
	RET
