//go:build amd64 && !amd64.v3

#include "textflag.h"

// The lane-parallel exact predictor: Predictor.Predict for four samples
// per YMM (avx2) or eight per ZMM (avx512), bit for bit. Per lane and
// source it runs Go's own operation sequence, unfused, as the compiler
// emits it at GOAMD64=v1:
//
//	x   = -2pi * ((u*l + v*m) + w*n)
//	math.Sincos(x): j = uint64(|x| * 4/pi), bumped to even; y = float64(j)
//	    z = ((|x| - y*PI4A) - y*PI4B) - y*PI4C; zz = z*z
//	    cos = (1 - 0.5*zz) + (zz*zz)*(((((c0*zz+c1)*zz+c2)*zz+c3)*zz+c4)*zz+c5)
//	    sin = z + (z*zz)*(((((s0*zz+s1)*zz+s2)*zz+s3)*zz+s4)*zz+s5)
//	    swapped when bit 1 of j is set; sin's sign flipped by sign(x) xor
//	    bit 2, cos's by bit 1 xor bit 2
//	acc[k] += (cos*br_k - sin*bi_k, cos*bi_k + sin*br_k)    accumulators from +0
//
// Taking sin's sign from x's sign bit gives math.Sincos(+-0) = (+-0, 1)
// without a special case. A lane with |x| >= 2^29 (math's Payne-Hanek
// range) or a non-finite x stops the kernel at its group, which the
// caller predicts through the scalar Predict. Leaf functions: NOSPLIT,
// no calls, VZEROUPPER before returning.

DATA pk<>+0x00(SB)/8, $0x7fffffffffffffff // |x| mask
DATA pk<>+0x08(SB)/8, $0x8000000000000000 // sign bit
DATA pk<>+0x10(SB)/8, $0x41c0000000000000 // 2^29, math's reduceThreshold
DATA pk<>+0x18(SB)/8, $0x3ff45f306dc9c883 // 4/pi
DATA pk<>+0x20(SB)/8, $0x3fe921fb40000000 // PI4A
DATA pk<>+0x28(SB)/8, $0x3e64442d00000000 // PI4B
DATA pk<>+0x30(SB)/8, $0x3ce8469898cc5170 // PI4C
DATA pk<>+0x38(SB)/8, $0xc01921fb54442d18 // -2pi
DATA pk<>+0x40(SB)/8, $0x3fe0000000000000 // 0.5
DATA pk<>+0x48(SB)/8, $0x3ff0000000000000 // 1.0
DATA pk<>+0x50(SB)/8, $0xbda8fa49a0861a9b // _cos[0]
DATA pk<>+0x58(SB)/8, $0x3e21ee9d7b4e3f05 // _cos[1]
DATA pk<>+0x60(SB)/8, $0xbe927e4f7eac4bc6 // _cos[2]
DATA pk<>+0x68(SB)/8, $0x3efa01a019c844f5 // _cos[3]
DATA pk<>+0x70(SB)/8, $0xbf56c16c16c14f91 // _cos[4]
DATA pk<>+0x78(SB)/8, $0x3fa555555555554b // _cos[5]
DATA pk<>+0x80(SB)/8, $0x3de5d8fd1fd19ccd // _sin[0]
DATA pk<>+0x88(SB)/8, $0xbe5ae5e5a9291f5d // _sin[1]
DATA pk<>+0x90(SB)/8, $0x3ec71de3567d48a1 // _sin[2]
DATA pk<>+0x98(SB)/8, $0xbf2a01a019bfdf03 // _sin[3]
DATA pk<>+0xa0(SB)/8, $0x3f8111111110f7d0 // _sin[4]
DATA pk<>+0xa8(SB)/8, $0xbfc5555555555548 // _sin[5]
GLOBL pk<>(SB), RODATA|NOPTR, $176

// ---- avx2: four lanes per YMM ---------------------------------------
//
// SINCOS4_ABS splits x in Y0 into |x| (Y1) and its sign bit (Y0).
// SINCOS4_CORE takes them to sin (Y1) and cos (Y3), clobbering Y0, Y2
// and Y4-Y7; constants are broadcast into temporaries, since Y8-Y15
// hold the predictor's accumulators.
#define SINCOS4_ABS \
	VBROADCASTSD pk<>+0x00(SB), Y2 \
	VANDPD       Y2, Y0, Y1        \
	VBROADCASTSD pk<>+0x08(SB), Y2 \
	VANDPD       Y2, Y0, Y0

#define POLY4(c0, c1, c2, c3, c4, c5, p) \
	VBROADCASTSD c0, p  \
	VMULPD       Y3, p, p  \
	VBROADCASTSD c1, Y7 \
	VADDPD       Y7, p, p  \
	VMULPD       Y3, p, p  \
	VBROADCASTSD c2, Y7 \
	VADDPD       Y7, p, p  \
	VMULPD       Y3, p, p  \
	VBROADCASTSD c3, Y7 \
	VADDPD       Y7, p, p  \
	VMULPD       Y3, p, p  \
	VBROADCASTSD c4, Y7 \
	VADDPD       Y7, p, p  \
	VMULPD       Y3, p, p  \
	VBROADCASTSD c5, Y7 \
	VADDPD       Y7, p, p

#define SINCOS4_CORE \
	VBROADCASTSD pk<>+0x18(SB), Y2 \
	VMULPD       Y2, Y1, Y2        \
	VCVTTPD2DQY  Y2, X2            \
	VPSLLD       $31, X2, X3       \
	VPSRLD       $31, X3, X3       \
	VPADDD       X3, X2, X2        \
	VCVTDQ2PD    X2, Y3            \
	VPMOVZXDQ    X2, Y2            \
	VPSLLQ       $62, Y2, Y4       \
	VPSLLQ       $61, Y2, Y2       \
	VBROADCASTSD pk<>+0x08(SB), Y5 \
	VANDPD       Y5, Y2, Y2        \
	VANDPD       Y5, Y4, Y4        \
	VXORPD       Y2, Y0, Y0        \
	VXORPD       Y4, Y2, Y2        \
	VBROADCASTSD pk<>+0x20(SB), Y5 \
	VMULPD       Y5, Y3, Y5        \
	VSUBPD       Y5, Y1, Y1        \
	VBROADCASTSD pk<>+0x28(SB), Y5 \
	VMULPD       Y5, Y3, Y5        \
	VSUBPD       Y5, Y1, Y1        \
	VBROADCASTSD pk<>+0x30(SB), Y5 \
	VMULPD       Y5, Y3, Y5        \
	VSUBPD       Y5, Y1, Y1        \
	VMULPD       Y1, Y1, Y3        \
	POLY4(pk<>+0x50(SB), pk<>+0x58(SB), pk<>+0x60(SB), pk<>+0x68(SB), pk<>+0x70(SB), pk<>+0x78(SB), Y5) \
	VMULPD       Y3, Y3, Y6        \
	VMULPD       Y5, Y6, Y5        \
	VBROADCASTSD pk<>+0x40(SB), Y6 \
	VMULPD       Y3, Y6, Y6        \
	VBROADCASTSD pk<>+0x48(SB), Y7 \
	VSUBPD       Y6, Y7, Y6        \
	VADDPD       Y5, Y6, Y5        \
	POLY4(pk<>+0x80(SB), pk<>+0x88(SB), pk<>+0x90(SB), pk<>+0x98(SB), pk<>+0xa0(SB), pk<>+0xa8(SB), Y6) \
	VMULPD       Y3, Y1, Y7        \
	VMULPD       Y6, Y7, Y6        \
	VADDPD       Y6, Y1, Y6        \
	VBLENDVPD    Y4, Y5, Y6, Y1    \
	VBLENDVPD    Y4, Y6, Y5, Y3    \
	VXORPD       Y0, Y1, Y1        \
	VXORPD       Y2, Y3, Y3

// ACC4 adds brightness entry (br, bi at those offsets from SI) times
// (cos Y3, sin Y1) into the accumulators re, im.
#define ACC4(br, bi, re, im) \
	VBROADCASTSD br(SI), Y4 \
	VBROADCASTSD bi(SI), Y5 \
	VMULPD       Y4, Y3, Y6 \
	VMULPD       Y5, Y1, Y7 \
	VSUBPD       Y7, Y6, Y6 \
	VADDPD       Y6, re, re \
	VMULPD       Y5, Y3, Y6 \
	VMULPD       Y4, Y1, Y7 \
	VADDPD       Y7, Y6, Y6 \
	VADDPD       Y6, im, im

// func sincosGoQuads(sin, cos, x *float64, nq int)
TEXT ·sincosGoQuads(SB), NOSPLIT, $0-32
	MOVQ sin+0(FP), DI
	MOVQ cos+8(FP), SI
	MOVQ x+16(FP), DX
	MOVQ nq+24(FP), CX

sqloop:
	VMOVUPD (DX), Y0
	SINCOS4_ABS
	SINCOS4_CORE
	VMOVUPD Y1, (DI)
	VMOVUPD Y3, (SI)
	ADDQ    $32, DX
	ADDQ    $32, DI
	ADDQ    $32, SI
	DECQ    CX
	JNZ     sqloop
	VZEROUPPER
	RET

// func predictQuads(src *predictorSource, nsrc int, u, v, w *float64, out *xmath.Matrix2, ng int) int
//
// Groups of four samples, ng >= 1; returns the index of the first group
// holding a lane the kernel does not reduce, or ng.
TEXT ·predictQuads(SB), NOSPLIT, $0-64
	MOVQ src+0(FP), R10
	MOVQ nsrc+8(FP), R9
	MOVQ u+16(FP), AX
	MOVQ v+24(FP), BX
	MOVQ w+32(FP), DX
	MOVQ out+40(FP), DI
	MOVQ ng+48(FP), R8
	XORQ R11, R11

quadgroup:
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	VXORPD Y12, Y12, Y12
	VXORPD Y13, Y13, Y13
	VXORPD Y14, Y14, Y14
	VXORPD Y15, Y15, Y15
	MOVQ   R10, SI
	MOVQ   R9, CX
	TESTQ  CX, CX
	JZ     quadstore

quadsource:
	VBROADCASTSD 0(SI), Y0
	VMULPD       (AX), Y0, Y0
	VBROADCASTSD 8(SI), Y1
	VMULPD       (BX), Y1, Y1
	VADDPD       Y1, Y0, Y0
	VBROADCASTSD 16(SI), Y1
	VMULPD       (DX), Y1, Y1
	VADDPD       Y1, Y0, Y0
	VBROADCASTSD pk<>+0x38(SB), Y1
	VMULPD       Y1, Y0, Y0
	SINCOS4_ABS
	VBROADCASTSD pk<>+0x10(SB), Y2
	VCMPPD       $0x15, Y2, Y1, Y2 // !(|x| < 2^29), NaN included
	VMOVMSKPD    Y2, R12
	TESTL        R12, R12
	JNZ          quaddone
	SINCOS4_CORE
	ACC4(24, 32, Y8, Y9)
	ACC4(40, 48, Y10, Y11)
	ACC4(56, 64, Y12, Y13)
	ACC4(72, 80, Y14, Y15)
	ADDQ         $88, SI
	DECQ         CX
	JNZ          quadsource

quadstore:
	// Lanes are samples, registers matrix entries: transpose so each
	// sample's eight float64 land as one Matrix2.
	VUNPCKLPD  Y9, Y8, Y0
	VUNPCKHPD  Y9, Y8, Y1
	VUNPCKLPD  Y11, Y10, Y2
	VUNPCKHPD  Y11, Y10, Y3
	VUNPCKLPD  Y13, Y12, Y4
	VUNPCKHPD  Y13, Y12, Y5
	VUNPCKLPD  Y15, Y14, Y6
	VUNPCKHPD  Y15, Y14, Y7
	VPERM2F128 $0x20, Y2, Y0, Y8
	VPERM2F128 $0x20, Y6, Y4, Y9
	VPERM2F128 $0x20, Y3, Y1, Y10
	VPERM2F128 $0x20, Y7, Y5, Y11
	VPERM2F128 $0x31, Y2, Y0, Y12
	VPERM2F128 $0x31, Y6, Y4, Y13
	VPERM2F128 $0x31, Y3, Y1, Y14
	VPERM2F128 $0x31, Y7, Y5, Y15
	VMOVUPD    Y8, 0(DI)
	VMOVUPD    Y9, 32(DI)
	VMOVUPD    Y10, 64(DI)
	VMOVUPD    Y11, 96(DI)
	VMOVUPD    Y12, 128(DI)
	VMOVUPD    Y13, 160(DI)
	VMOVUPD    Y14, 192(DI)
	VMOVUPD    Y15, 224(DI)
	ADDQ       $32, AX
	ADDQ       $32, BX
	ADDQ       $32, DX
	ADDQ       $256, DI
	INCQ       R11
	CMPQ       R11, R8
	JLT        quadgroup

quaddone:
	MOVQ R11, ret+56(FP)
	VZEROUPPER
	RET

// ---- avx512: eight lanes per ZMM ------------------------------------
//
// Constants live in Z19-Z28 (LOAD_K8), u, v, w in Z16-Z18, the
// accumulators in Z8-Z15; the sincos is the avx2 text at eight lanes
// with the conversion in 64-bit lanes and the swap as an opmask.
#define LOAD_K8 \
	VBROADCASTSD pk<>+0x00(SB), Z19 \
	VBROADCASTSD pk<>+0x08(SB), Z20 \
	VBROADCASTSD pk<>+0x10(SB), Z21 \
	VBROADCASTSD pk<>+0x18(SB), Z22 \
	VBROADCASTSD pk<>+0x20(SB), Z23 \
	VBROADCASTSD pk<>+0x28(SB), Z24 \
	VBROADCASTSD pk<>+0x30(SB), Z25 \
	VBROADCASTSD pk<>+0x38(SB), Z26 \
	VBROADCASTSD pk<>+0x40(SB), Z27 \
	VBROADCASTSD pk<>+0x48(SB), Z28

#define SINCOS8_ABS \
	VPANDQ Z19, Z0, Z1 \
	VPANDQ Z20, Z0, Z0

#define POLY8(c0, c1, c2, c3, c4, c5, p) \
	VMULPD.BCST c0, Z3, p \
	VADDPD.BCST c1, p, p  \
	VMULPD      Z3, p, p  \
	VADDPD.BCST c2, p, p  \
	VMULPD      Z3, p, p  \
	VADDPD.BCST c3, p, p  \
	VMULPD      Z3, p, p  \
	VADDPD.BCST c4, p, p  \
	VMULPD      Z3, p, p  \
	VADDPD.BCST c5, p, p

#define SINCOS8_CORE \
	VMULPD     Z22, Z1, Z2 \
	VCVTTPD2QQ Z2, Z2      \
	VPSLLQ     $63, Z2, Z3 \
	VPSRLQ     $63, Z3, Z3 \
	VPADDQ     Z3, Z2, Z2  \
	VCVTQQ2PD  Z2, Z3      \
	VPSLLQ     $62, Z2, Z4 \
	VPSLLQ     $61, Z2, Z2 \
	VPANDQ     Z20, Z2, Z2 \
	VPANDQ     Z20, Z4, Z4 \
	VPXORQ     Z2, Z0, Z0  \
	VPXORQ     Z4, Z2, Z2  \
	VPMOVQ2M   Z4, K2      \
	VMULPD     Z23, Z3, Z5 \
	VSUBPD     Z5, Z1, Z1  \
	VMULPD     Z24, Z3, Z5 \
	VSUBPD     Z5, Z1, Z1  \
	VMULPD     Z25, Z3, Z5 \
	VSUBPD     Z5, Z1, Z1  \
	VMULPD     Z1, Z1, Z3  \
	POLY8(pk<>+0x50(SB), pk<>+0x58(SB), pk<>+0x60(SB), pk<>+0x68(SB), pk<>+0x70(SB), pk<>+0x78(SB), Z5) \
	VMULPD     Z3, Z3, Z6  \
	VMULPD     Z5, Z6, Z5  \
	VMULPD     Z27, Z3, Z6 \
	VSUBPD     Z6, Z28, Z6 \
	VADDPD     Z5, Z6, Z5  \
	POLY8(pk<>+0x80(SB), pk<>+0x88(SB), pk<>+0x90(SB), pk<>+0x98(SB), pk<>+0xa0(SB), pk<>+0xa8(SB), Z6) \
	VMULPD     Z3, Z1, Z7  \
	VMULPD     Z6, Z7, Z6  \
	VADDPD     Z6, Z1, Z6  \
	VBLENDMPD  Z5, Z6, K2, Z1 \
	VBLENDMPD  Z6, Z5, K2, Z3 \
	VPXORQ     Z0, Z1, Z1  \
	VPXORQ     Z2, Z3, Z3

#define ACC8(br, bi, re, im) \
	VMULPD.BCST br(SI), Z3, Z4 \
	VMULPD.BCST bi(SI), Z1, Z5 \
	VSUBPD      Z5, Z4, Z4     \
	VADDPD      Z4, re, re     \
	VMULPD.BCST bi(SI), Z3, Z4 \
	VMULPD.BCST br(SI), Z1, Z5 \
	VADDPD      Z5, Z4, Z4     \
	VADDPD      Z4, im, im

// func sincosGoOcts(sin, cos, x *float64, no int)
TEXT ·sincosGoOcts(SB), NOSPLIT, $0-32
	MOVQ sin+0(FP), DI
	MOVQ cos+8(FP), SI
	MOVQ x+16(FP), DX
	MOVQ no+24(FP), CX
	LOAD_K8

soloop:
	VMOVUPD (DX), Z0
	SINCOS8_ABS
	SINCOS8_CORE
	VMOVUPD Z1, (DI)
	VMOVUPD Z3, (SI)
	ADDQ    $64, DX
	ADDQ    $64, DI
	ADDQ    $64, SI
	DECQ    CX
	JNZ     soloop
	VZEROUPPER
	RET

// func predictOcts(src *predictorSource, nsrc int, u, v, w *float64, out *xmath.Matrix2, ng int) int
//
// predictQuads at eight samples per group.
TEXT ·predictOcts(SB), NOSPLIT, $0-64
	MOVQ src+0(FP), R10
	MOVQ nsrc+8(FP), R9
	MOVQ u+16(FP), AX
	MOVQ v+24(FP), BX
	MOVQ w+32(FP), DX
	MOVQ out+40(FP), DI
	MOVQ ng+48(FP), R8
	XORQ R11, R11
	LOAD_K8

octgroup:
	VMOVUPD (AX), Z16
	VMOVUPD (BX), Z17
	VMOVUPD (DX), Z18
	VPXORQ  Z8, Z8, Z8
	VPXORQ  Z9, Z9, Z9
	VPXORQ  Z10, Z10, Z10
	VPXORQ  Z11, Z11, Z11
	VPXORQ  Z12, Z12, Z12
	VPXORQ  Z13, Z13, Z13
	VPXORQ  Z14, Z14, Z14
	VPXORQ  Z15, Z15, Z15
	MOVQ    R10, SI
	MOVQ    R9, CX
	TESTQ   CX, CX
	JZ      octstore

octsource:
	VMULPD.BCST 0(SI), Z16, Z0
	VMULPD.BCST 8(SI), Z17, Z1
	VADDPD      Z1, Z0, Z0
	VMULPD.BCST 16(SI), Z18, Z1
	VADDPD      Z1, Z0, Z0
	VMULPD      Z26, Z0, Z0
	SINCOS8_ABS
	VCMPPD      $0x15, Z21, Z1, K1 // !(|x| < 2^29), NaN included
	KORTESTB    K1, K1
	JNZ         octdone
	SINCOS8_CORE
	ACC8(24, 32, Z8, Z9)
	ACC8(40, 48, Z10, Z11)
	ACC8(56, 64, Z12, Z13)
	ACC8(72, 80, Z14, Z15)
	ADDQ        $88, SI
	DECQ        CX
	JNZ         octsource

octstore:
	// 8x8 transpose: pair re/im per entry, then gather the 128-bit
	// lanes of the four pairs that belong to one sample.
	VUNPCKLPD  Z9, Z8, Z0
	VUNPCKHPD  Z9, Z8, Z1
	VUNPCKLPD  Z11, Z10, Z2
	VUNPCKHPD  Z11, Z10, Z3
	VUNPCKLPD  Z13, Z12, Z4
	VUNPCKHPD  Z13, Z12, Z5
	VUNPCKLPD  Z15, Z14, Z6
	VUNPCKHPD  Z15, Z14, Z7
	VSHUFF64X2 $0x44, Z2, Z0, Z8
	VSHUFF64X2 $0xee, Z2, Z0, Z9
	VSHUFF64X2 $0x44, Z6, Z4, Z10
	VSHUFF64X2 $0xee, Z6, Z4, Z11
	VSHUFF64X2 $0x88, Z10, Z8, Z12
	VSHUFF64X2 $0xdd, Z10, Z8, Z13
	VSHUFF64X2 $0x88, Z11, Z9, Z14
	VSHUFF64X2 $0xdd, Z11, Z9, Z15
	VMOVUPD    Z12, 0(DI)
	VMOVUPD    Z13, 128(DI)
	VMOVUPD    Z14, 256(DI)
	VMOVUPD    Z15, 384(DI)
	VSHUFF64X2 $0x44, Z3, Z1, Z8
	VSHUFF64X2 $0xee, Z3, Z1, Z9
	VSHUFF64X2 $0x44, Z7, Z5, Z10
	VSHUFF64X2 $0xee, Z7, Z5, Z11
	VSHUFF64X2 $0x88, Z10, Z8, Z12
	VSHUFF64X2 $0xdd, Z10, Z8, Z13
	VSHUFF64X2 $0x88, Z11, Z9, Z14
	VSHUFF64X2 $0xdd, Z11, Z9, Z15
	VMOVUPD    Z12, 64(DI)
	VMOVUPD    Z13, 192(DI)
	VMOVUPD    Z14, 320(DI)
	VMOVUPD    Z15, 448(DI)
	ADDQ       $64, AX
	ADDQ       $64, BX
	ADDQ       $64, DX
	ADDQ       $512, DI
	INCQ       R11
	CMPQ       R11, R8
	JLT        octgroup

octdone:
	MOVQ R11, ret+56(FP)
	VZEROUPPER
	RET
