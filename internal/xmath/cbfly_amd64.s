// The lane routines of cbfly.go at YMM width, two complex128 lanes per
// register, and their W entries: each loads its arguments into general
// registers and continues in the ZMM twin (cbfly_avx512_amd64.s) when
// its last argument is set, in the YMM body otherwise. Both bodies are
// cbfly_amd64.h's text. The YMM forms cover whole pairs of lanes; the Go
// body finishes an odd lane. permGather has no twin.

#include "textflag.h"

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
#define V12 Y12
#define V13 Y13
#define V14 Y14
#define V15 Y15
#define VB 32
#define LANES 2
#define VSHIFT 1
#define RE $0x0
#define IM $0xf
#define SWAP $0x5
#define CBCAST(m, v) VBROADCASTF128 m, v
#define NVEC(n, tmp) MOVQ n, CX; SHRQ $1, CX
#define LASTVEC
#define ROWVEC
#define LD(m, v) VMOVUPD m, v
#define ST(v, m) VMOVUPD v, m
#define NEGRE qsigns<>(SB)
#define NEGSETUP
#define W3M1 (BX)
#define W3M2 32(BX)
#define W3SETUP

// PSWAP swaps the lanes of every pair, PBLEND takes lo's upper lanes
// from hi; a dft4 half is one register, [a b] or [c d].
#define PSWAP(v, out) VPERM2F128 $0x01, v, v, out
#define PBLEND(hi, lo) VBLENDPD $0xc, hi, lo, lo
#define PSETUP
#define DFT4LD(ab, cd, t0, t1) VMOVUPD (DI), ab; VMOVUPD 32(DI), cd
#define DFT4ST(o0, o1, t0, t1) VMOVUPD o0, (DI); VMOVUPD o1, 32(DI)

// LANEPAIR: out = [even odd] from the broadcasts even and odd.
#define LANEPAIR(odd, even, out) VPERM2F128 $0x20, odd, even, out

// STORET stores the lanes of v to base and base+dl.
#define STORET(v, vx, base) VMOVUPD vx, (base); VEXTRACTF128 $1, v, (base)(R10*1)

// TBLOCK transposes one 2x2 block.
#define TBLOCK \
	VMOVUPD    (BX), Y0          \ // src[b][a], src[b][a+1]
	VMOVUPD    (BX)(R9*1), Y1    \ // src[b+1][a], src[b+1][a+1]
	VPERM2F128 $0x20, Y1, Y0, Y2 \ // dst[a][b], dst[a][b+1]
	VPERM2F128 $0x31, Y1, Y0, Y3 \ // dst[a+1][b], dst[a+1][b+1]
	VXORPD     Y14, Y2, Y2       \
	VXORPD     Y15, Y3, Y3       \
	VMOVUPD    Y2, (DX)          \
	VMOVUPD    Y3, (DX)(R12*1)

#include "cbfly_amd64.h"

// TO_ZMM continues in the ZMM twin zr when the flag at fp, the W
// entry's last argument, is set.
#define TO_ZMM(fp, zr) \
	CMPB fp, $0 \
	JEQ  2(PC)  \
	JMP  zr

// func r4StageTwW(x *complex128, n, h int, tw1, tw2 *complex128, inverse, zmm bool)
TEXT ·r4StageTwW(SB), NOSPLIT, $0-42
	MOVQ    x+0(FP), DI
	MOVQ    n+8(FP), R8
	MOVQ    h+16(FP), R9
	MOVQ    tw1+24(FP), R10
	MOVQ    tw2+32(FP), R11
	MOVBQZX inverse+40(FP), BX
	TO_ZMM(zmm+41(FP), ·r4StageTwZ(SB))
	R4STAGETW

// func r4ColsStageW(x *complex128, n, h, w, nl int, tw1, tw2 *complex128, inverse, zmm bool)
TEXT ·r4ColsStageW(SB), NOSPLIT, $0-58
	MOVQ    x+0(FP), DI
	MOVQ    n+8(FP), R8
	MOVQ    h+16(FP), R9
	MOVQ    w+24(FP), R10
	MOVQ    nl+32(FP), R13
	MOVQ    tw1+40(FP), R11
	MOVQ    tw2+48(FP), R12
	MOVBQZX inverse+56(FP), BX
	TO_ZMM(zmm+57(FP), ·r4ColsStageZ(SB))
	R4COLSSTAGE

// func dft4W(x *complex128, n int, inverse, zmm bool)
TEXT ·dft4W(SB), NOSPLIT, $0-18
	MOVQ    x+0(FP), DI
	MOVQ    n+8(FP), R8
	MOVBQZX inverse+16(FP), BX
	TO_ZMM(zmm+17(FP), ·dft4Z(SB))
	DFT4

// func addSubW(a, b, x, y *complex128, n int, zmm bool)
TEXT ·addSubW(SB), NOSPLIT, $0-41
	MOVQ a+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ x+16(FP), DX
	MOVQ y+24(FP), AX
	MOVQ n+32(FP), R8
	TO_ZMM(zmm+40(FP), ·addSubZ(SB))
	ADDSUB

// func scaleW(dst, src *complex128, n int, s0, s1 float64, zmm bool)
TEXT ·scaleW(SB), NOSPLIT, $0-41
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), R8
	LEAQ s0+24(FP), AX
	TO_ZMM(zmm+40(FP), ·scaleZ(SB))
	SCALE

// func bfly2W(dst *complex128, ds int, src *complex128, ss, n int, tw complex128, zmm bool)
TEXT ·bfly2W(SB), NOSPLIT, $0-57
	MOVQ dst+0(FP), DI
	MOVQ ds+8(FP), R12
	MOVQ src+16(FP), SI
	MOVQ ss+24(FP), R9
	MOVQ n+32(FP), R8
	LEAQ tw+40(FP), AX
	TO_ZMM(zmm+56(FP), ·bfly2Z(SB))
	BFLY2

// func bfly3W(dst *complex128, ds int, src *complex128, ss, n int, w1, w2 complex128, inverse, zmm bool)
TEXT ·bfly3W(SB), NOSPLIT, $0-74
	MOVQ    dst+0(FP), DI
	MOVQ    ds+8(FP), R12
	MOVQ    src+16(FP), SI
	MOVQ    ss+24(FP), R9
	MOVQ    n+32(FP), R8
	LEAQ    w1+40(FP), AX
	MOVBQZX inverse+72(FP), BX
	TO_ZMM(zmm+73(FP), ·bfly3Z(SB))
	BFLY3

// func bfly3StageScaledW(dst *complex128, ds int, src *complex128, ss, n, m int, tw *complex128, inverse bool, s0, s1 float64, alt, zmm bool)
TEXT ·bfly3StageScaledW(SB), NOSPLIT, $0-82
	MOVQ    dst+0(FP), DI
	MOVQ    ds+8(FP), R10
	MOVQ    src+16(FP), SI
	MOVQ    ss+24(FP), R9
	MOVQ    n+32(FP), R13
	MOVQ    m+40(FP), R8
	MOVQ    tw+48(FP), R11
	MOVBQZX inverse+56(FP), BX
	LEAQ    s0+64(FP), AX
	MOVBQZX alt+80(FP), DX
	TO_ZMM(zmm+81(FP), ·bfly3StageScaledZ(SB))
	BFLY3STAGESCALED

// func bfly3StageTW(dst *complex128, dl int, src *complex128, ss, n, m int, tw *complex128, inverse, zmm bool)
TEXT ·bfly3StageTW(SB), NOSPLIT, $0-58
	MOVQ    dst+0(FP), DI
	MOVQ    dl+8(FP), R10
	MOVQ    src+16(FP), SI
	MOVQ    ss+24(FP), R9
	MOVQ    n+32(FP), R14
	MOVQ    m+40(FP), R8
	MOVQ    tw+48(FP), R11
	MOVBQZX inverse+56(FP), BX
	TO_ZMM(zmm+57(FP), ·bfly3StageTZ(SB))
	BFLY3STAGET

// func dft8W(dst *complex128, ds int, src *complex128, ss, n int, inverse, zmm bool)
TEXT ·dft8W(SB), NOSPLIT, $0-42
	MOVQ    dst+0(FP), DI
	MOVQ    ds+8(FP), R12
	MOVQ    src+16(FP), SI
	MOVQ    ss+24(FP), R9
	MOVQ    n+32(FP), R8
	MOVBQZX inverse+40(FP), BX
	TO_ZMM(zmm+41(FP), ·dft8Z(SB))
	DFT8

// func transposeW(dst *complex128, ds int, src *complex128, ss, na, nb, mode int, zmm bool)
TEXT ·transposeW(SB), NOSPLIT, $0-57
	MOVQ dst+0(FP), DI
	MOVQ ds+8(FP), R12
	MOVQ src+16(FP), SI
	MOVQ ss+24(FP), R9
	MOVQ na+32(FP), R10
	MOVQ nb+40(FP), R11
	MOVQ mode+48(FP), AX
	TO_ZMM(zmm+56(FP), ·transposeZ(SB))
	TRANSPOSE

// Both sign bits of one complex128.
DATA negBoth<>+0(SB)/8, $0x8000000000000000
DATA negBoth<>+8(SB)/8, $0x8000000000000000
GLOBL negBoth<>(SB), RODATA, $16

// func permGather(dst, src *complex128, perm *int32, n int, neg, addSub bool)
// dst[i] = src[perm[i]] for i < n, negated when neg is set; with
// addSub, each pair becomes a+b, a-b (n even).
TEXT ·permGather(SB), NOSPLIT, $0-34
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ perm+16(FP), DX
	MOVQ n+24(FP), CX
	VXORPD X2, X2, X2
	CMPB   neg+32(FP), $0
	JEQ    pgmode
	VMOVUPD negBoth<>(SB), X2
pgmode:
	CMPB addSub+33(FP), $0
	JNE  pgr2

pgloop:
	MOVLQSX (DX), AX
	SHLQ    $4, AX
	VMOVUPD (SI)(AX*1), X0
	VXORPD  X2, X0, X0
	VMOVUPD X0, (DI)
	ADDQ    $4, DX
	ADDQ    $16, DI
	DECQ    CX
	JNZ     pgloop
	RET

pgr2:
	MOVLQSX (DX), AX
	MOVLQSX 4(DX), BX
	SHLQ    $4, AX
	SHLQ    $4, BX
	VMOVUPD (SI)(AX*1), X0
	VMOVUPD (SI)(BX*1), X1
	VXORPD  X2, X0, X0
	VXORPD  X2, X1, X1
	VADDPD  X1, X0, X3
	VSUBPD  X1, X0, X4
	VMOVUPD X3, (DI)
	VMOVUPD X4, 16(DI)
	ADDQ    $8, DX
	ADDQ    $32, DI
	SUBQ    $2, CX
	JNZ     pgr2
	RET
