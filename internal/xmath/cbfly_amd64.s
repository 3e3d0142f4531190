// Fused radix-4 complex butterflies, two complex128 lanes per YMM.
//
// Complex multiply uses two duplicated-element multiplies and
// VADDSUBPD (no FMA): for t = w*v,
//   p1 = [vr*wr, vr*wi]   (re-dup(v) * w)
//   p2 = [vi*wi, vi*wr]   (im-dup(v) * swap(w))
//   t  = addsub(p1, p2) = [vr*wr - vi*wi, vr*wi + vi*wr]
// These are exactly the products and sums of Go's complex128 multiply,
// so the vector loops are bitwise equal to the scalar fallback.
//
// The w3 = -i*w2 twiddle is built by swapping w2's halves and flipping
// the sign of the odd (imaginary) qword — both exact operations.

#include "textflag.h"

// Sign mask that negates the odd (imaginary) float64 of each lane.
DATA signOdd<>+0(SB)/8, $0x0000000000000000
DATA signOdd<>+8(SB)/8, $0x8000000000000000
DATA signOdd<>+16(SB)/8, $0x0000000000000000
DATA signOdd<>+24(SB)/8, $0x8000000000000000
GLOBL signOdd<>(SB), RODATA, $32

// Sign mask that negates the even (real) float64 of each lane, used to
// build the inverse-direction w3 = +i*w2 = [-w2i, w2r] from swap(w2).
DATA signEven<>+0(SB)/8, $0x8000000000000000
DATA signEven<>+8(SB)/8, $0x0000000000000000
DATA signEven<>+16(SB)/8, $0x8000000000000000
DATA signEven<>+24(SB)/8, $0x0000000000000000
GLOBL signEven<>(SB), RODATA, $32

// The butterfly body shared by both loops. In: data in Y0..Y3
// (a, b, c, d), twiddles in Y10/Y11 (w1, swap(w1)), Y12/Y13
// (w2, swap(w2)), Y14/Y15 (w3, swap(w3)). Out: a', b', c', d' in
// Y2, Y4, Y3, Y5.
#define R4BODY \
	VSHUFPD   $0x0, Y1, Y1, Y4  \ // re-dup(b)
	VSHUFPD   $0xf, Y1, Y1, Y5  \ // im-dup(b)
	VMULPD    Y10, Y4, Y4       \
	VMULPD    Y11, Y5, Y5       \
	VADDSUBPD Y5, Y4, Y4        \ // tb = w1*b
	VSHUFPD   $0x0, Y3, Y3, Y5  \
	VSHUFPD   $0xf, Y3, Y3, Y6  \
	VMULPD    Y10, Y5, Y5       \
	VMULPD    Y11, Y6, Y6       \
	VADDSUBPD Y6, Y5, Y5        \ // td = w1*d
	VADDPD    Y4, Y0, Y6        \ // a1 = a + tb
	VSUBPD    Y4, Y0, Y7        \ // b1 = a - tb
	VADDPD    Y5, Y2, Y8        \ // c1 = c + td
	VSUBPD    Y5, Y2, Y9        \ // d1 = c - td
	VSHUFPD   $0x0, Y8, Y8, Y0  \
	VSHUFPD   $0xf, Y8, Y8, Y1  \
	VMULPD    Y12, Y0, Y0       \
	VMULPD    Y13, Y1, Y1       \
	VADDSUBPD Y1, Y0, Y0        \ // tc = w2*c1
	VSHUFPD   $0x0, Y9, Y9, Y1  \
	VSHUFPD   $0xf, Y9, Y9, Y2  \
	VMULPD    Y14, Y1, Y1       \
	VMULPD    Y15, Y2, Y2       \
	VADDSUBPD Y2, Y1, Y1        \ // te = w3*d1
	VADDPD    Y0, Y6, Y2        \ // a' = a1 + tc
	VSUBPD    Y0, Y6, Y3        \ // c' = a1 - tc
	VADDPD    Y1, Y7, Y4        \ // b' = b1 + te
	VSUBPD    Y1, Y7, Y5          // d' = b1 - te

// func r4StageTwPairs(x *complex128, n, h int, tw1, tw2 *complex128)
TEXT ·r4StageTwPairs(SB), NOSPLIT, $0-40
	MOVQ x+0(FP), DI
	MOVQ n+8(FP), R8
	MOVQ h+16(FP), R9
	MOVQ tw1+24(FP), R10
	MOVQ tw2+32(FP), R11

	MOVQ R9, R12
	SHLQ $4, R12              // R12 = h*16, leg stride in bytes
	SHLQ $4, R8
	LEAQ (DI)(R8*1), R8       // R8 = end pointer
	MOVQ DI, BX               // BX = current block base

baseloop:
	MOVQ BX, SI               // SI = &a[j]
	MOVQ R10, R13             // tw1 cursor
	MOVQ R11, R14             // tw2 cursor
	MOVQ R9, CX
	SHRQ $1, CX               // h/2 butterfly pairs

jloop:
	// Twiddle pair: w1, w2, derived swaps and w3 = -i*w2.
	VMOVUPD (R13), Y10
	VSHUFPD $0x5, Y10, Y10, Y11
	VMOVUPD (R14), Y12
	VSHUFPD $0x5, Y12, Y12, Y13
	VXORPD  signOdd<>(SB), Y13, Y14
	VSHUFPD $0x5, Y14, Y14, Y15

	// Leg pointers: a=SI, b=SI+h, c=SI+2h, d=SI+3h (bytes via R12).
	LEAQ (SI)(R12*1), DX
	LEAQ (SI)(R12*2), AX
	LEAQ (AX)(R12*1), R15

	VMOVUPD (SI), Y0
	VMOVUPD (DX), Y1
	VMOVUPD (AX), Y2
	VMOVUPD (R15), Y3

	R4BODY

	VMOVUPD Y2, (SI)
	VMOVUPD Y4, (DX)
	VMOVUPD Y3, (AX)
	VMOVUPD Y5, (R15)

	ADDQ $32, SI
	ADDQ $32, R13
	ADDQ $32, R14
	DECQ CX
	JNZ  jloop

	LEAQ (BX)(R12*4), BX      // next 4h block
	CMPQ BX, R8
	JB   baseloop

	VZEROUPPER
	RET

// func r4StageTwPairsInv(x *complex128, n, h int, tw1, tw2 *complex128)
// Identical to r4StageTwPairs except w3 = +i*w2 (signEven mask): the
// caller passes conjugated twiddle tables for the backward transform.
TEXT ·r4StageTwPairsInv(SB), NOSPLIT, $0-40
	MOVQ x+0(FP), DI
	MOVQ n+8(FP), R8
	MOVQ h+16(FP), R9
	MOVQ tw1+24(FP), R10
	MOVQ tw2+32(FP), R11

	MOVQ R9, R12
	SHLQ $4, R12
	SHLQ $4, R8
	LEAQ (DI)(R8*1), R8
	MOVQ DI, BX

invbaseloop:
	MOVQ BX, SI
	MOVQ R10, R13
	MOVQ R11, R14
	MOVQ R9, CX
	SHRQ $1, CX

invjloop:
	VMOVUPD (R13), Y10
	VSHUFPD $0x5, Y10, Y10, Y11
	VMOVUPD (R14), Y12
	VSHUFPD $0x5, Y12, Y12, Y13
	VXORPD  signEven<>(SB), Y13, Y14
	VSHUFPD $0x5, Y14, Y14, Y15

	LEAQ (SI)(R12*1), DX
	LEAQ (SI)(R12*2), AX
	LEAQ (AX)(R12*1), R15

	VMOVUPD (SI), Y0
	VMOVUPD (DX), Y1
	VMOVUPD (AX), Y2
	VMOVUPD (R15), Y3

	R4BODY

	VMOVUPD Y2, (SI)
	VMOVUPD Y4, (DX)
	VMOVUPD Y3, (AX)
	VMOVUPD Y5, (R15)

	ADDQ $32, SI
	ADDQ $32, R13
	ADDQ $32, R14
	DECQ CX
	JNZ  invjloop

	LEAQ (BX)(R12*4), BX
	CMPQ BX, R8
	JB   invbaseloop

	VZEROUPPER
	RET

// func r4ColsPairs(a, b, c, d *complex128, np int, w1, w2 complex128)
TEXT ·r4ColsPairs(SB), NOSPLIT, $0-72
	MOVQ a+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ c+16(FP), DX
	MOVQ d+24(FP), AX
	MOVQ np+32(FP), CX

	VBROADCASTF128 w1+40(FP), Y10
	VSHUFPD        $0x5, Y10, Y10, Y11
	VBROADCASTF128 w2+56(FP), Y12
	VSHUFPD        $0x5, Y12, Y12, Y13
	VXORPD         signOdd<>(SB), Y13, Y14
	VSHUFPD        $0x5, Y14, Y14, Y15

pairloop:
	VMOVUPD (DI), Y0
	VMOVUPD (SI), Y1
	VMOVUPD (DX), Y2
	VMOVUPD (AX), Y3

	R4BODY

	VMOVUPD Y2, (DI)
	VMOVUPD Y4, (SI)
	VMOVUPD Y3, (DX)
	VMOVUPD Y5, (AX)

	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, AX
	DECQ CX
	JNZ  pairloop

	VZEROUPPER
	RET

// func r4ColsPairsInv(a, b, c, d *complex128, np int, w1, w2 complex128)
// Backward-direction broadcast butterfly: w3 = +i*w2 (signEven mask).
TEXT ·r4ColsPairsInv(SB), NOSPLIT, $0-72
	MOVQ a+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ c+16(FP), DX
	MOVQ d+24(FP), AX
	MOVQ np+32(FP), CX

	VBROADCASTF128 w1+40(FP), Y10
	VSHUFPD        $0x5, Y10, Y10, Y11
	VBROADCASTF128 w2+56(FP), Y12
	VSHUFPD        $0x5, Y12, Y12, Y13
	VXORPD         signEven<>(SB), Y13, Y14
	VSHUFPD        $0x5, Y14, Y14, Y15

invpairloop:
	VMOVUPD (DI), Y0
	VMOVUPD (SI), Y1
	VMOVUPD (DX), Y2
	VMOVUPD (AX), Y3

	R4BODY

	VMOVUPD Y2, (DI)
	VMOVUPD Y4, (SI)
	VMOVUPD Y3, (DX)
	VMOVUPD Y5, (AX)

	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, AX
	DECQ CX
	JNZ  invpairloop

	VZEROUPPER
	RET

// Lane-parallel mixed-radix butterflies (see cbfly.go). Rows are
// equally strided: row j of the source at src + j*ss elements. Each
// iteration covers one pair of lanes; the arithmetic per lane is the
// sequence of multiplies, adds and subtracts of the Go bodies.

DATA half<>+0(SB)/8, $0.5
GLOBL half<>(SB), RODATA, $8
DATA sin60<>+0(SB)/8, $0.8660254037844386
GLOBL sin60<>(SB), RODATA, $8
DATA invSqrt2<>+0(SB)/8, $0.7071067811865476
GLOBL invSqrt2<>(SB), RODATA, $8

// CMUL(v, w, ws, t, out): out = v*w for w in w/ws = swap(w); t scratch.
#define CMUL(v, w, ws, t, out) \
	VSHUFPD   $0x0, v, v, out \
	VSHUFPD   $0xf, v, v, t   \
	VMULPD    w, out, out     \
	VMULPD    ws, t, t        \
	VADDSUBPD t, out, out

// QUARTER(v, mask, out): out = -i*v (mask = signOdd) or +i*v (signEven).
#define QUARTER(v, mask, out) \
	VSHUFPD $0x5, v, v, out \
	VXORPD  mask, out, out

// func bfly2Pairs(dst *complex128, ds int, src *complex128, ss, np int, tw complex128)
TEXT ·bfly2Pairs(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ ds+8(FP), R12
	MOVQ src+16(FP), SI
	MOVQ ss+24(FP), R9
	MOVQ np+32(FP), CX
	SHLQ $4, R12
	SHLQ $4, R9

	VBROADCASTF128 tw+40(FP), Y10
	VSHUFPD        $0x5, Y10, Y10, Y11

b2loop:
	VMOVUPD (SI), Y0
	VMOVUPD (SI)(R9*1), Y1
	CMUL(Y1, Y10, Y11, Y3, Y2)
	VADDPD  Y2, Y0, Y4
	VSUBPD  Y2, Y0, Y5
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, (DI)(R12*1)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     b2loop

	VZEROUPPER
	RET

// func bfly3Pairs(dst *complex128, ds int, src *complex128, ss, np int, w1, w2 complex128, inverse bool)
TEXT ·bfly3Pairs(SB), NOSPLIT, $0-73
	MOVQ dst+0(FP), DI
	MOVQ ds+8(FP), R12
	MOVQ src+16(FP), SI
	MOVQ ss+24(FP), R9
	MOVQ np+32(FP), CX
	SHLQ $4, R12
	SHLQ $4, R9

	VBROADCASTF128 w1+40(FP), Y10
	VSHUFPD        $0x5, Y10, Y10, Y11
	VBROADCASTF128 w2+56(FP), Y12
	VSHUFPD        $0x5, Y12, Y12, Y13
	VMOVUPD        signOdd<>(SB), Y14
	CMPB           inverse+72(FP), $0
	JEQ            b3dir
	VMOVUPD        signEven<>(SB), Y14
b3dir:
	VBROADCASTSD half<>(SB), Y15
	VBROADCASTSD sin60<>(SB), Y9

b3loop:
	VMOVUPD (SI), Y0
	VMOVUPD (SI)(R9*1), Y1
	VMOVUPD (SI)(R9*2), Y2
	CMUL(Y1, Y10, Y11, Y4, Y3)    // b*w1
	CMUL(Y2, Y12, Y13, Y5, Y4)    // c*w2
	VADDPD  Y4, Y3, Y5            // t1 = b + c
	VSUBPD  Y4, Y3, Y6            // b - c
	VMULPD  Y15, Y5, Y7           // 0.5*t1
	VSUBPD  Y7, Y0, Y7            // t2 = a - 0.5*t1
	QUARTER(Y6, Y14, Y6)
	VMULPD  Y9, Y6, Y6            // t3 = sin60 * quarter(b - c)
	VADDPD  Y5, Y0, Y0            // a + t1
	VADDPD  Y6, Y7, Y1            // t2 + t3
	VSUBPD  Y6, Y7, Y2            // t2 - t3
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (DI)(R12*1)
	VMOVUPD Y2, (DI)(R12*2)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     b3loop

	VZEROUPPER
	RET

// func dft8Pairs(dst *complex128, ds int, src *complex128, ss, np int, inverse bool)
TEXT ·dft8Pairs(SB), NOSPLIT, $0-41
	MOVQ dst+0(FP), DI
	MOVQ ds+8(FP), R12
	MOVQ src+16(FP), SI
	MOVQ ss+24(FP), R9
	MOVQ np+32(FP), CX
	SHLQ $4, R12
	SHLQ $4, R9
	LEAQ (R9)(R9*2), R10          // 3 source rows
	LEAQ (R12)(R12*2), R13        // 3 destination rows
	LEAQ (SI)(R9*4), R8           // source row 4
	LEAQ (DI)(R12*4), R11         // destination row 4

	VMOVUPD signOdd<>(SB), Y15
	CMPB    inverse+40(FP), $0
	JEQ     d8dir
	VMOVUPD signEven<>(SB), Y15
d8dir:
	VBROADCASTSD invSqrt2<>(SB), Y14

d8loop:
	// Even half: x0, x4, x2, x6.
	VMOVUPD (SI), Y0
	VMOVUPD (R8), Y1
	VADDPD  Y1, Y0, Y2            // t0
	VSUBPD  Y1, Y0, Y3            // t1
	VMOVUPD (SI)(R9*2), Y0
	VMOVUPD (R8)(R9*2), Y1
	VADDPD  Y1, Y0, Y4            // t2
	VSUBPD  Y1, Y0, Y5
	QUARTER(Y5, Y15, Y5)          // t3
	VADDPD  Y4, Y2, Y6            // e0
	VSUBPD  Y4, Y2, Y7            // e2
	VADDPD  Y5, Y3, Y8            // e1
	VSUBPD  Y5, Y3, Y9            // e3
	// Odd half: x1, x5, x3, x7.
	VMOVUPD (SI)(R9*1), Y0
	VMOVUPD (R8)(R9*1), Y1
	VADDPD  Y1, Y0, Y2            // u0
	VSUBPD  Y1, Y0, Y3            // u1
	VMOVUPD (SI)(R10*1), Y0
	VMOVUPD (R8)(R10*1), Y1
	VADDPD  Y1, Y0, Y4            // u2
	VSUBPD  Y1, Y0, Y5
	QUARTER(Y5, Y15, Y5)          // u3
	VADDPD  Y4, Y2, Y10           // o0
	VSUBPD  Y4, Y2, Y11           // o2
	VADDPD  Y5, Y3, Y12           // o1
	VSUBPD  Y5, Y3, Y13           // o3
	// Odd eighth-root twiddles.
	QUARTER(Y12, Y15, Y0)
	VADDPD  Y0, Y12, Y12
	VMULPD  Y14, Y12, Y12         // o1 = s*(o1 + quarter(o1))
	QUARTER(Y11, Y15, Y11)        // o2 = quarter(o2)
	QUARTER(Y13, Y15, Y0)
	VSUBPD  Y13, Y0, Y13
	VMULPD  Y14, Y13, Y13         // o3 = s*(quarter(o3) - o3)
	// Radix-2 combine.
	VADDPD  Y10, Y6, Y0
	VSUBPD  Y10, Y6, Y1
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (R11)
	VADDPD  Y12, Y8, Y0
	VSUBPD  Y12, Y8, Y1
	VMOVUPD Y0, (DI)(R12*1)
	VMOVUPD Y1, (R11)(R12*1)
	VADDPD  Y11, Y7, Y0
	VSUBPD  Y11, Y7, Y1
	VMOVUPD Y0, (DI)(R12*2)
	VMOVUPD Y1, (R11)(R12*2)
	VADDPD  Y13, Y9, Y0
	VSUBPD  Y13, Y9, Y1
	VMOVUPD Y0, (DI)(R13*1)
	VMOVUPD Y1, (R11)(R13*1)

	ADDQ $32, SI
	ADDQ $32, R8
	ADDQ $32, DI
	ADDQ $32, R11
	DECQ CX
	JNZ  d8loop

	VZEROUPPER
	RET

// func scalePairs(dst, src *complex128, np int, s0, s1 float64)
// dst[2p], dst[2p+1] = s0*src[2p], s1*src[2p+1].
TEXT ·scalePairs(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ np+16(FP), CX
	VBROADCASTSD s0+24(FP), Y0
	VBROADCASTSD s1+32(FP), Y1
	VPERM2F128   $0x20, Y1, Y0, Y0    // [s0 s0 s1 s1]

scloop:
	VMULPD  (SI), Y0, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     scloop

	VZEROUPPER
	RET

// Masks negating the low or the high complex128 of a YMM.
DATA negLo<>+0(SB)/8, $0x8000000000000000
DATA negLo<>+8(SB)/8, $0x8000000000000000
DATA negLo<>+16(SB)/8, $0x0000000000000000
DATA negLo<>+24(SB)/8, $0x0000000000000000
GLOBL negLo<>(SB), RODATA, $32
DATA negHi<>+0(SB)/8, $0x0000000000000000
DATA negHi<>+8(SB)/8, $0x0000000000000000
DATA negHi<>+16(SB)/8, $0x8000000000000000
DATA negHi<>+24(SB)/8, $0x8000000000000000
GLOBL negHi<>(SB), RODATA, $32

// func transposePairs(dst *complex128, ds int, src *complex128, ss, npa, npb, mode int)
// 2x2 blocks: dst[a*ds+b] = src[b*ss+a] for a < 2*npa, b < 2*npb.
// mode 1 negates the elements with a+b odd, mode 2 those with a+b even.
TEXT ·transposePairs(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ ds+8(FP), R12
	MOVQ src+16(FP), SI
	MOVQ ss+24(FP), R9
	MOVQ npa+32(FP), R10
	MOVQ npb+40(FP), R11
	MOVQ mode+48(FP), AX
	SHLQ $4, R12
	SHLQ $4, R9

	// Y4 flips destination row a (even a), Y5 row a+1; b is even at
	// the start of every block.
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	CMPQ   AX, $1
	JNE    trmode2
	VMOVUPD negHi<>(SB), Y4
	VMOVUPD negLo<>(SB), Y5
trmode2:
	CMPQ   AX, $2
	JNE    trrows
	VMOVUPD negLo<>(SB), Y4
	VMOVUPD negHi<>(SB), Y5

trrows:
	MOVQ SI, BX                       // source column pair a
	MOVQ DI, DX                       // destination row pair a
	MOVQ R11, CX
trcols:
	VMOVUPD    (BX), Y0               // src[b][a], src[b][a+1]
	VMOVUPD    (BX)(R9*1), Y1         // src[b+1][a], src[b+1][a+1]
	VPERM2F128 $0x20, Y1, Y0, Y2      // dst[a][b], dst[a][b+1]
	VPERM2F128 $0x31, Y1, Y0, Y3      // dst[a+1][b], dst[a+1][b+1]
	VXORPD     Y4, Y2, Y2
	VXORPD     Y5, Y3, Y3
	VMOVUPD    Y2, (DX)
	VMOVUPD    Y3, (DX)(R12*1)
	LEAQ       (BX)(R9*2), BX
	ADDQ       $32, DX
	DECQ       CX
	JNZ        trcols

	ADDQ $32, SI
	LEAQ (DI)(R12*2), DI
	DECQ R10
	JNZ  trrows

	VZEROUPPER
	RET
