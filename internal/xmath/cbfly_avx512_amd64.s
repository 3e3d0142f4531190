// The lane routines of cbfly.go at ZMM width: four complex128 per
// register, for the avx512 tier. Each performs, per lane, the
// multiplies, adds and subtracts of the YMM pair loops in
// cbfly_amd64.s and of the Go bodies, as separate VMULPD/VADDPD/VSUBPD
// (no FMA), so the three tiers agree bit for bit.
//
// There is no VADDSUBPD at ZMM width. A complex product t = v*w is
//   p1 = re-dup(v) * w              = [vr*wr, vr*wi]
//   p2 = im-dup(v) * [-wi, wr]      = [-(vi*wi), vi*wr]
//   t  = p1 + p2                    = [vr*wr - vi*wi, vr*wi + vi*wr]
// which is the YMM addsub exactly: x*(-y) is -(x*y) and x + (-y) is
// x - y in IEEE arithmetic. The negated swap [-wi, wr] of a twiddle is
// built once per twiddle (swap, then flip the even sign).
//
// Routines over n lanes run ceil(n/4) iterations; the last one loads
// and stores under the opmask K1 only the lanes that exist.

#include "textflag.h"

// Sign masks of one complex128, broadcast to every lane: negate the
// odd (imaginary) or the even (real) float64.
DATA zsignOdd<>+0(SB)/8, $0x0000000000000000
DATA zsignOdd<>+8(SB)/8, $0x8000000000000000
GLOBL zsignOdd<>(SB), RODATA, $16
DATA zsignEven<>+0(SB)/8, $0x8000000000000000
DATA zsignEven<>+8(SB)/8, $0x0000000000000000
GLOBL zsignEven<>(SB), RODATA, $16

DATA zhalf<>+0(SB)/8, $0.5
GLOBL zhalf<>(SB), RODATA, $8
DATA zsin60<>+0(SB)/8, $0.8660254037844386
GLOBL zsin60<>(SB), RODATA, $8
DATA zinvSqrt2<>+0(SB)/8, $0.7071067811865476
GLOBL zinvSqrt2<>(SB), RODATA, $8

// QUADS(n) leaves ceil(n/4) in CX, sets K1 to all eight qwords and K2
// to the qwords of the lanes of the last quad. Clobbers R8.
#define QUADS(n) \
	MOVQ  n, CX           \
	DECQ  CX              \
	ANDQ  $3, CX          \
	LEAQ  2(CX)(CX*1), CX \
	MOVL  $1, R8          \
	SHLL  CX, R8          \
	DECL  R8              \
	KMOVB R8, K2          \
	MOVL  $0xff, R8       \
	KMOVB R8, K1          \
	MOVQ  n, CX           \
	ADDQ  $3, CX          \
	SHRQ  $2, CX

// LASTQUAD switches K1 to the tail mask before the last iteration.
#define LASTQUAD \
	CMPQ  CX, $1 \
	JNE   2(PC)  \
	KMOVB K2, K1

// TWIDDLE(w, ws): ws = [-wi, wr] of every lane of w; Z31 holds
// zsignEven.
#define TWIDDLE(w, ws) \
	VSHUFPD $0x55, w, w, ws \
	VXORPD  Z31, ws, ws

// CMULZ(v, w, ws, t, out): out = v*w for ws = [-wi, wr]; t scratch.
#define CMULZ(v, w, ws, t, out) \
	VSHUFPD $0x00, v, v, out \
	VSHUFPD $0xff, v, v, t   \
	VMULPD  w, out, out      \
	VMULPD  ws, t, t         \
	VADDPD  t, out, out

// QUARTERZ(v, mask, out): out = -i*v (mask zsignOdd) or +i*v
// (zsignEven).
#define QUARTERZ(v, mask, out) \
	VSHUFPD $0x55, v, v, out \
	VXORPD  mask, out, out

// R4BODYZ is the fused radix-4 butterfly of cbfly_amd64.s's R4BODY.
// In: a, b, c, d in Z0..Z3; w1 in Z10/Z11, w2 in Z12/Z13, w3 in
// Z14/Z15 (each with its negated swap). Out: a', b', c', d' in Z2, Z4,
// Z3, Z5.
#define R4BODYZ \
	CMULZ(Z1, Z10, Z11, Z5, Z4) \ // tb = w1*b
	CMULZ(Z3, Z10, Z11, Z6, Z5) \ // td = w1*d
	VADDPD Z4, Z0, Z6           \ // a1 = a + tb
	VSUBPD Z4, Z0, Z7           \ // b1 = a - tb
	VADDPD Z5, Z2, Z8           \ // c1 = c + td
	VSUBPD Z5, Z2, Z9           \ // d1 = c - td
	CMULZ(Z8, Z12, Z13, Z1, Z0) \ // tc = w2*c1
	CMULZ(Z9, Z14, Z15, Z2, Z1) \ // te = w3*d1
	VADDPD Z0, Z6, Z2           \ // a' = a1 + tc
	VSUBPD Z0, Z6, Z3           \ // c' = a1 - tc
	VADDPD Z1, Z7, Z4           \ // b' = b1 + te
	VSUBPD Z1, Z7, Z5             // d' = b1 - te

// W3 builds w3 = -i*w2 (forward, Z30 = zsignOdd) or +i*w2 (inverse,
// Z30 = zsignEven) into Z14 and its negated swap into Z15, from w2 in
// Z12.
#define W3 \
	VSHUFPD $0x55, Z12, Z12, Z14 \
	VXORPD  Z30, Z14, Z14        \
	TWIDDLE(Z14, Z15)

// DIRMASK(inverse) loads the quarter-turn mask of the direction into
// Z30 and zsignEven into Z31.
#define DIRMASK(inverse) \
	VBROADCASTF64X2 zsignEven<>(SB), Z31 \
	VBROADCASTF64X2 zsignOdd<>(SB), Z30  \
	CMPB            inverse, $0          \
	JEQ             2(PC)                \
	VMOVAPD         Z31, Z30

// func r4ColsStageQuads(x *complex128, n, h, w int, tw1, tw2 *complex128, inverse bool)
// One fused radix-4 stage down the columns of a row-major n x w tile:
// butterfly t of every 4h-row block combines rows t, t+h, t+2h, t+3h
// with tw1[t], tw2[t] broadcast over the w lanes: R4ColsAt on every row
// quadruple of the stage in one loop, the last quad of each row under
// the opmask.
TEXT ·r4ColsStageQuads(SB), NOSPLIT, $0-49
	MOVQ x+0(FP), DI
	MOVQ h+16(FP), R9
	MOVQ w+24(FP), R10
	MOVQ tw1+32(FP), R11
	MOVQ tw2+40(FP), R12
	DIRMASK(inverse+48(FP))
	QUADS(R10)
	MOVQ  n+8(FP), R8
	MOVQ  CX, R13             // quads per row
	KMOVB K1, K3              // all lanes
	MOVQ  R10, R14
	SHLQ  $4, R14             // R14 = row stride in bytes
	MOVQ  R14, R15
	IMULQ R9, R15             // R15 = leg stride (h rows)
	IMULQ R14, R8
	ADDQ  DI, R8              // R8 = tile end
	SHLQ  $4, R9              // R9 = h*16, twiddle table end offset

r4csblk:
	XORQ DX, DX               // t*16
	MOVQ DI, SI               // row t of the block
r4cst:
	VBROADCASTF64X2 (R11)(DX*1), Z10
	TWIDDLE(Z10, Z11)
	VBROADCASTF64X2 (R12)(DX*1), Z12
	TWIDDLE(Z12, Z13)
	W3
	MOVQ  SI, AX
	LEAQ  (SI)(R15*2), BX
	ADDQ  R15, BX             // row t+3h
	MOVQ  R13, CX
	KMOVB K3, K1

r4cslane:
	LASTQUAD
	VMOVUPD.Z (AX), K1, Z0
	VMOVUPD.Z (AX)(R15*1), K1, Z1
	VMOVUPD.Z (AX)(R15*2), K1, Z2
	VMOVUPD.Z (BX), K1, Z3
	R4BODYZ
	VMOVUPD Z2, K1, (AX)
	VMOVUPD Z4, K1, (AX)(R15*1)
	VMOVUPD Z3, K1, (AX)(R15*2)
	VMOVUPD Z5, K1, (BX)
	ADDQ $64, AX
	ADDQ $64, BX
	DECQ CX
	JNZ  r4cslane

	ADDQ R14, SI
	ADDQ $16, DX
	CMPQ DX, R9
	JB   r4cst

	LEAQ (DI)(R15*4), DI
	CMPQ DI, R8
	JB   r4csblk

	VZEROUPPER
	RET

// func r4StageTwQuads(x *complex128, n, h int, tw1, tw2 *complex128, inverse bool)
// A fused radix-4 stage over n contiguous elements, four butterflies
// per iteration; h is a multiple of 4.
TEXT ·r4StageTwQuads(SB), NOSPLIT, $0-41
	MOVQ x+0(FP), DI
	MOVQ n+8(FP), R8
	MOVQ h+16(FP), R9
	MOVQ tw1+24(FP), R10
	MOVQ tw2+32(FP), R11
	DIRMASK(inverse+40(FP))

	MOVQ R9, R12
	SHLQ $4, R12              // R12 = h*16, leg stride in bytes
	SHLQ $4, R8
	LEAQ (DI)(R8*1), R8       // R8 = end pointer
	MOVQ DI, BX               // BX = current block base

r4sbase:
	MOVQ BX, SI
	MOVQ R10, R13
	MOVQ R11, R14
	MOVQ R9, CX
	SHRQ $2, CX               // h/4 butterfly quads

r4sloop:
	VMOVUPD (R13), Z10
	TWIDDLE(Z10, Z11)
	VMOVUPD (R14), Z12
	TWIDDLE(Z12, Z13)
	W3

	LEAQ (SI)(R12*1), DX
	LEAQ (SI)(R12*2), AX
	LEAQ (AX)(R12*1), R15

	VMOVUPD (SI), Z0
	VMOVUPD (DX), Z1
	VMOVUPD (AX), Z2
	VMOVUPD (R15), Z3
	R4BODYZ
	VMOVUPD Z2, (SI)
	VMOVUPD Z4, (DX)
	VMOVUPD Z3, (AX)
	VMOVUPD Z5, (R15)

	ADDQ $64, SI
	ADDQ $64, R13
	ADDQ $64, R14
	DECQ CX
	JNZ  r4sloop

	LEAQ (BX)(R12*4), BX
	CMPQ BX, R8
	JB   r4sbase

	VZEROUPPER
	RET

// func dft4Quads(x *complex128, nq int, inverse bool)
// One 4-point DFT per register: [a b c d] -> [a+b, a-b, c+d, c-d] by a
// 128-bit lane swap, then the quarter turn on the last lane and the
// half swap: [a1+c1, b1+e, a1-c1, b1-e].
TEXT ·dft4Quads(SB), NOSPLIT, $0-17
	MOVQ x+0(FP), DI
	MOVQ nq+8(FP), CX
	DIRMASK(inverse+16(FP))
	MOVL  $0xcc, R8
	KMOVB R8, K3              // complex lanes 1, 3
	MOVL  $0xc0, R8
	KMOVB R8, K4              // complex lane 3
	MOVL  $0xf0, R8
	KMOVB R8, K5              // complex lanes 2, 3

d4loop:
	VMOVUPD    (DI), Z0                 // [a b c d]
	VSHUFF64X2 $0xb1, Z0, Z0, Z1        // [b a d c]
	VADDPD     Z1, Z0, Z2               // [a+b, ., c+d, .]
	VSUBPD     Z0, Z1, Z3               // [., a-b, ., c-d]
	VMOVAPD    Z3, K3, Z2               // [a1 b1 c1 d1]
	QUARTERZ(Z2, Z30, Z3)
	VMOVAPD    Z3, K4, Z2               // [a1 b1 c1 e]
	VSHUFF64X2 $0x4e, Z2, Z2, Z4        // [c1 e a1 b1]
	VADDPD     Z4, Z2, Z5               // [a1+c1, b1+e, ., .]
	VSUBPD     Z2, Z4, Z6               // [., ., a1-c1, b1-e]
	VMOVAPD    Z6, K5, Z5
	VMOVUPD    Z5, (DI)
	ADDQ       $64, DI
	DECQ       CX
	JNZ        d4loop

	VZEROUPPER
	RET

// func addSubQuads(a, b, x, y *complex128, n int)
TEXT ·addSubQuads(SB), NOSPLIT, $0-40
	MOVQ a+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ x+16(FP), DX
	MOVQ y+24(FP), AX
	QUADS(n+32(FP))

asloop:
	LASTQUAD
	VMOVUPD.Z (DX), K1, Z0
	VMOVUPD.Z (AX), K1, Z1
	VADDPD    Z1, Z0, Z2
	VSUBPD    Z1, Z0, Z3
	VMOVUPD   Z2, K1, (DI)
	VMOVUPD   Z3, K1, (SI)
	ADDQ      $64, DI
	ADDQ      $64, SI
	ADDQ      $64, DX
	ADDQ      $64, AX
	DECQ      CX
	JNZ       asloop

	VZEROUPPER
	RET

// func scaleQuads(dst, src *complex128, n int, s0, s1 float64)
// dst[i] = src[i] scaled by s0 (even i) or s1 (odd i).
TEXT ·scaleQuads(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	VBROADCASTSD s0+24(FP), Z0
	VBROADCASTSD s1+32(FP), Z1
	VSHUFF64X2   $0x00, Z1, Z0, Z0      // [s0 s0 s0 s0 s1 s1 s1 s1]
	VSHUFF64X2   $0x88, Z0, Z0, Z0      // [s0 s0 s1 s1 s0 s0 s1 s1]
	QUADS(n+16(FP))

scloop:
	LASTQUAD
	VMOVUPD.Z (SI), K1, Z1
	VMULPD    Z0, Z1, Z1
	VMOVUPD   Z1, K1, (DI)
	ADDQ      $64, SI
	ADDQ      $64, DI
	DECQ      CX
	JNZ       scloop

	VZEROUPPER
	RET

// func bfly2Quads(dst *complex128, ds int, src *complex128, ss, n int, tw complex128)
TEXT ·bfly2Quads(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ ds+8(FP), R12
	MOVQ src+16(FP), SI
	MOVQ ss+24(FP), R9
	SHLQ $4, R12
	SHLQ $4, R9
	VBROADCASTF64X2 zsignEven<>(SB), Z31
	VBROADCASTF64X2 tw+40(FP), Z10
	TWIDDLE(Z10, Z11)
	QUADS(n+32(FP))

b2loop:
	LASTQUAD
	VMOVUPD.Z (SI), K1, Z0
	VMOVUPD.Z (SI)(R9*1), K1, Z1
	CMULZ(Z1, Z10, Z11, Z3, Z2)
	VADDPD    Z2, Z0, Z4
	VSUBPD    Z2, Z0, Z5
	VMOVUPD   Z4, K1, (DI)
	VMOVUPD   Z5, K1, (DI)(R12*1)
	ADDQ      $64, SI
	ADDQ      $64, DI
	DECQ      CX
	JNZ       b2loop

	VZEROUPPER
	RET

// B3CONST loads the quarter mask of the direction (Z14), 0.5 (Z15)
// and sin60 (Z9); B3SETUP also completes w1 (Z10/Z11) and w2
// (Z12/Z13) from their broadcasts in Z10 and Z12.
#define B3CONST(inverse) \
	DIRMASK(inverse)                 \
	VMOVAPD         Z30, Z14         \
	VBROADCASTSD    zhalf<>(SB), Z15 \
	VBROADCASTSD    zsin60<>(SB), Z9

#define B3SETUP(inverse) \
	B3CONST(inverse)  \
	TWIDDLE(Z10, Z11) \
	TWIDDLE(Z12, Z13)

// B3BODYZ: rows a, b, c in Z0..Z2 -> outputs a+t1, t2+t3, t2-t3 in
// Z0..Z2 (bfly3Rows' sequence).
#define B3BODYZ \
	CMULZ(Z1, Z10, Z11, Z4, Z3) \ // b*w1
	CMULZ(Z2, Z12, Z13, Z5, Z4) \ // c*w2
	VADDPD Z4, Z3, Z5           \ // t1 = b + c
	VSUBPD Z4, Z3, Z6           \ // b - c
	VMULPD Z15, Z5, Z7          \ // 0.5*t1
	VSUBPD Z7, Z0, Z7           \ // t2 = a - 0.5*t1
	QUARTERZ(Z6, Z14, Z6)       \
	VMULPD Z9, Z6, Z6           \ // t3 = sin60 * quarter(b - c)
	VADDPD Z5, Z0, Z0           \ // a + t1
	VADDPD Z6, Z7, Z1           \ // t2 + t3
	VSUBPD Z6, Z7, Z2             // t2 - t3

// func bfly3Quads(dst *complex128, ds int, src *complex128, ss, n int, w1, w2 complex128, inverse bool)
TEXT ·bfly3Quads(SB), NOSPLIT, $0-73
	MOVQ dst+0(FP), DI
	MOVQ ds+8(FP), R12
	MOVQ src+16(FP), SI
	MOVQ ss+24(FP), R9
	SHLQ $4, R12
	SHLQ $4, R9
	VBROADCASTF64X2 w1+40(FP), Z10
	VBROADCASTF64X2 w2+56(FP), Z12
	B3SETUP(inverse+72(FP))
	QUADS(n+32(FP))

b3loop:
	LASTQUAD
	VMOVUPD.Z (SI), K1, Z0
	VMOVUPD.Z (SI)(R9*1), K1, Z1
	VMOVUPD.Z (SI)(R9*2), K1, Z2
	B3BODYZ
	VMOVUPD   Z0, K1, (DI)
	VMOVUPD   Z1, K1, (DI)(R12*1)
	VMOVUPD   Z2, K1, (DI)(R12*2)
	ADDQ      $64, SI
	ADDQ      $64, DI
	DECQ      CX
	JNZ       b3loop

	VZEROUPPER
	RET

// B3STAGETW loads the twiddles of butterfly k of a stage, tw[2k] and
// tw[2k+1] at R11, into Z10/Z11 and Z12/Z13.
#define B3STAGETW \
	VBROADCASTF64X2 (R11), Z10   \
	VBROADCASTF64X2 16(R11), Z12 \
	TWIDDLE(Z10, Z11)            \
	TWIDDLE(Z12, Z13)

// func bfly3StageQuadsScaled(dst *complex128, ds int, src *complex128, ss, n, m int, tw *complex128, inverse bool, s0, s1 float64, alt bool)
// The last radix-3 stage of a 3m-point transform over n lanes:
// butterfly k combines source rows k, k+m, k+2m (rows ss apart) with
// tw[2k], tw[2k+1] and writes result rows k, k+m, k+2m (ds apart),
// each multiplied as ScaleLanes does it: even rows by s0 (even lane) /
// s1 (odd lane), odd rows by the swapped pair; alt says m is odd.
TEXT ·bfly3StageQuadsScaled(SB), NOSPLIT, $0-81
	MOVQ dst+0(FP), DI
	MOVQ ds+8(FP), R10
	MOVQ src+16(FP), SI
	MOVQ ss+24(FP), R9
	MOVQ tw+48(FP), R11
	SHLQ $4, R10
	SHLQ $4, R9
	QUADS(n+32(FP))
	MOVQ  CX, R13               // quads per row
	KMOVB K1, K3                // all lanes
	MOVQ  m+40(FP), R8
	MOVQ  R9, R12
	IMULQ R8, R12               // source leg: m rows
	MOVQ  R10, AX
	IMULQ R8, AX                // destination leg
	B3CONST(inverse+56(FP))
	VBROADCASTSD s0+64(FP), Z16
	VBROADCASTSD s1+72(FP), Z17
	VSHUFF64X2   $0x00, Z17, Z16, Z18
	VSHUFF64X2   $0x88, Z18, Z18, Z18   // [s0 s1 s0 s1]: rows k, k+2m of even k
	VSHUFF64X2   $0x00, Z16, Z17, Z20
	VSHUFF64X2   $0x88, Z20, Z20, Z20   // [s1 s0 s1 s0]: the same of odd k
	VMOVAPD      Z18, Z19               // row k+m
	VMOVAPD      Z20, Z21
	CMPB         alt+80(FP), $0
	JEQ          b3ssk
	VMOVAPD      Z20, Z19
	VMOVAPD      Z18, Z21

b3ssk:
	B3STAGETW
	MOVQ  SI, DX
	MOVQ  DI, BX
	MOVQ  R13, CX
	KMOVB K3, K1

b3ssq:
	LASTQUAD
	VMOVUPD.Z (DX), K1, Z0
	VMOVUPD.Z (DX)(R12*1), K1, Z1
	VMOVUPD.Z (DX)(R12*2), K1, Z2
	B3BODYZ
	VMULPD    Z18, Z0, Z0
	VMULPD    Z19, Z1, Z1
	VMULPD    Z18, Z2, Z2
	VMOVUPD   Z0, K1, (BX)
	VMOVUPD   Z1, K1, (BX)(AX*1)
	VMOVUPD   Z2, K1, (BX)(AX*2)
	ADDQ      $64, DX
	ADDQ      $64, BX
	DECQ      CX
	JNZ       b3ssq

	VMOVAPD Z18, Z22            // the next row's factors
	VMOVAPD Z20, Z18
	VMOVAPD Z22, Z20
	VMOVAPD Z19, Z22
	VMOVAPD Z21, Z19
	VMOVAPD Z22, Z21
	ADDQ    R9, SI
	ADDQ    R10, DI
	ADDQ    $32, R11
	DECQ    R8
	JNZ     b3ssk

	VZEROUPPER
	RET

// STORE4T(v, vx, base) stores the four lanes of v to base, base+dl,
// base+2dl, base+3dl (R10 = dl, R13 = 3dl, in bytes).
#define STORE4T(v, vx, base) \
	VMOVUPD       vx, (base)             \
	VEXTRACTF64X2 $1, v, (base)(R10*1)   \
	VEXTRACTF64X2 $2, v, (base)(R10*2)   \
	VEXTRACTF64X2 $3, v, (base)(R13*1)

// func bfly3StageQuadsT(dst *complex128, dl int, src *complex128, ss, nq, m int, tw *complex128, inverse bool)
// The last radix-3 stage as bfly3StageQuadsScaled, over 4*nq lanes,
// unscaled and stored transposed: lane i of result row q lands at
// dst[q + i*dl].
TEXT ·bfly3StageQuadsT(SB), NOSPLIT, $0-57
	MOVQ  dst+0(FP), DI
	MOVQ  dl+8(FP), R10
	MOVQ  src+16(FP), SI
	MOVQ  ss+24(FP), R9
	MOVQ  m+40(FP), R8
	MOVQ  tw+48(FP), R11
	SHLQ  $4, R10
	SHLQ  $4, R9
	LEAQ  (R10)(R10*2), R13
	MOVQ  R9, R12
	IMULQ R8, R12               // source leg: m rows
	MOVQ  R8, AX
	SHLQ  $4, AX                // destination leg: m elements
	B3CONST(inverse+56(FP))

b3stk:
	B3STAGETW
	MOVQ SI, DX
	MOVQ DI, BX
	LEAQ (DI)(AX*1), R14
	LEAQ (DI)(AX*2), R15
	MOVQ nq+32(FP), CX

b3stq:
	VMOVUPD (DX), Z0
	VMOVUPD (DX)(R12*1), Z1
	VMOVUPD (DX)(R12*2), Z2
	B3BODYZ
	STORE4T(Z0, X0, BX)
	STORE4T(Z1, X1, R14)
	STORE4T(Z2, X2, R15)
	ADDQ $64, DX
	LEAQ (BX)(R10*4), BX
	LEAQ (R14)(R10*4), R14
	LEAQ (R15)(R10*4), R15
	DECQ CX
	JNZ  b3stq

	ADDQ R9, SI
	ADDQ $16, DI
	ADDQ $32, R11
	DECQ R8
	JNZ  b3stk

	VZEROUPPER
	RET

// func dft8Quads(dst *complex128, ds int, src *complex128, ss, n int, inverse bool)
TEXT ·dft8Quads(SB), NOSPLIT, $0-41
	MOVQ dst+0(FP), DI
	MOVQ ds+8(FP), R12
	MOVQ src+16(FP), SI
	MOVQ ss+24(FP), R9
	SHLQ $4, R12
	SHLQ $4, R9
	LEAQ (R9)(R9*2), R10          // 3 source rows
	LEAQ (R12)(R12*2), R13        // 3 destination rows
	LEAQ (SI)(R9*4), DX           // source row 4
	LEAQ (DI)(R12*4), R11         // destination row 4
	DIRMASK(inverse+40(FP))
	VBROADCASTSD zinvSqrt2<>(SB), Z14
	QUADS(n+32(FP))

d8loop:
	LASTQUAD
	// Even half: x0, x4, x2, x6.
	VMOVUPD.Z (SI), K1, Z0
	VMOVUPD.Z (DX), K1, Z1
	VADDPD    Z1, Z0, Z2              // t0
	VSUBPD    Z1, Z0, Z3              // t1
	VMOVUPD.Z (SI)(R9*2), K1, Z0
	VMOVUPD.Z (DX)(R9*2), K1, Z1
	VADDPD    Z1, Z0, Z4              // t2
	VSUBPD    Z1, Z0, Z5
	QUARTERZ(Z5, Z30, Z5)             // t3
	VADDPD    Z4, Z2, Z6              // e0
	VSUBPD    Z4, Z2, Z7              // e2
	VADDPD    Z5, Z3, Z8              // e1
	VSUBPD    Z5, Z3, Z9              // e3
	// Odd half: x1, x5, x3, x7.
	VMOVUPD.Z (SI)(R9*1), K1, Z0
	VMOVUPD.Z (DX)(R9*1), K1, Z1
	VADDPD    Z1, Z0, Z2              // u0
	VSUBPD    Z1, Z0, Z3              // u1
	VMOVUPD.Z (SI)(R10*1), K1, Z0
	VMOVUPD.Z (DX)(R10*1), K1, Z1
	VADDPD    Z1, Z0, Z4              // u2
	VSUBPD    Z1, Z0, Z5
	QUARTERZ(Z5, Z30, Z5)             // u3
	VADDPD    Z4, Z2, Z10             // o0
	VSUBPD    Z4, Z2, Z11             // o2
	VADDPD    Z5, Z3, Z12             // o1
	VSUBPD    Z5, Z3, Z13             // o3
	// Odd eighth-root twiddles.
	QUARTERZ(Z12, Z30, Z0)
	VADDPD    Z0, Z12, Z12
	VMULPD    Z14, Z12, Z12           // o1 = s*(o1 + quarter(o1))
	QUARTERZ(Z11, Z30, Z11)           // o2 = quarter(o2)
	QUARTERZ(Z13, Z30, Z0)
	VSUBPD    Z13, Z0, Z13
	VMULPD    Z14, Z13, Z13           // o3 = s*(quarter(o3) - o3)
	// Radix-2 combine.
	VADDPD    Z10, Z6, Z0
	VSUBPD    Z10, Z6, Z1
	VMOVUPD   Z0, K1, (DI)
	VMOVUPD   Z1, K1, (R11)
	VADDPD    Z12, Z8, Z0
	VSUBPD    Z12, Z8, Z1
	VMOVUPD   Z0, K1, (DI)(R12*1)
	VMOVUPD   Z1, K1, (R11)(R12*1)
	VADDPD    Z11, Z7, Z0
	VSUBPD    Z11, Z7, Z1
	VMOVUPD   Z0, K1, (DI)(R12*2)
	VMOVUPD   Z1, K1, (R11)(R12*2)
	VADDPD    Z13, Z9, Z0
	VSUBPD    Z13, Z9, Z1
	VMOVUPD   Z0, K1, (DI)(R13*1)
	VMOVUPD   Z1, K1, (R11)(R13*1)

	ADDQ $64, SI
	ADDQ $64, DX
	ADDQ $64, DI
	ADDQ $64, R11
	DECQ CX
	JNZ  d8loop

	VZEROUPPER
	RET

// func transposeQuads(dst *complex128, ds int, src *complex128, ss, nqa, nqb, mode int)
// 4x4 blocks: dst[a*ds+b] = src[b*ss+a] for a < 4*nqa, b < 4*nqb.
// mode 1 negates the elements with a+b odd, mode 2 those with a+b even.
TEXT ·transposeQuads(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ ds+8(FP), R12
	MOVQ src+16(FP), SI
	MOVQ ss+24(FP), R9
	MOVQ nqa+32(FP), R10
	MOVQ nqb+40(FP), R11
	MOVQ mode+48(FP), AX
	SHLQ $4, R12
	SHLQ $4, R9
	LEAQ (R9)(R9*2), R13
	LEAQ (R12)(R12*2), R14

	// Z20 flips the destination rows a with a even, Z21 those with a
	// odd; b is a multiple of 4 at every block, so the pattern along a
	// destination row is [+ - + -] or [- + - +].
	VPXORQ Z20, Z20, Z20
	VPXORQ Z21, Z21, Z21
	CMPQ   AX, $0
	JEQ    trqrows
	MOVQ   $0x8000000000000000, BX
	VPBROADCASTQ BX, Z22                // every sign
	MOVL   $0xcc, BX
	KMOVB  BX, K3                       // complex lanes 1, 3
	MOVL   $0x33, BX
	KMOVB  BX, K4                       // complex lanes 0, 2
	VMOVAPD Z22, K3, Z20                // [+ - + -]
	VMOVAPD Z22, K4, Z21                // [- + - +]
	CMPQ   AX, $1
	JEQ    trqrows
	VMOVAPD Z20, Z23
	VMOVAPD Z21, Z20
	VMOVAPD Z23, Z21

trqrows:
	// Source rows b..b+3 are read left to right (four sequential
	// streams); each 4x4 block lands in destination rows a..a+3.
	MOVQ SI, BX                        // source row quad b, column a
	MOVQ DI, DX                        // destination row a, column b
	MOVQ R10, CX
trqcols:
	VMOVUPD    (BX), Z0                // src[b][a..a+3]
	VMOVUPD    (BX)(R9*1), Z1          // src[b+1]
	VMOVUPD    (BX)(R9*2), Z2          // src[b+2]
	VMOVUPD    (BX)(R13*1), Z3         // src[b+3]
	VSHUFF64X2 $0x44, Z1, Z0, Z4       // [b0a0 b0a1 b1a0 b1a1]
	VSHUFF64X2 $0xee, Z1, Z0, Z5       // [b0a2 b0a3 b1a2 b1a3]
	VSHUFF64X2 $0x44, Z3, Z2, Z6       // [b2a0 b2a1 b3a0 b3a1]
	VSHUFF64X2 $0xee, Z3, Z2, Z7       // [b2a2 b2a3 b3a2 b3a3]
	VSHUFF64X2 $0x88, Z6, Z4, Z0       // dst[a]:   b0 b1 b2 b3 of a0
	VSHUFF64X2 $0xdd, Z6, Z4, Z1       // dst[a+1]
	VSHUFF64X2 $0x88, Z7, Z5, Z2       // dst[a+2]
	VSHUFF64X2 $0xdd, Z7, Z5, Z3       // dst[a+3]
	VXORPD     Z20, Z0, Z0
	VXORPD     Z21, Z1, Z1
	VXORPD     Z20, Z2, Z2
	VXORPD     Z21, Z3, Z3
	VMOVUPD    Z0, (DX)
	VMOVUPD    Z1, (DX)(R12*1)
	VMOVUPD    Z2, (DX)(R12*2)
	VMOVUPD    Z3, (DX)(R14*1)
	ADDQ       $64, BX
	LEAQ       (DX)(R12*4), DX
	DECQ       CX
	JNZ        trqcols

	LEAQ (SI)(R9*4), SI
	ADDQ $64, DI
	DECQ R11
	JNZ  trqrows

	VZEROUPPER
	RET
