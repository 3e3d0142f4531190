// The lane routines of cbfly.go, one text for both vector widths: two
// complex128 lanes per YMM on the avx2 tier (cbfly_amd64.s), four per
// ZMM on the avx512 tier (cbfly_avx512_amd64.s). Per lane each does its
// Go body's multiplies, adds and subtracts (no FMA), so every tier
// gives the same bits. A complex product t = v*w is
//   re-dup(v) * w + im-dup(v) * [-wi, wr] = [vr*wr - vi*wi, vr*wi + vi*wr]
// which is Go's complex128 product exactly: x*(-y) is -(x*y) and
// x + (-y) is x - y in IEEE arithmetic. TWIDDLE builds [-wi, wr] once
// per twiddle.
//
// The including file defines the width:
//   V0-V15             the vector registers;
//   VB, LANES, VSHIFT  a register's bytes, complex lanes and log2 lanes;
//   RE, IM, SWAP       the VSHUFPD immediates duplicating every lane's
//                      real or imaginary part, or swapping the two;
//   CBCAST(m, v)       the complex128 at m broadcast to every lane;
//   NEGRE, W3M1, W3M2  TWIDDLE's and R4TW's sign masks (registers at
//                      ZMM, loaded by NEGSETUP and W3SETUP, memory at
//                      YMM, where R4BODY takes all sixteen registers);
//   NVEC(n, tmp)       CX = the iterations over n lanes (tmp scratch);
//   LASTVEC, ROWVEC    run before every iteration, before every row;
//   LD(m, v), ST(v, m) the load and store of one register of lanes;
// and the layout-bound steps: PSWAP, PBLEND, PSETUP, DFT4LD and DFT4ST
// (dft4), LANEPAIR (scale factors), STORET (bfly3StageT), TBLOCK
// (transpose). At ZMM the iterations over n lanes cover ceil(n/4)
// quads, the last under an opmask; at YMM the n/2 whole pairs, the Go
// body finishing an odd lane. r4StageTw, dft4, bfly3StageT and
// transpose take whole registers only. Every body starts from its
// arguments in general registers, where the routine's W entry
// (cbfly_amd64.s) loads them, and returns to Go.

// Unlisted bytes of the tables are zero. qsigns<> from +0 negates the
// real parts of two complex128, from +8 the imaginary parts: QUARTER's
// +i and -i, and TWIDDLE's YMM mask.
DATA qsigns<>+0(SB)/8, $0x8000000000000000
DATA qsigns<>+16(SB)/8, $0x8000000000000000
DATA qsigns<>+32(SB)/8, $0x8000000000000000
GLOBL qsigns<>(SB), RODATA|NOPTR, $40

// lanesigns<> from +0 negates the even complex lanes, from +16 the odd.
DATA lanesigns<>+0(SB)/8, $0x8000000000000000
DATA lanesigns<>+8(SB)/8, $0x8000000000000000
DATA lanesigns<>+32(SB)/8, $0x8000000000000000
DATA lanesigns<>+40(SB)/8, $0x8000000000000000
DATA lanesigns<>+64(SB)/8, $0x8000000000000000
DATA lanesigns<>+72(SB)/8, $0x8000000000000000
GLOBL lanesigns<>(SB), RODATA|NOPTR, $80

// w3sign<> holds every sign, no sign, every sign (32 bytes each): the
// forward pair (W3M1, W3M2) of R4TW at +0, the inverse one at +32.
DATA w3sign<>+0(SB)/8, $0x8000000000000000
DATA w3sign<>+8(SB)/8, $0x8000000000000000
DATA w3sign<>+16(SB)/8, $0x8000000000000000
DATA w3sign<>+24(SB)/8, $0x8000000000000000
DATA w3sign<>+64(SB)/8, $0x8000000000000000
DATA w3sign<>+72(SB)/8, $0x8000000000000000
DATA w3sign<>+80(SB)/8, $0x8000000000000000
DATA w3sign<>+88(SB)/8, $0x8000000000000000
GLOBL w3sign<>(SB), RODATA|NOPTR, $96

DATA half<>+0(SB)/8, $0.5
GLOBL half<>(SB), RODATA|NOPTR, $8
DATA sin60<>+0(SB)/8, $0.8660254037844386
GLOBL sin60<>(SB), RODATA|NOPTR, $8
DATA invSqrt2<>+0(SB)/8, $0.7071067811865476
GLOBL invSqrt2<>(SB), RODATA|NOPTR, $8

// CMUL(v, w, ws, t, out): out = v*w for ws = TWIDDLE(w); t scratch, out
// may be v.
#define CMUL(v, w, ws, t, out) \
	VSHUFPD IM, v, v, t   \
	VSHUFPD RE, v, v, out \
	VMULPD  ws, t, t      \
	VMULPD  w, out, out   \
	VADDPD  t, out, out

// TWIDDLE(w, ws): ws = [-wi, wr] of every lane of w.
#define TWIDDLE(w, ws) \
	VSHUFPD SWAP, w, w, ws \
	VXORPD  NEGRE, ws, ws

// QUARTER(v, mask, out): out = -i*v (mask QMASK's forward) or +i*v.
#define QUARTER(v, mask, out) \
	VSHUFPD SWAP, v, v, out \
	VXORPD  mask, out, out

// QMASK(inv, v) loads QUARTER's mask for the direction flag in the
// register inv into v.
#define QMASK(inv, v) \
	CBCAST(qsigns<>+8(SB), v) \
	TESTB inv, inv            \
	JEQ   2(PC)               \
	CBCAST(qsigns<>(SB), v)

// W3DIR points BX at R4TW's sign pair for the direction flag in inv
// and readies the masks of R4TW.
#define W3DIR(inv) \
	TESTB inv, inv          \
	LEAQ  w3sign<>(SB), BX  \
	JEQ   2(PC)             \
	ADDQ  $32, BX           \
	W3SETUP                 \
	NEGSETUP

// R4TW completes the twiddles of a radix-4 butterfly from w1 and w2 in
// V10 and V12: their TWIDDLEs in V11 and V13, w3 = -i*w2 (forward) or
// +i*w2 in V14 and its TWIDDLE in V15. TWIDDLE(w2) = [-w2i, w2r] is
// +i*w2; negated it is -i*w2, and TWIDDLE(-i*w2) is w2, TWIDDLE(+i*w2)
// is -w2: sign flips only, so w3 has the bits of a swap and negation of
// w2, with the signs W3M1 and W3M2 of the direction (W3DIR).
#define R4TW \
	TWIDDLE(V10, V11)       \
	TWIDDLE(V12, V13)       \
	VXORPD  W3M1, V13, V14  \
	VXORPD  W3M2, V12, V15

// R4BODY is r4Bfly: a, b, c, d in V0-V3, the twiddles of R4TW; out a',
// b', c', d' in V2, V4, V3, V5.
#define R4BODY \
	CMUL(V1, V10, V11, V5, V4) \ // tb = w1*b
	CMUL(V3, V10, V11, V6, V5) \ // td = w1*d
	VADDPD V4, V0, V6          \ // a1 = a + tb
	VSUBPD V4, V0, V7          \ // b1 = a - tb
	VADDPD V5, V2, V8          \ // c1 = c + td
	VSUBPD V5, V2, V9          \ // d1 = c - td
	CMUL(V8, V12, V13, V1, V0) \ // tc = w2*c1
	CMUL(V9, V14, V15, V2, V1) \ // te = w3*d1
	VADDPD V0, V6, V2          \ // a' = a1 + tc
	VSUBPD V0, V6, V3          \ // c' = a1 - tc
	VADDPD V1, V7, V4          \ // b' = b1 + te
	VSUBPD V1, V7, V5            // d' = b1 - te

// R4STAGETW is r4StageTwW: a fused radix-4 stage over n contiguous
// elements, a register of butterflies per iteration (h a multiple of
// the lanes). DI x, R8 n, R9 h, R10 tw1, R11 tw2, BX inverse.
#define R4STAGETW \
	W3DIR(BX)               \
	MOVQ R9, R12            \
	SHLQ $4, R12            \ // leg stride in bytes
	LEAQ (R12)(R12*2), R15  \ // three legs
	SHLQ $4, R8             \
	ADDQ DI, R8             \ // end
	SHRQ $VSHIFT, R9        \ // registers per leg
r4sblk:                     \
	MOVQ DI, SI             \
	MOVQ R10, R13           \
	MOVQ R11, R14           \
	MOVQ R9, CX             \
r4sloop:                    \
	VMOVUPD (R13), V10      \
	VMOVUPD (R14), V12      \
	R4TW                    \
	VMOVUPD (SI), V0        \
	VMOVUPD (SI)(R12*1), V1 \
	VMOVUPD (SI)(R12*2), V2 \
	VMOVUPD (SI)(R15*1), V3 \
	R4BODY                  \
	VMOVUPD V2, (SI)        \
	VMOVUPD V4, (SI)(R12*1) \
	VMOVUPD V3, (SI)(R12*2) \
	VMOVUPD V5, (SI)(R15*1) \
	ADDQ $VB, SI            \
	ADDQ $VB, R13           \
	ADDQ $VB, R14           \
	DECQ CX                 \
	JNZ  r4sloop            \
	LEAQ (DI)(R12*4), DI    \
	CMPQ DI, R8             \
	JB   r4sblk             \
	VZEROUPPER              \
	RET

// R4COLSSTAGE is r4ColsStageW: one fused radix-4 stage down the columns
// of a row-major n x w tile, over its first nl lanes. Butterfly t of
// every 4h-row block combines rows t, t+h, t+2h, t+3h with tw1[t],
// tw2[t] broadcast. DI x, R8 n, R9 h, R10 w, R11 tw1, R12 tw2, R13 nl,
// BX inverse.
#define R4COLSSTAGE \
	W3DIR(BX)                 \
	NVEC(R13, R14)            \
	MOVQ  CX, R13             \ // iterations per row
	MOVQ  R10, R14            \
	SHLQ  $4, R14             \ // row stride in bytes
	MOVQ  R14, R15            \
	IMULQ R9, R15             \ // leg stride: h rows
	LEAQ  (R15)(R15*2), R10   \ // three legs
	IMULQ R14, R8             \
	ADDQ  DI, R8              \ // tile end
	SHLQ  $4, R9              \ // twiddle table end offset
r4cblk:                       \
	XORQ DX, DX               \ // t*16
	MOVQ DI, SI               \ // row t of the block
r4ct:                         \
	CBCAST((R11)(DX*1), V10)  \
	CBCAST((R12)(DX*1), V12)  \
	R4TW                      \
	MOVQ SI, AX               \
	MOVQ R13, CX              \
	ROWVEC                    \
r4clane:                      \
	LASTVEC                   \
	LD((AX), V0)              \
	LD((AX)(R15*1), V1)       \
	LD((AX)(R15*2), V2)       \
	LD((AX)(R10*1), V3)       \
	R4BODY                    \
	ST(V2, (AX))              \
	ST(V4, (AX)(R15*1))       \
	ST(V3, (AX)(R15*2))       \
	ST(V5, (AX)(R10*1))       \
	ADDQ $VB, AX              \
	DECQ CX                   \
	JNZ  r4clane              \
	ADDQ R14, SI              \
	ADDQ $16, DX              \
	CMPQ DX, R9               \
	JB   r4ct                 \
	LEAQ (DI)(R15*4), DI      \
	CMPQ DI, R8               \
	JB   r4cblk               \
	VZEROUPPER                \
	RET

// DFT4 is dft4W: the 4-point DFT of every quad of n elements, one per
// two halves [a b] and [c d] (DFT4LD gathers the halves of LANES/2
// quads): each half to [a+b, a-b] by a pair swap and a blend, the
// quarter turn onto the upper lane of [c1 d1], then [a1 b1] +- [c1 e].
// DI x, R8 n, BX inverse.
#define DFT4 \
	QMASK(BX, V15)        \
	PSETUP                \
	MOVQ R8, CX           \
	SHRQ $(VSHIFT+1), CX  \
d4loop:                   \
	DFT4LD(V0, V1, V2, V3) \
	PSWAP(V0, V2)         \
	VADDPD V2, V0, V3     \ // a+b in the lower lanes
	VSUBPD V0, V2, V2     \ // a-b in the upper
	PBLEND(V2, V3)        \ // [a1 b1]
	PSWAP(V1, V2)         \
	VADDPD V2, V1, V4     \
	VSUBPD V1, V2, V2     \
	PBLEND(V2, V4)        \ // [c1 d1]
	QUARTER(V4, V15, V2)  \
	PBLEND(V2, V4)        \ // [c1 e]
	VADDPD V4, V3, V0     \
	VSUBPD V4, V3, V1     \
	DFT4ST(V0, V1, V2, V3) \
	ADDQ $(2*VB), DI      \
	DECQ CX               \
	JNZ  d4loop           \
	VZEROUPPER            \
	RET

// ADDSUB is addSubW: a, b = x+y, x-y over n lanes. DI a, SI b, DX x,
// AX y, R8 n.
#define ADDSUB \
	NVEC(R8, R9)      \
asloop:               \
	LASTVEC           \
	LD((DX), V0)      \
	LD((AX), V1)      \
	VADDPD V1, V0, V2 \
	VSUBPD V1, V0, V3 \
	ST(V2, (DI))      \
	ST(V3, (SI))      \
	ADDQ $VB, DI      \
	ADDQ $VB, SI      \
	ADDQ $VB, DX      \
	ADDQ $VB, AX      \
	DECQ CX           \
	JNZ  asloop       \
	VZEROUPPER        \
	RET

// SCALE is scaleW: dst[i] = src[i] scaled by s0 (even i) or s1 (odd
// i) over n lanes. DI dst, SI src, R8 n, AX &s0 (s1 follows).
#define SCALE \
	VBROADCASTSD (AX), V0  \
	VBROADCASTSD 8(AX), V1 \
	LANEPAIR(V1, V0, V0)   \ // [s0 s1] per lane pair
	NVEC(R8, R9)           \
scloop:                    \
	LASTVEC                \
	LD((SI), V1)           \
	VMULPD V0, V1, V1      \
	ST(V1, (DI))           \
	ADDQ $VB, SI           \
	ADDQ $VB, DI           \
	DECQ CX                \
	JNZ  scloop            \
	VZEROUPPER             \
	RET

// BFLY2 is bfly2W: dst rows a + tw*b, a - tw*b over n lanes. DI dst,
// R12 ds, SI src, R9 ss, R8 n, AX &tw.
#define BFLY2 \
	NEGSETUP                    \
	SHLQ $4, R12                \
	SHLQ $4, R9                 \
	CBCAST((AX), V10)           \
	TWIDDLE(V10, V11)           \
	NVEC(R8, R10)               \
b2loop:                         \
	LASTVEC                     \
	LD((SI), V0)                \
	LD((SI)(R9*1), V1)          \
	CMUL(V1, V10, V11, V3, V2)  \
	VADDPD V2, V0, V4           \
	VSUBPD V2, V0, V5           \
	ST(V4, (DI))                \
	ST(V5, (DI)(R12*1))         \
	ADDQ $VB, SI                \
	ADDQ $VB, DI                \
	DECQ CX                     \
	JNZ  b2loop                 \
	VZEROUPPER                  \
	RET

// B3CONST loads bfly3's constants: NEGRE, the quarter mask of the
// direction flag in inv (V14), 0.5 (V15) and sin60 (V6). B3TW completes w1 and w2
// broadcast in V10 and V12 with their TWIDDLEs.
#define B3CONST(inv) \
	NEGSETUP                     \
	QMASK(inv, V14)              \
	VBROADCASTSD half<>(SB), V15 \
	VBROADCASTSD sin60<>(SB), V6

#define B3TW \
	TWIDDLE(V10, V11) \
	TWIDDLE(V12, V13)

// B3BODY is bfly3: rows a, b, c in V0-V2 -> a+t1, t2+t3, t2-t3 in V0-V2;
// V3-V5 scratch.
#define B3BODY \
	CMUL(V1, V10, V11, V3, V1) \ // b*w1
	CMUL(V2, V12, V13, V3, V2) \ // c*w2
	VADDPD V2, V1, V3          \ // t1 = b + c
	VSUBPD V2, V1, V4          \ // b - c
	VMULPD V15, V3, V5         \ // 0.5*t1
	VSUBPD V5, V0, V5          \ // t2 = a - 0.5*t1
	QUARTER(V4, V14, V4)       \
	VMULPD V6, V4, V4          \ // t3 = sin60 * quarter(b - c)
	VADDPD V3, V0, V0          \ // a + t1
	VADDPD V4, V5, V1          \ // t2 + t3
	VSUBPD V4, V5, V2            // t2 - t3

// BFLY3 is bfly3W: the radix-3 combine over n lanes of three rows, the
// second and third twiddled. DI dst, R12 ds, SI src, R9 ss, R8 n,
// AX &w1 (w2 follows), BX inverse.
#define BFLY3 \
	SHLQ $4, R12              \
	SHLQ $4, R9               \
	B3CONST(BX)               \
	CBCAST((AX), V10)         \
	CBCAST(16(AX), V12)       \
	B3TW                      \
	NVEC(R8, R10)             \
b3loop:                       \
	LASTVEC                   \
	LD((SI), V0)              \
	LD((SI)(R9*1), V1)        \
	LD((SI)(R9*2), V2)        \
	B3BODY                    \
	ST(V0, (DI))              \
	ST(V1, (DI)(R12*1))       \
	ST(V2, (DI)(R12*2))       \
	ADDQ $VB, SI              \
	ADDQ $VB, DI              \
	DECQ CX                   \
	JNZ  b3loop               \
	VZEROUPPER                \
	RET

// BFLY3STAGESCALED is bfly3StageScaledW: the last radix-3 stage of a
// 3m-point transform over n lanes. Butterfly k combines source rows k,
// k+m, k+2m (ss apart) with tw[2k], tw[2k+1] and writes result rows k,
// k+m, k+2m (ds apart), scaled as ScaleLanes does it: even rows by
// [s0 s1] per lane pair, odd rows by [s1 s0] (V8 rows k and k+2m, V9
// row k+m; alt says m is odd). DI dst, R10 ds, SI src, R9 ss, R13 n,
// R8 m, R11 tw, BX inverse, AX &s0 (s1 follows), DX alt.
#define BFLY3STAGESCALED \
	SHLQ $4, R10              \
	SHLQ $4, R9               \
	B3CONST(BX)               \
	VBROADCASTSD (AX), V8     \
	VBROADCASTSD 8(AX), V9    \
	LANEPAIR(V9, V8, V8)      \
	VMOVAPD V8, V9            \
	TESTB DX, DX              \
	JEQ   2(PC)               \
	PSWAP(V8, V9)             \
	NVEC(R13, R12)            \
	MOVQ  CX, R13             \ // iterations per row
	MOVQ  R9, R12             \
	IMULQ R8, R12             \ // source leg: m rows
	MOVQ  R10, AX             \
	IMULQ R8, AX              \ // destination leg
b3ssk:                        \
	CBCAST((R11), V10)        \
	CBCAST(16(R11), V12)      \
	B3TW                      \
	MOVQ SI, DX               \
	MOVQ DI, BX               \
	MOVQ R13, CX              \
	ROWVEC                    \
b3ssq:                        \
	LASTVEC                   \
	LD((DX), V0)              \
	LD((DX)(R12*1), V1)       \
	LD((DX)(R12*2), V2)       \
	B3BODY                    \
	VMULPD V8, V0, V0         \
	VMULPD V9, V1, V1         \
	VMULPD V8, V2, V2         \
	ST(V0, (BX))              \
	ST(V1, (BX)(AX*1))        \
	ST(V2, (BX)(AX*2))        \
	ADDQ $VB, DX              \
	ADDQ $VB, BX              \
	DECQ CX                   \
	JNZ  b3ssq                \
	PSWAP(V8, V8)             \ // the next row's factors
	PSWAP(V9, V9)             \
	ADDQ R9, SI               \
	ADDQ R10, DI              \
	ADDQ $32, R11             \
	DECQ R8                   \
	JNZ  b3ssk                \
	VZEROUPPER                \
	RET

// BFLY3STAGET is bfly3StageTW: the stage of BFLY3STAGESCALED over n
// lanes (whole registers), unscaled and stored transposed: lane i of
// result row q lands at dst[q + i*dl] (STORET, with R10 = dl and R13 =
// 3dl in bytes). DI dst, R10 dl, SI src, R9 ss, R14 n, R8 m, R11 tw,
// BX inverse.
#define BFLY3STAGET \
	SHLQ  $4, R10              \
	SHLQ  $4, R9               \
	LEAQ  (R10)(R10*2), R13    \
	MOVQ  R9, R12              \
	IMULQ R8, R12              \ // source leg: m rows
	MOVQ  R8, AX               \
	SHLQ  $4, AX               \ // destination leg: m elements
	B3CONST(BX)                \
	MOVQ  SI, DX               \ // source row k
	MOVQ  R14, SI              \
	SHRQ  $VSHIFT, SI          \ // iterations per row
	SHLQ  $4, R14              \
	SUBQ  R14, R9              \ // from the end of a row to the next
b3tk:                          \
	CBCAST((R11), V10)         \
	CBCAST(16(R11), V12)       \
	B3TW                       \
	MOVQ DI, BX                \
	LEAQ (DI)(AX*1), R14       \
	LEAQ (DI)(AX*2), R15       \
	MOVQ SI, CX                \
b3tq:                          \
	VMOVUPD (DX), V0           \
	VMOVUPD (DX)(R12*1), V1    \
	VMOVUPD (DX)(R12*2), V2    \
	B3BODY                     \
	STORET(V0, X0, BX)         \
	STORET(V1, X1, R14)        \
	STORET(V2, X2, R15)        \
	ADDQ $VB, DX               \
	LEAQ (BX)(R10*LANES), BX   \
	LEAQ (R14)(R10*LANES), R14 \
	LEAQ (R15)(R10*LANES), R15 \
	DECQ CX                    \
	JNZ  b3tq                  \
	ADDQ R9, DX                \
	ADDQ $16, DI               \
	ADDQ $32, R11              \
	DECQ R8                    \
	JNZ  b3tk                  \
	VZEROUPPER                 \
	RET

// DFT8 is dft8W: the 8-point codelet of dft8Rows over n lanes of eight
// rows. DI dst, R12 ds, SI src, R9 ss, R8 n, BX inverse.
#define DFT8 \
	SHLQ $4, R12                 \
	SHLQ $4, R9                  \
	LEAQ (R9)(R9*2), R10         \ // 3 source rows
	LEAQ (R12)(R12*2), R13       \ // 3 destination rows
	LEAQ (SI)(R9*4), DX          \ // source row 4
	LEAQ (DI)(R12*4), R11        \ // destination row 4
	QMASK(BX, V15)               \
	VBROADCASTSD invSqrt2<>(SB), V14 \
	NVEC(R8, AX)                 \
d8loop:                          \
	LASTVEC                      \
	LD((SI), V0)                 \ // even half: x0, x4, x2, x6
	LD((DX), V1)                 \
	VADDPD V1, V0, V2            \ // t0
	VSUBPD V1, V0, V3            \ // t1
	LD((SI)(R9*2), V0)           \
	LD((DX)(R9*2), V1)           \
	VADDPD V1, V0, V4            \ // t2
	VSUBPD V1, V0, V5            \
	QUARTER(V5, V15, V5)         \ // t3
	VADDPD V4, V2, V6            \ // e0
	VSUBPD V4, V2, V7            \ // e2
	VADDPD V5, V3, V8            \ // e1
	VSUBPD V5, V3, V9            \ // e3
	LD((SI)(R9*1), V0)           \ // odd half: x1, x5, x3, x7
	LD((DX)(R9*1), V1)           \
	VADDPD V1, V0, V2            \ // u0
	VSUBPD V1, V0, V3            \ // u1
	LD((SI)(R10*1), V0)          \
	LD((DX)(R10*1), V1)          \
	VADDPD V1, V0, V4            \ // u2
	VSUBPD V1, V0, V5            \
	QUARTER(V5, V15, V5)         \ // u3
	VADDPD V4, V2, V10           \ // o0
	VSUBPD V4, V2, V11           \ // o2
	VADDPD V5, V3, V12           \ // o1
	VSUBPD V5, V3, V13           \ // o3
	QUARTER(V12, V15, V0)        \ // the odd eighth roots
	VADDPD V0, V12, V12          \
	VMULPD V14, V12, V12         \ // o1 = s*(o1 + quarter(o1))
	QUARTER(V11, V15, V11)       \ // o2 = quarter(o2)
	QUARTER(V13, V15, V0)        \
	VSUBPD V13, V0, V13          \
	VMULPD V14, V13, V13         \ // o3 = s*(quarter(o3) - o3)
	VADDPD V10, V6, V0           \ // the radix-2 combine
	VSUBPD V10, V6, V1           \
	ST(V0, (DI))                 \
	ST(V1, (R11))                \
	VADDPD V12, V8, V0           \
	VSUBPD V12, V8, V1           \
	ST(V0, (DI)(R12*1))          \
	ST(V1, (R11)(R12*1))         \
	VADDPD V11, V7, V0           \
	VSUBPD V11, V7, V1           \
	ST(V0, (DI)(R12*2))          \
	ST(V1, (R11)(R12*2))         \
	VADDPD V13, V9, V0           \
	VSUBPD V13, V9, V1           \
	ST(V0, (DI)(R13*1))          \
	ST(V1, (R11)(R13*1))         \
	ADDQ $VB, SI                 \
	ADDQ $VB, DX                 \
	ADDQ $VB, DI                 \
	ADDQ $VB, R11                \
	DECQ CX                      \
	JNZ  d8loop                  \
	VZEROUPPER                   \
	RET

// TRANSPOSE is transposeW: dst[a*ds+b] = src[b*ss+a] for a < na, b <
// nb (whole registers both), in LANES x LANES blocks (TBLOCK: source
// rows from BX, destination rows from DX; R13 and R14 three source and
// destination rows). Mode 1 negates the elements with a+b odd, mode 2
// those with a+b even: b starts every block even, so destination rows
// a even take the signs V14, odd ones V15. DI dst, R12 ds, SI src,
// R9 ss, R10 na, R11 nb, AX mode.
#define TRANSPOSE \
	SHLQ $4, R12                      \
	SHLQ $4, R9                       \
	LEAQ (R9)(R9*2), R13              \
	LEAQ (R12)(R12*2), R14            \
	SHRQ $VSHIFT, R10                 \
	SHRQ $VSHIFT, R11                 \
	VXORPD V14, V14, V14              \
	VXORPD V15, V15, V15              \
	CMPQ AX, $1                       \
	JNE  3(PC)                        \
	VMOVUPD lanesigns<>+16(SB), V14   \
	VMOVUPD lanesigns<>(SB), V15      \
	CMPQ AX, $2                       \
	JNE  3(PC)                        \
	VMOVUPD lanesigns<>(SB), V14      \
	VMOVUPD lanesigns<>+16(SB), V15   \
trrows:                               \ // source rows b.., read left to right
	MOVQ SI, BX                       \ // column a of the source rows
	MOVQ DI, DX                       \ // destination row a, column b
	MOVQ R10, CX                      \
trcols:                               \
	TBLOCK                            \
	ADDQ $VB, BX                      \
	LEAQ (DX)(R12*LANES), DX          \
	DECQ CX                           \
	JNZ  trcols                       \
	LEAQ (SI)(R9*LANES), SI           \
	ADDQ $VB, DI                      \
	DECQ R11                          \
	JNZ  trrows                       \
	VZEROUPPER                        \
	RET
