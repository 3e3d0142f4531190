//go:build amd64

#include "textflag.h"

// The tile bodies of the SIMDAVX512 dispatch tier: the
// gridder with a pixel per lane, sixteen float64 pixels in two ZMM octs
// (rotAccPixBlk64) or thirty-two float32 pixels in two ZMM of sixteen
// (rotAccPixBlk32), the degridder's fused, channel-blocked
// rotate-and-accumulate at eight float64 or sixteen float32 pixels per
// ZMM (rotConjAccOctsBlk64, rotConjAccBlk32), the phase stagers every
// one of them runs ahead of its sincos batch (stagePIdx, stageArgs), and
// the A-term sandwiches at eight pixels per ZMM (gridSandwichOcts,
// degridSandwichOcts). See simd_amd64.go for the contracts, tile_vec.go
// and sandwich.go for the callers. Only that tier reaches this file:
// xmath's detection requires AVX-512 F+DQ+BW+VL and OS-saved opmask/ZMM
// state. All routines VZEROUPPER before returning to Go code. The text
// the YMM bodies share is pixlanes_amd64.h's and sandwich_amd64.h's.

#define V0 Z0
#define V1 Z1
#define V2 Z2
#define V3 Z3
#define V4 Z4
#define V5 Z5
#define V6 Z6
#define V7 Z7
#define V8 Z8
#define V9 Z9
#define V10 Z10
#define V11 Z11
#define V12 Z12
#define V13 Z13
#define V14 Z14
#define V15 Z15
#define VB 64

// LDM/STM load and store the pixels of a register under the opmask K1
// (masked-out lanes load as zero and are not stored); LDM32/STM32 are
// the same at float32 granularity, K1 masking sixteen lanes.
#define LDM(src, dst) VMOVUPD.Z src, K1, dst
#define STM(src, dst) VMOVUPD src, K1, dst
#define LDM32(src, dst) VMOVUPS.Z src, K1, dst
#define STM32(src, dst) VMOVUPS src, K1, dst

#include "pixlanes_amd64.h"

// TAIL_MASK sets K1 to the low (cnt mod lanes) lanes of a register of
// eight or sixteen, given lanes-1; clobbers CX and DX.
#define TAIL_MASK(cnt, lanes1) \
	MOVQ  cnt, CX    \
	ANDQ  lanes1, CX \
	MOVQ  $1, DX     \
	SHLQ  CX, DX     \
	DECQ  DX         \
	KMOVW DX, K1

// REDUCE8 folds the eight 8-lane accumulators Z4..Z11 into the eight
// lanes of Z4 (lane k = the sum of accumulator k's lanes) as a pairwise
// tree, ((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7)) per accumulator: adjacent
// lanes first (unpack low/high), then 128-bit lane pairs, then the two
// halves. Clobbers Z5-Z7, Z12, Z13.
#define REDUCE8 \
	VUNPCKLPD  Z5, Z4, Z12          \
	VUNPCKHPD  Z5, Z4, Z13          \
	VADDPD     Z13, Z12, Z4         \ // [a01 b01 a23 b23 a45 b45 a67 b67] of Z4, Z5
	VUNPCKLPD  Z7, Z6, Z12          \
	VUNPCKHPD  Z7, Z6, Z13          \
	VADDPD     Z13, Z12, Z5         \ // ... of Z6, Z7
	VUNPCKLPD  Z9, Z8, Z12          \
	VUNPCKHPD  Z9, Z8, Z13          \
	VADDPD     Z13, Z12, Z6         \ // ... of Z8, Z9
	VUNPCKLPD  Z11, Z10, Z12        \
	VUNPCKHPD  Z11, Z10, Z13        \
	VADDPD     Z13, Z12, Z7         \ // ... of Z10, Z11
	VSHUFF64X2 $0x88, Z5, Z4, Z12   \ // 128-bit lanes 0, 2 of each
	VSHUFF64X2 $0xDD, Z5, Z4, Z13   \ // 128-bit lanes 1, 3 of each
	VADDPD     Z13, Z12, Z4         \ // [01+23, 45+67] of Z4..Z7's sources
	VSHUFF64X2 $0x88, Z7, Z6, Z12   \
	VSHUFF64X2 $0xDD, Z7, Z6, Z13   \
	VADDPD     Z13, Z12, Z5         \
	VSHUFF64X2 $0x88, Z5, Z4, Z12   \
	VSHUFF64X2 $0xDD, Z5, Z4, Z13   \
	VADDPD     Z13, Z12, Z4

// ACC_PIX accumulates one correlation's sample at byte offset R14 of its
// re/im streams, broadcast to every lane, against the phasors of both
// pixel registers (sin Z16/Z18, cos Z17/Z19): per accumulator
// the FMA order a_re += vr*pc, a_re -= vi*ps, a_im += vr*ps, a_im +=
// vi*pc, with the four chains interleaved. BCAST, FMA and FNMA
// are the element width's mnemonics (ACC_PIX64, ACC_PIX32).
#define ACC_PIX(BCAST, FMA, FNMA, rp, ip, are0, are1, aim0, aim1) \
	BCAST (rp)(R14*1), Z24   \
	BCAST (ip)(R14*1), Z25   \
	FMA   Z17, Z24, are0     \
	FMA   Z19, Z24, are1     \
	FMA   Z16, Z24, aim0     \
	FMA   Z18, Z24, aim1     \
	FNMA  Z16, Z25, are0     \
	FNMA  Z18, Z25, are1     \
	FMA   Z17, Z25, aim0     \
	FMA   Z19, Z25, aim1
#define ACC_PIX64(rp, ip, are0, are1, aim0, aim1) \
	ACC_PIX(VBROADCASTSD, VFMADD231PD, VFNMADD231PD, rp, ip, are0, are1, aim0, aim1)
#define ACC_PIX32(rp, ip, are0, are1, aim0, aim1) \
	ACC_PIX(VBROADCASTSS, VFMADD231PS, VFNMADD231PS, rp, ip, are0, are1, aim0, aim1)

// PIX_SUMS moves the sixteen accumulators Z0-Z15 between registers and
// the 1 KB at AX, register 2k+h (sum k, the group's pixel half h) at
// byte k*A + h*B: an [8][16]float64 (PIX_F64), or two [8][16]float32
// one after the other (PIX_F32) — in both, planes of sixteen pixels in
// groups of sixteen, the layout the epilogue's sandwich reads.
#define PIX_LD(mem, reg) VMOVUPD mem, reg
#define PIX_ST(mem, reg) VMOVUPD reg, mem
#define PIX_SUMS(MV, A, B) \
	MV((0*A)(AX), Z0);  MV((0*A+B)(AX), Z1);  MV((1*A)(AX), Z2);  MV((1*A+B)(AX), Z3);  \
	MV((2*A)(AX), Z4);  MV((2*A+B)(AX), Z5);  MV((3*A)(AX), Z6);  MV((3*A+B)(AX), Z7);  \
	MV((4*A)(AX), Z8);  MV((4*A+B)(AX), Z9);  MV((5*A)(AX), Z10); MV((5*A+B)(AX), Z11); \
	MV((6*A)(AX), Z12); MV((6*A+B)(AX), Z13); MV((7*A)(AX), Z14); MV((7*A+B)(AX), Z15)
#define PIX_F64(MV) PIX_SUMS(MV, 128, 64)
#define PIX_F32(MV) PIX_SUMS(MV, 64, 512)

// func rotAccPixBlk64(acc, r0, i0, r1, i1, r2, i2, r3, i3 *float64, nc int, sn, cs *float64, nt, rowCh int)
//
// The pixel-lane gridder: sixteen pixels, one per lane of two octs,
// accumulate nt time steps of nc channels with their 8 x 2 accumulators
// held in Z0-Z15 throughout (acc is [8][16]float64: sum k of lane p at
// acc[16k+p], sums in the order re0, im0, re1, ...). Every visibility is
// broadcast once and shared by both octs; R14 is the running byte
// offset into the eight streams, which are contiguous over (t, c).
//
// sn/cs are the sincos of the staged arguments, rows of sixteen lanes.
// With rowCh > 1, per time step one row of per-pixel delta phasors
// (Z20-Z23), then one row of base phasors per chunk of rowCh channels,
// loaded into Z16-Z19 where the chunk starts and rotated by the deltas
// from channel to channel. With rowCh = 1 there is no delta row and
// every channel has its own base row: nothing rotates. A pixel's sums
// are therefore built in plain (t, c) order from its own lane's phasors
// alone: nothing crosses lanes, so what shares the call (or pads it)
// cannot reach them, and neither can nt.
TEXT ·rotAccPixBlk64(SB), NOSPLIT, $0-112
	MOVQ r0+8(FP), SI
	MOVQ i0+16(FP), DI
	MOVQ r1+24(FP), R8
	MOVQ i1+32(FP), R9
	MOVQ r2+40(FP), R10
	MOVQ i2+48(FP), R11
	MOVQ r3+56(FP), R12
	MOVQ i3+64(FP), R13
	XORQ R14, R14

	MOVQ acc+0(FP), AX
	PIX_F64(PIX_LD)

	MOVQ sn+80(FP), BX
	MOVQ cs+88(FP), CX
	MOVQ nt+96(FP), AX

pixsteploop:
	MOVQ    nc+72(FP), R15
	CMPQ    rowCh+104(FP), $1
	JEQ     pixchunkloop
	VMOVUPD (BX), Z20
	VMOVUPD (CX), Z21
	VMOVUPD 64(BX), Z22
	VMOVUPD 64(CX), Z23
	ADDQ    $128, BX
	ADDQ    $128, CX

pixchunkloop:
	VMOVUPD (BX), Z16
	VMOVUPD (CX), Z17
	VMOVUPD 64(BX), Z18
	VMOVUPD 64(CX), Z19
	ADDQ    $128, BX
	ADDQ    $128, CX
	MOVQ    rowCh+104(FP), DX
	CMPQ    R15, DX
	CMOVQLT R15, DX
	SUBQ    DX, R15

pixchanloop:
	ACC_PIX64(SI, DI, Z0, Z1, Z2, Z3)
	ACC_PIX64(R8, R9, Z4, Z5, Z6, Z7)
	ACC_PIX64(R10, R11, Z8, Z9, Z10, Z11)
	ACC_PIX64(R12, R13, Z12, Z13, Z14, Z15)
	ADDQ $8, R14
	DECQ DX
	JZ   pixchunkdone
	ROT_PIX64(Z16, Z17, Z20, Z21, Z26, Z27)
	ROT_PIX64(Z18, Z19, Z22, Z23, Z28, Z29)
	JMP  pixchanloop

pixchunkdone:
	TESTQ R15, R15
	JNZ   pixchunkloop
	DECQ  AX
	JNZ   pixsteploop

	MOVQ acc+0(FP), AX
	PIX_F64(PIX_ST)
	VZEROUPPER
	RET

// CONJ_ACC is FUSED_ACC's accumulation for the phasor cr/ci of the
// pixels whose eight planes are already in Z24-Z31, into a0-a7.
#define CONJ_ACC(FMA, FNMA, cr, ci, a0, a1, a2, a3, a4, a5, a6, a7) \
	FMA  cr, Z24, a0 \
	FMA  ci, Z25, a0 \
	FNMA ci, Z24, a1 \
	FMA  cr, Z25, a1 \
	FMA  cr, Z26, a2 \
	FMA  ci, Z27, a2 \
	FNMA ci, Z26, a3 \
	FMA  cr, Z27, a3 \
	FMA  cr, Z28, a4 \
	FMA  ci, Z29, a4 \
	FNMA ci, Z28, a5 \
	FMA  cr, Z29, a5 \
	FMA  cr, Z30, a6 \
	FMA  ci, Z31, a6 \
	FNMA ci, Z30, a7 \
	FMA  cr, Z31, a7

// FUSED_PAIR is one register of pixels of a sweep over two channels,
// c and c+1: each of the eight planes is loaded once (Z24-Z31) and
// serves both. Channel c's phasor (Z0/Z1, loaded) accumulates into
// Z4-Z11; its rotation — FUSED_ROT's operations, kept in Z12/Z13
// instead of stored and reloaded — is channel c+1's phasor, which
// accumulates into Z16-Z23. NEXT then stores what the next pair starts
// from: channel c+2's phasor, FUSED_ROT of c+1's (PAIR_ROT), or when c+1
// is the call's last channel, c+1's as it is (PAIR_KEEP).
#define FUSED_PAIR(LD, ST, MUL, FMA, FNMA, NEXT) \
	LD((BX)(R14*1), Z0)                                                 \
	LD((CX)(R14*1), Z1)                                                 \
	LD((SI), Z24)                                                       \
	LD((SI)(R8*1), Z25)                                                 \
	LD((SI)(R8*2), Z26)                                                 \
	LD((SI)(R9*1), Z27)                                                 \
	LD((DI), Z28)                                                       \
	LD((DI)(R8*1), Z29)                                                 \
	LD((DI)(R8*2), Z30)                                                 \
	LD((DI)(R9*1), Z31)                                                 \
	CONJ_ACC(FMA, FNMA, Z0, Z1, Z4, Z5, Z6, Z7, Z8, Z9, Z10, Z11)       \
	LD((R10)(R14*1), Z2)                                                \
	LD((R11)(R14*1), Z3)                                                \
	MUL  Z2, Z1, Z13                                                    \
	FMA  Z3, Z0, Z13                                                    \
	MUL  Z2, Z0, Z12                                                    \
	FNMA Z3, Z1, Z12                                                    \
	CONJ_ACC(FMA, FNMA, Z12, Z13, Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z23) \
	NEXT(LD, ST, MUL, FMA, FNMA)
#define PAIR_ROT(LD, ST, MUL, FMA, FNMA) FUSED_ROT(LD, ST, MUL, FMA, FNMA, Z12, Z13, Z15, Z14)
#define PAIR_KEEP(LD, ST, MUL, FMA, FNMA) \
	ST(Z13, (CX)(R14*1)) \
	ST(Z12, (BX)(R14*1))
#define PAIR64(LD, ST, NEXT) FUSED_PAIR(LD, ST, VMULPD, VFMADD231PD, VFNMADD231PD, NEXT)
#define PAIR32(LD, ST, NEXT) FUSED_PAIR(LD, ST, VMULPS, VFMADD231PS, VFNMADD231PS, NEXT)

// ZERO_SUMS clears the eight accumulators a0-a7.
#define ZERO_SUMS(a0, a1, a2, a3, a4, a5, a6, a7) \
	VPXORQ a0, a0, a0 \
	VPXORQ a1, a1, a1 \
	VPXORQ a2, a2, a2 \
	VPXORQ a3, a3, a3 \
	VPXORQ a4, a4, a4 \
	VPXORQ a5, a5, a5 \
	VPXORQ a6, a6, a6 \
	VPXORQ a7, a7, a7

// SECOND_SUMS moves a pair's second channel's accumulators Z16-Z23 to
// Z4-Z11, where the folds read them.
#define SECOND_SUMS \
	VMOVAPD Z16, Z4  \
	VMOVAPD Z17, Z5  \
	VMOVAPD Z18, Z6  \
	VMOVAPD Z19, Z7  \
	VMOVAPD Z20, Z8  \
	VMOVAPD Z21, Z9  \
	VMOVAPD Z22, Z10 \
	VMOVAPD Z23, Z11

// FUSED_START points DI at the pixel planes 4-7 (SI at plane 0) and R14
// at the sweep's first pixel, and clears channel c's sums.
#define FUSED_START \
	LEAQ (SI)(R8*4), DI \
	XORQ R14, R14       \
	ZERO_SUMS(Z4, Z5, Z6, Z7, Z8, Z9, Z10, Z11)

// func rotConjAccOctsBlk64(dst, phRe, phIm, dRe, dIm, planes *float64, stride, n, nch int)
//
// The degridder's rotation and conjugate accumulation fused and blocked
// over the nch channels of one resync chunk, eight pixels per
// instruction. The channels go two at a time: each sweep over the n
// pixels (FUSED_PAIR) loads every pixel once for both, accumulates
// sum_i conj(phasor_i) * pixel_i over the pixel planes re0, im0, re1,
// ... that start stride bytes apart at planes, and advances the
// phasors by their per-pixel delta phasors from channel to channel. An
// odd last channel takes a sweep of its own (FUSED_ACC). The sums of a
// channel fold (REDUCE8) and ADD into dst, which advances eight doubles
// per channel: one addition per element of dst. No rotation follows the
// last channel (the caller seeds the next chunk afresh): the phasors are
// left as that channel's.
//
// The n mod 8 pixels past the last whole oct run as one more oct under
// the opmask K1, so they add their products and nothing else, and no
// buffer is touched past n. The whole octs run unmasked: with every
// access under the mask the loop measured a third slower (the masked
// phasor stores, presumably, which the next channel's loads of the same
// addresses cannot be forwarded from).
TEXT ·rotConjAccOctsBlk64(SB), NOSPLIT, $0-72
	MOVQ dst+0(FP), AX
	MOVQ phRe+8(FP), BX
	MOVQ dRe+24(FP), R10
	MOVQ dIm+32(FP), R11
	MOVQ stride+48(FP), R8
	MOVQ nch+64(FP), R15
	LEAQ (R8)(R8*2), R9         // 3*stride

	// R12 = whole octs per sweep, R13 = the n mod 8 pixels past them,
	// K1 = their lane mask.
	MOVQ n+56(FP), R12
	TAIL_MASK(R12, $7)
	MOVQ R12, R13
	SHRQ $3, R12
	ANDQ $7, R13
	MOVQ phIm+16(FP), CX

fusedchloop:
	MOVQ planes+40(FP), SI
	FUSED_START
	MOVQ R12, DX
	CMPQ R15, $1
	JEQ  fusedlast
	ZERO_SUMS(Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z23)
	CMPQ R15, $2
	JEQ  keepentry
	TESTQ DX, DX
	JZ    pairtail

pairloop:
	PAIR64(LDU, STU, PAIR_ROT)
	ADDQ $64, R14
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ DX
	JNZ  pairloop

pairtail:
	TESTQ R13, R13
	JZ    pairfold
	PAIR64(LDM, STM, PAIR_ROT)
	JMP   pairfold

keepentry:
	TESTQ DX, DX
	JZ    keeptail

keeploop:
	PAIR64(LDU, STU, PAIR_KEEP)
	ADDQ $64, R14
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ DX
	JNZ  keeploop

keeptail:
	TESTQ R13, R13
	JZ    pairfold
	PAIR64(LDM, STM, PAIR_KEEP)

pairfold:
	REDUCE8
	VADDPD  (AX), Z4, Z4
	VMOVUPD Z4, (AX)
	SECOND_SUMS
	REDUCE8
	VADDPD  64(AX), Z4, Z4
	VMOVUPD Z4, 64(AX)
	ADDQ    $128, AX
	SUBQ    $2, R15
	JNZ     fusedchloop
	VZEROUPPER
	RET

fusedlast:
	TESTQ DX, DX
	JZ    fusedtail

fusedpixloop:
	FUSED_ACC(LDU, VFMADD231PD, VFNMADD231PD)
	ADDQ $64, R14
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ DX
	JNZ  fusedpixloop

fusedtail:
	TESTQ R13, R13
	JZ    fusedfold
	FUSED_ACC(LDM, VFMADD231PD, VFNMADD231PD)

fusedfold:
	REDUCE8
	VADDPD  (AX), Z4, Z4
	VMOVUPD Z4, (AX)
	VZEROUPPER
	RET

// func stagePIdx(dst, l, m, n *float64, npix int, uvw *float64, nt int)
//
// The phase indices of npix pixels at nt time steps, dst[r*npix+i] =
// U_r*l[i] + V_r*m[i] + W_r*n[i] from the packed {U, V, W} triples at
// uvw, rounded exactly as Go rounds that expression (three products,
// two sums, nothing fused). The npix mod 8 pixels past the last whole
// oct of a row run under the opmask K1.
TEXT ·stagePIdx(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ l+8(FP), SI
	MOVQ m+16(FP), R8
	MOVQ n+24(FP), R9
	MOVQ npix+32(FP), R10
	MOVQ uvw+40(FP), BX
	MOVQ nt+48(FP), R11
	TAIL_MASK(R10, $7)
	MOVQ R10, R12
	SHRQ $3, R12                // whole octs per row
	ANDQ $7, R10                // pixels past them

	PIDX_ROWS

// func stageArgs(arg *float64, stride int, pIdx, off *float64, scale float64, npix, nt int)
//
// Phase arguments from staged phase indices: for nt rows of npix pixels
// (pIdx rows contiguous, arg rows stride bytes apart), arg[i] =
// pIdx[i]*scale - off[i], the reference kernel's expression, or
// pIdx[i]*scale alone when off is nil (the per-channel delta). off
// holds one entry per pixel and serves every row. Tail as in stagePIdx.
TEXT ·stageArgs(SB), NOSPLIT, $0-56
	MOVQ         arg+0(FP), DI
	MOVQ         stride+8(FP), R9
	MOVQ         pIdx+16(FP), SI
	MOVQ         off+24(FP), R8
	VBROADCASTSD scale+32(FP), Z0
	MOVQ         npix+40(FP), R10
	MOVQ         nt+48(FP), R11
	TAIL_MASK(R10, $7)
	MOVQ R10, R12
	SHRQ $3, R12
	ANDQ $7, R10

	ARGS_ROWS

// NARROW_ROW narrows the staged row of thirty-two doubles at base into
// two registers of sixteen float32, lo = lanes 0-15 and hi = lanes
// 16-31: VCVTPD2PS rounds to nearest even under Go's MXCSR, the bits of
// Go's float32(x) and of xmath.CvtF64F32. Clobbers Z30, Z31.
#define NARROW_ROW(base, lo, hi) \
	VCVTPD2PS    (base), Y30      \
	VCVTPD2PS    64(base), Y31    \
	VINSERTF64X4 $1, Y31, Z30, lo \
	VCVTPD2PS    128(base), Y30   \
	VCVTPD2PS    192(base), Y31   \
	VINSERTF64X4 $1, Y31, Z30, hi

// func rotAccPixBlk32(acc, r0, i0, r1, i1, r2, i2, r3, i3 *float32, nc int, sn, cs *float64, nt, rowCh int)
//
// rotAccPixBlk64 at sixteen float32 lanes per register: thirty-two
// pixels per call, acc a [2][8][16]float32 (sum k of lane p at
// acc[128*(p/16) + 16k + p%16]), the same 32 FMAs and 8 rotation
// instructions per channel covering twice the pixels. sn/cs stay
// float64, rows of thirty-two lanes in the same order; each row is
// narrowed in-register where the float64 kernel loads it, so no float32
// phasor is ever staged in memory. Phasors rotate and sums accumulate in
// float32, the scalar float32 tile's error class.
TEXT ·rotAccPixBlk32(SB), NOSPLIT, $0-112
	MOVQ r0+8(FP), SI
	MOVQ i0+16(FP), DI
	MOVQ r1+24(FP), R8
	MOVQ i1+32(FP), R9
	MOVQ r2+40(FP), R10
	MOVQ i2+48(FP), R11
	MOVQ r3+56(FP), R12
	MOVQ i3+64(FP), R13
	XORQ R14, R14

	MOVQ acc+0(FP), AX
	PIX_F32(PIX_LD)

	MOVQ sn+80(FP), BX
	MOVQ cs+88(FP), CX
	MOVQ nt+96(FP), AX

pix32steploop:
	MOVQ nc+72(FP), R15
	CMPQ rowCh+104(FP), $1
	JEQ  pix32chunkloop
	NARROW_ROW(BX, Z20, Z22)
	NARROW_ROW(CX, Z21, Z23)
	ADDQ $256, BX
	ADDQ $256, CX

pix32chunkloop:
	NARROW_ROW(BX, Z16, Z18)
	NARROW_ROW(CX, Z17, Z19)
	ADDQ    $256, BX
	ADDQ    $256, CX
	MOVQ    rowCh+104(FP), DX
	CMPQ    R15, DX
	CMOVQLT R15, DX
	SUBQ    DX, R15

pix32chanloop:
	ACC_PIX32(SI, DI, Z0, Z1, Z2, Z3)
	ACC_PIX32(R8, R9, Z4, Z5, Z6, Z7)
	ACC_PIX32(R10, R11, Z8, Z9, Z10, Z11)
	ACC_PIX32(R12, R13, Z12, Z13, Z14, Z15)
	ADDQ $4, R14
	DECQ DX
	JZ   pix32chunkdone
	ROT_PIX32(Z16, Z17, Z20, Z21, Z26, Z27)
	ROT_PIX32(Z18, Z19, Z22, Z23, Z28, Z29)
	JMP  pix32chanloop

pix32chunkdone:
	TESTQ R15, R15
	JNZ   pix32chunkloop
	DECQ  AX
	JNZ   pix32steploop

	MOVQ acc+0(FP), AX
	PIX_F32(PIX_ST)
	VZEROUPPER
	RET

// FOLD_HALVES adds the upper eight float32 lanes of accumulator z onto
// its lower eight (y is z's YMM name): lane i becomes l(i) + l(i+8).
#define FOLD_HALVES(z, y, tmp) \
	VEXTRACTF64X4 $1, z, tmp \
	VADDPS        tmp, y, y

// REDUCE16 folds the eight 16-lane float32 accumulators Z4..Z11 into
// the eight lanes of Y4 (lane k = the sum of accumulator k's lanes):
// first the halves, m(i) = l(i) + l(i+8), then FOLD8_PS's pairwise tree
// over the eight m. Clobbers Y5-Y13.
#define REDUCE16 \
	FOLD_HALVES(Z4, Y4, Y12)        \
	FOLD_HALVES(Z5, Y5, Y13)        \
	FOLD_HALVES(Z6, Y6, Y12)        \
	FOLD_HALVES(Z7, Y7, Y13)        \
	FOLD_HALVES(Z8, Y8, Y12)        \
	FOLD_HALVES(Z9, Y9, Y13)        \
	FOLD_HALVES(Z10, Y10, Y12)      \
	FOLD_HALVES(Z11, Y11, Y13)      \
	FOLD8_PS

// HALVES_PAIR folds the halves of accumulator a (channel c) and b (c+1)
// into one register: the low eight lanes of a's m(i) = l(i) + l(i+8),
// then b's. Clobbers Z12, Z13.
#define HALVES_PAIR(a, b, m) \
	VSHUFF32X4 $0x44, b, a, Z12 \ // a lanes 0-7, b lanes 0-7
	VSHUFF32X4 $0xEE, b, a, Z13 \ // a lanes 8-15, b lanes 8-15
	VADDPS     Z13, Z12, m

// HADD_Z is VHADDPS at ZMM width, which EVEX does not encode: per
// 128-bit lane [a0+a1, a2+a3, b0+b1, b2+b3] of a and b into a, each sum
// VHADDPS's own. Clobbers Z12, Z13.
#define HADD_Z(b, a) \
	VSHUFPS $0x88, b, a, Z12 \ // a0 a2 b0 b2
	VSHUFPS $0xDD, b, a, Z13 \ // a1 a3 b1 b3
	VADDPS  Z13, Z12, a

// REDUCE16_PAIR is REDUCE16 of a pair's two channels at once, channel
// c's accumulators in Z4..Z11 and c+1's in Z16..Z23: the halves of each
// channel's pair of accumulators into one register (HALVES_PAIR), then
// FOLD8_PS's tree over both channels at ZMM width, each half of a
// register one channel's, so every sum is REDUCE16's to the bit. Leaves
// c's eight sums in the low half of Z4, c+1's in the high half.
#define REDUCE16_PAIR \
	HALVES_PAIR(Z4, Z16, Z4)       \
	HALVES_PAIR(Z5, Z17, Z5)       \
	HALVES_PAIR(Z6, Z18, Z6)       \
	HALVES_PAIR(Z7, Z19, Z7)       \
	HALVES_PAIR(Z8, Z20, Z8)       \
	HALVES_PAIR(Z9, Z21, Z9)       \
	HALVES_PAIR(Z10, Z22, Z10)     \
	HALVES_PAIR(Z11, Z23, Z11)     \
	HADD_Z(Z5, Z4)                 \
	HADD_Z(Z7, Z6)                 \
	HADD_Z(Z9, Z8)                 \
	HADD_Z(Z11, Z10)               \
	HADD_Z(Z6, Z4)                 \ // per channel [0123 sums | 4567 sums] of sums 0-3
	HADD_Z(Z10, Z8)                \ // and of sums 4-7
	VSHUFF32X4 $0x88, Z8, Z4, Z12  \ // c: 0-3 of 0123, c+1: 0-3 of 0123, c: 4-7 ..., c+1: ...
	VSHUFF32X4 $0xDD, Z8, Z4, Z13  \ // the same of 4567
	VADDPS     Z13, Z12, Z4        \
	VSHUFF32X4 $0xD8, Z4, Z4, Z4      // c's sums 0-7, then c+1's

// func rotConjAccBlk32(dst, phRe, phIm, dRe, dIm, planes *float32, stride, n, nch int)
//
// rotConjAccOctsBlk64 at sixteen float32 pixels per instruction: two
// channels per sweep (PAIR32), an odd last one alone, the n mod 16
// pixels past the last whole register under the opmask K1, each
// channel's eight sums folded (REDUCE16, a pair's both at once:
// REDUCE16_PAIR) and added once into dst, which advances eight float32
// per channel.
TEXT ·rotConjAccBlk32(SB), NOSPLIT, $0-72
	MOVQ dst+0(FP), AX
	MOVQ phRe+8(FP), BX
	MOVQ dRe+24(FP), R10
	MOVQ dIm+32(FP), R11
	MOVQ stride+48(FP), R8
	MOVQ nch+64(FP), R15
	LEAQ (R8)(R8*2), R9         // 3*stride

	// R12 = whole registers per sweep, R13 = the n mod 16 pixels past
	// them, K1 = their lane mask.
	MOVQ n+56(FP), R12
	TAIL_MASK(R12, $15)
	MOVQ R12, R13
	SHRQ $4, R12
	ANDQ $15, R13
	MOVQ phIm+16(FP), CX

fused32chloop:
	MOVQ planes+40(FP), SI
	FUSED_START
	MOVQ R12, DX
	CMPQ R15, $1
	JEQ  fused32last
	ZERO_SUMS(Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z23)
	CMPQ R15, $2
	JEQ  keep32entry
	TESTQ DX, DX
	JZ    pair32tail

pair32loop:
	PAIR32(LDU, STU, PAIR_ROT)
	ADDQ $64, R14
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ DX
	JNZ  pair32loop

pair32tail:
	TESTQ R13, R13
	JZ    pair32fold
	PAIR32(LDM32, STM32, PAIR_ROT)
	JMP   pair32fold

keep32entry:
	TESTQ DX, DX
	JZ    keep32tail

keep32loop:
	PAIR32(LDU, STU, PAIR_KEEP)
	ADDQ $64, R14
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ DX
	JNZ  keep32loop

keep32tail:
	TESTQ R13, R13
	JZ    pair32fold
	PAIR32(LDM32, STM32, PAIR_KEEP)

pair32fold:
	REDUCE16_PAIR
	VADDPS  (AX), Z4, Z4
	VMOVUPS Z4, (AX)
	ADDQ    $64, AX
	SUBQ    $2, R15
	JNZ     fused32chloop
	VZEROUPPER
	RET

fused32last:
	TESTQ DX, DX
	JZ    fused32tail

fused32pixloop:
	FUSED_ACC(LDU, VFMADD231PS, VFNMADD231PS)
	ADDQ $64, R14
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ DX
	JNZ  fused32pixloop

fused32tail:
	TESTQ R13, R13
	JZ    fused32fold
	FUSED_ACC(LDM32, VFMADD231PS, VFNMADD231PS)

fused32fold:
	REDUCE16
	VADDPS  (AX), Y4, Y4
	VMOVUPS Y4, (AX)
	VZEROUPPER
	RET

// The A-term sandwiches at eight pixels per ZMM: sandwich_amd64.h on the
// sums as the pixel-lane kernels leave them, in groups of sixteen pixels
// — AX steps 64 bytes to a group's second oct, 960 on to the next group,
// the step alternating in R14.
#define SPL 128
#define S_NEXT ADDQ R14, AX; XORQ $896, R14 // 64 ^ 960

// PERM_INDEX sets z to the eight bytes of imm widened to quadwords, a
// VPERMI2PD index vector; clobbers R14 and X12.
#define PERM_INDEX(imm, z) \
	MOVQ      imm, R14 \
	VMOVQ     R14, X12 \
	VPMOVZXBQ X12, z

// STORE_AOS(re, im, out): interleaves eight (re, im) pairs into eight
// consecutive complex128 at out; Z28/Z29 index the pairs 0-3 and 4-7.
#define STORE_AOS(re, im, out) \
	VMOVAPD   Z28, Z12    \
	VMOVAPD   Z29, Z13    \
	VPERMI2PD im, re, Z12 \
	VPERMI2PD im, re, Z13 \
	VMOVUPD   Z12, (out)  \
	VMOVUPD   Z13, 64(out)

// LOAD_AOS(in, re, im): splits eight consecutive complex128 at in into
// their real and imaginary vectors; Z28/Z29 index the even and the odd
// doubles.
#define LOAD_AOS(in, re, im) \
	VMOVUPD   (in), Z14           \
	VMOVAPD   Z28, Z12            \
	VMOVAPD   Z29, Z13            \
	VPERMI2PD 64(in), Z14, Z12    \
	VPERMI2PD 64(in), Z14, Z13    \
	VMOVUPD   Z12, re             \
	VMOVUPD   Z13, im

#include "sandwich_amd64.h"

// func gridSandwichOcts(out0, out1, out2, out3 *complex128, sums, p, q *float64, stride int, taper *float64, nv int)
TEXT ·gridSandwichOcts(SB), NOSPLIT, $0-80
	PERM_INDEX($0x0B030A0209010800, Z28)
	PERM_INDEX($0x0F070E060D050C04, Z29)
	MOVQ $64, R14
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

// func degridSandwichOcts(planes *float64, stride int, in0, in1, in2, in3 *complex128, p, q, taper *float64, nv int)
TEXT ·degridSandwichOcts(SB), 0, $512-80
	PERM_INDEX($0x0E0C0A0806040200, Z28)
	PERM_INDEX($0x0F0D0B0907050301, Z29)
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
