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

// func rotConjAccOctsBlk64(dst, phRe, phIm, dRe, dIm, planes *float64, stride, n, nch int)
//
// The degridder's rotation and conjugate accumulation fused and blocked
// over the nch channels of one resync chunk, eight pixels per
// instruction. For each channel in turn it sweeps the n pixels once
// (FUSED64): sum_i conj(phasor_i) * pixel_i over the pixel planes
// re0, im0, re1, ... that start stride bytes apart at planes, and in
// the same sweep the phasors advance by their per-pixel delta phasors,
// ready for the next channel (the advance after the last channel is
// discarded by the caller's next seeding). The eight sums of the
// channel then fold (REDUCE8) and ADD into dst, which advances eight
// doubles per channel: one addition per element of dst.
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
	MOVQ   planes+40(FP), SI
	LEAQ   (SI)(R8*4), DI
	XORQ   R14, R14
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	MOVQ   R12, DX
	TESTQ  DX, DX
	JZ     fusedtail

fusedpixloop:
	FUSED64(LDU, STU, V14, V15)
	ADDQ $64, R14
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ DX
	JNZ  fusedpixloop

fusedtail:
	TESTQ R13, R13
	JZ    fusedfold
	FUSED64(LDM, STM, V14, V15)

fusedfold:
	REDUCE8
	VADDPD  (AX), Z4, Z4
	VMOVUPD Z4, (AX)
	ADDQ    $64, AX
	DECQ    R15
	JNZ     fusedchloop
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

// func rotConjAccBlk32(dst, phRe, phIm, dRe, dIm, planes *float32, stride, n, nch int)
//
// rotConjAccOctsBlk64 at sixteen float32 pixels per instruction: per
// channel one FUSED32 sweep over the n pixels — the conjugate
// accumulation per pixel, then the rotation in place — the n mod 16
// pixels past the last whole register under the opmask K1, the eight
// sums folded (REDUCE16) and added once into dst, which advances eight
// float32 per channel.
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
	MOVQ   planes+40(FP), SI
	LEAQ   (SI)(R8*4), DI
	XORQ   R14, R14
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	MOVQ   R12, DX
	TESTQ  DX, DX
	JZ     fused32tail

fused32pixloop:
	FUSED32(LDU, STU, V14, V15)
	ADDQ $64, R14
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ DX
	JNZ  fused32pixloop

fused32tail:
	TESTQ R13, R13
	JZ    fused32fold
	FUSED32(LDM32, STM32, V14, V15)

fused32fold:
	REDUCE16
	VADDPS  (AX), Y4, Y4
	VMOVUPS Y4, (AX)
	ADDQ    $32, AX
	DECQ    R15
	JNZ     fused32chloop
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
