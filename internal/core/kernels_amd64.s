//go:build amd64

#include "textflag.h"

// The tile bodies of the avx2 dispatch tier: the avx512 tier's
// pixel-lane routines (kernels_avx512_amd64.s) at YMM width. The gridder
// holds four float64 or eight float32 pixels, one per lane, in one
// register (rotAccPixBlk64W, rotAccPixBlk32W); the fused degridder runs a
// register of pixels per instruction (rotConjAccBlk64W, rotConjAccBlk32W);
// the phase stagers (stagePIdxW, stageArgsW) run ahead of both; and the
// A-term sandwiches take four pixels per YMM (gridSandwichQuads,
// degridSandwichQuads). The per-register text is the ZMM bodies' own
// (pixlanes_amd64.h, sandwich_amd64.h), so per lane every routine does
// what its ZMM twin does. Without EVEX there are sixteen vector registers
// and no opmasks: a gridder call holds one register of pixels where the
// ZMM one holds two, and the pixels past a row's last whole register go
// through VMASKMOVPD/PS under a lane mask in V15.
//
// The W routines serve both vector tiers: each takes its ZMM twin's
// arguments plus a last flag, and with the flag set it jumps into the
// twin (TO_ZMM), which finds its arguments where it reads them. Go code
// thus makes one direct call whatever the width; a Go wrapper or a
// function value in between cost the avx512 tier 5-6 % on short float32
// items (BenchmarkGridderKernelShortItemsFloat32). See
// simd_amd64.go for the contracts, tile_vec.go and sandwich.go for the
// callers. All routines VZEROUPPER before returning to Go code.

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

// tailmask is 32 bytes of ones, then 32 of zeros: the register at
// tailmask+32-nb has ones in its first nb bytes.
DATA tailmask<>+0(SB)/8, $-1
DATA tailmask<>+8(SB)/8, $-1
DATA tailmask<>+16(SB)/8, $-1
DATA tailmask<>+24(SB)/8, $-1
GLOBL tailmask<>(SB), RODATA|NOPTR, $64

// TAIL_MASK sets V15 to the lanes of a register's first nb bytes (nb a
// register holding a whole number of elements, fewer than a register's);
// clobbers DX.
#define TAIL_MASK(nb) \
	LEAQ    tailmask<>+32(SB), DX \
	SUBQ    nb, DX                \
	VMOVDQU (DX), V15

// LDM/STM load and store the pixels of a register under the mask in V15
// (masked-out lanes load as zero, fault on nothing, and are not stored);
// LDM32/STM32 are the same at float32 granularity.
#define LDM(src, dst) VMASKMOVPD src, V15, dst
#define STM(src, dst) VMASKMOVPD src, V15, dst
#define LDM32(src, dst) VMASKMOVPS src, V15, dst
#define STM32(src, dst) VMASKMOVPS src, V15, dst

#include "pixlanes_amd64.h"

// TO_ZMM continues in the ZMM routine zr when the flag at fp, the W
// routine's last argument, is set.
#define TO_ZMM(fp, zr) \
	CMPB fp, $0 \
	JEQ  2(PC)  \
	JMP  zr

// ACC_PIX1 accumulates one correlation's sample at byte offset R14 of its
// re/im streams, broadcast to every lane, against one register of pixel
// phasors (sin V8, cos V9): per lane the ZMM ACC_PIX's four FMAs in its
// order, a_re += vr*pc, a_re -= vi*ps, a_im += vr*ps, a_im += vi*pc.
#define ACC_PIX1(BCAST, FMA, FNMA, rp, ip, are, aim) \
	BCAST (rp)(R14*1), V12 \
	BCAST (ip)(R14*1), V13 \
	FMA   V9, V12, are     \
	FMA   V8, V12, aim     \
	FNMA  V8, V13, are     \
	FMA   V9, V13, aim
#define ACC_PIX64Y(rp, ip, are, aim) \
	ACC_PIX1(VBROADCASTSD, VFMADD231PD, VFNMADD231PD, rp, ip, are, aim)
#define ACC_PIX32Y(rp, ip, are, aim) \
	ACC_PIX1(VBROADCASTSS, VFMADD231PS, VFNMADD231PS, rp, ip, are, aim)

// SUMS64 moves the eight sums V0-V7 of four float64 pixels between
// registers and the [8][4]float64 at AX; SUMS32 those of eight float32
// pixels and the [2][8][4]float32 at AX, lanes 0-3 of sum k at byte 16k,
// lanes 4-7 at 128+16k. Either way sum k of pixel p lies at
// acc[32*(p/4) + 4k + p%4], the planar groups of four the sandwich reads.
#define SUMS64(MV) \
	MV(0(AX), V0);   MV(32(AX), V1);  MV(64(AX), V2);  MV(96(AX), V3); \
	MV(128(AX), V4); MV(160(AX), V5); MV(192(AX), V6); MV(224(AX), V7)
#define LD64(mem, reg) VMOVUPD mem, reg
#define ST64(mem, reg) VMOVUPD reg, mem
#define SUMS32(MV) \
	MV(0, X0, Y0); MV(1, X1, Y1); MV(2, X2, Y2); MV(3, X3, Y3); \
	MV(4, X4, Y4); MV(5, X5, Y5); MV(6, X6, Y6); MV(7, X7, Y7)
#define LD32(k, x, y) VMOVUPS (16*k)(AX), x; VINSERTF128 $1, (128+16*k)(AX), y, y
#define ST32(k, x, y) VMOVUPS x, (16*k)(AX); VEXTRACTF128 $1, y, (128+16*k)(AX)

// func rotAccPixBlk64W(acc, r0, i0, r1, i1, r2, i2, r3, i3 *float64, nc int, sn, cs *float64, nt, rowCh int, zmm bool)
//
// rotAccPixBlk64 for four pixels, one register: the eight sums in V0-V7
// throughout, a chunk's phasors in V8/V9, a step's deltas in V10/V11,
// sn/cs rows of four lanes in the same order. Every visibility is
// broadcast once per channel; R14 is the running byte offset into the
// eight streams, which are contiguous over (t, c).
TEXT ·rotAccPixBlk64W(SB), NOSPLIT, $0-113
	TO_ZMM(zmm+112(FP), ·rotAccPixBlk64(SB))
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
	SUMS64(LD64)

	MOVQ sn+80(FP), BX
	MOVQ cs+88(FP), CX
	MOVQ nt+96(FP), AX

pixsteploop:
	MOVQ    nc+72(FP), R15
	CMPQ    rowCh+104(FP), $1
	JEQ     pixchunkloop
	VMOVUPD (BX), V10
	VMOVUPD (CX), V11
	ADDQ    $32, BX
	ADDQ    $32, CX

pixchunkloop:
	VMOVUPD (BX), V8
	VMOVUPD (CX), V9
	ADDQ    $32, BX
	ADDQ    $32, CX
	MOVQ    rowCh+104(FP), DX
	CMPQ    R15, DX
	CMOVQLT R15, DX
	SUBQ    DX, R15

pixchanloop:
	ACC_PIX64Y(SI, DI, V0, V1)
	ACC_PIX64Y(R8, R9, V2, V3)
	ACC_PIX64Y(R10, R11, V4, V5)
	ACC_PIX64Y(R12, R13, V6, V7)
	ADDQ $8, R14
	DECQ DX
	JZ   pixchunkdone
	ROT_PIX64(V8, V9, V10, V11, V14, V15)
	JMP  pixchanloop

pixchunkdone:
	TESTQ R15, R15
	JNZ   pixchunkloop
	DECQ  AX
	JNZ   pixsteploop

	MOVQ acc+0(FP), AX
	SUMS64(ST64)
	VZEROUPPER
	RET

// NARROW_ROW narrows the staged row of eight doubles at base into the
// register y (x its low half) with VCVTPD2PS, the bits of Go's
// float32(x); clobbers xt.
#define NARROW_ROW(base, x, y, xt) \
	VCVTPD2PSY  (base), x      \
	VCVTPD2PSY  32(base), xt   \
	VINSERTF128 $1, xt, y, y

// func rotAccPixBlk32W(acc, r0, i0, r1, i1, r2, i2, r3, i3 *float32, nc int, sn, cs *float64, nt, rowCh int, zmm bool)
//
// rotAccPixBlk64W at eight float32 lanes: eight pixels per call, acc a
// [2][8][4]float32 (SUMS32), sn/cs float64 rows of eight lanes, each
// narrowed in-register where the float64 kernel loads it. Phasors rotate
// and sums accumulate in float32.
TEXT ·rotAccPixBlk32W(SB), NOSPLIT, $0-113
	TO_ZMM(zmm+112(FP), ·rotAccPixBlk32(SB))
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
	SUMS32(LD32)

	MOVQ sn+80(FP), BX
	MOVQ cs+88(FP), CX
	MOVQ nt+96(FP), AX

pix32steploop:
	MOVQ nc+72(FP), R15
	CMPQ rowCh+104(FP), $1
	JEQ  pix32chunkloop
	NARROW_ROW(BX, X10, Y10, X14)
	NARROW_ROW(CX, X11, Y11, X15)
	ADDQ $64, BX
	ADDQ $64, CX

pix32chunkloop:
	NARROW_ROW(BX, X8, Y8, X14)
	NARROW_ROW(CX, X9, Y9, X15)
	ADDQ    $64, BX
	ADDQ    $64, CX
	MOVQ    rowCh+104(FP), DX
	CMPQ    R15, DX
	CMOVQLT R15, DX
	SUBQ    DX, R15

pix32chanloop:
	ACC_PIX32Y(SI, DI, V0, V1)
	ACC_PIX32Y(R8, R9, V2, V3)
	ACC_PIX32Y(R10, R11, V4, V5)
	ACC_PIX32Y(R12, R13, V6, V7)
	ADDQ $4, R14
	DECQ DX
	JZ   pix32chunkdone
	ROT_PIX32(V8, V9, V10, V11, V14, V15)
	JMP  pix32chanloop

pix32chunkdone:
	TESTQ R15, R15
	JNZ   pix32chunkloop
	DECQ  AX
	JNZ   pix32steploop

	MOVQ acc+0(FP), AX
	SUMS32(ST32)
	VZEROUPPER
	RET

// ZERO_SUMS clears the fused kernels' eight accumulators.
#define ZERO_SUMS \
	VXORPD Y4, Y4, Y4    \
	VXORPD Y5, Y5, Y5    \
	VXORPD Y6, Y6, Y6    \
	VXORPD Y7, Y7, Y7    \
	VXORPD Y8, Y8, Y8    \
	VXORPD Y9, Y9, Y9    \
	VXORPD Y10, Y10, Y10 \
	VXORPD Y11, Y11, Y11

// FOLD4_PD folds the eight float64 accumulators of four lanes Y4..Y11
// into Y4 (sums 0-3) and Y8 (sums 4-7) as a pairwise tree, (l0+l1) +
// (l2+l3): VHADDPD sums adjacent pairs of two accumulators, interleaved
// per 128-bit lane, then the two 128-bit lanes add. Clobbers Y5-Y13.
#define FOLD4_PD \
	VHADDPD    Y5, Y4, Y4          \ // [a01 b01 a23 b23]
	VHADDPD    Y7, Y6, Y6          \ // [c01 d01 c23 d23]
	VHADDPD    Y9, Y8, Y8          \
	VHADDPD    Y11, Y10, Y10       \
	VPERM2F128 $0x20, Y6, Y4, Y12  \ // [a01 b01 c01 d01]
	VPERM2F128 $0x31, Y6, Y4, Y13  \ // [a23 b23 c23 d23]
	VADDPD     Y13, Y12, Y4        \
	VPERM2F128 $0x20, Y10, Y8, Y12 \
	VPERM2F128 $0x31, Y10, Y8, Y13 \
	VADDPD     Y13, Y12, Y8

// func rotConjAccBlk64W(dst, phRe, phIm, dRe, dIm, planes *float64, stride, n, nch int, zmm bool)
//
// rotConjAccOctsBlk64 at four pixels per instruction: per channel one
// FUSED64 sweep over the n pixels, the n mod 4 past the last whole
// register under a lane mask, the eight sums folded (FOLD4_PD) and added
// once into dst, which advances eight doubles per channel. With all
// sixteen registers taken by the sweep the mask is rebuilt per channel,
// and the masked sweep rotates into V12/V13 instead of V14/V15.
TEXT ·rotConjAccBlk64W(SB), NOSPLIT, $0-73
	TO_ZMM(zmm+72(FP), ·rotConjAccOctsBlk64(SB))
	MOVQ dst+0(FP), AX
	MOVQ phRe+8(FP), BX
	MOVQ dRe+24(FP), R10
	MOVQ dIm+32(FP), R11
	MOVQ stride+48(FP), R8
	MOVQ nch+64(FP), R15
	LEAQ (R8)(R8*2), R9         // 3*stride

	// R12 = whole registers per sweep, R13 = the bytes of the n mod 4
	// pixels past them.
	MOVQ n+56(FP), R12
	MOVQ R12, R13
	SHRQ $2, R12
	ANDQ $3, R13
	SHLQ $3, R13
	MOVQ phIm+16(FP), CX

fusedchloop:
	MOVQ planes+40(FP), SI
	LEAQ (SI)(R8*4), DI
	XORQ R14, R14
	ZERO_SUMS
	MOVQ  R12, DX
	TESTQ DX, DX
	JZ    fusedtail

fusedpixloop:
	FUSED64(LDU, STU, V14, V15)
	ADDQ $32, R14
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ DX
	JNZ  fusedpixloop

fusedtail:
	TESTQ R13, R13
	JZ    fusedfold
	TAIL_MASK(R13)
	FUSED64(LDM, STM, V12, V13)

fusedfold:
	FOLD4_PD
	VADDPD  (AX), Y4, Y4
	VMOVUPD Y4, (AX)
	VADDPD  32(AX), Y8, Y8
	VMOVUPD Y8, 32(AX)
	ADDQ    $64, AX
	DECQ    R15
	JNZ     fusedchloop
	VZEROUPPER
	RET

// func rotConjAccBlk32W(dst, phRe, phIm, dRe, dIm, planes *float32, stride, n, nch int, zmm bool)
//
// rotConjAccBlk64W at eight float32 pixels per instruction, the n mod 8
// tail under the mask, each channel's eight sums folded by FOLD8_PS and
// added once into dst, which advances eight float32 per channel.
TEXT ·rotConjAccBlk32W(SB), NOSPLIT, $0-73
	TO_ZMM(zmm+72(FP), ·rotConjAccBlk32(SB))
	MOVQ dst+0(FP), AX
	MOVQ phRe+8(FP), BX
	MOVQ dRe+24(FP), R10
	MOVQ dIm+32(FP), R11
	MOVQ stride+48(FP), R8
	MOVQ nch+64(FP), R15
	LEAQ (R8)(R8*2), R9         // 3*stride

	MOVQ n+56(FP), R12
	MOVQ R12, R13
	SHRQ $3, R12
	ANDQ $7, R13
	SHLQ $2, R13
	MOVQ phIm+16(FP), CX

fused32chloop:
	MOVQ planes+40(FP), SI
	LEAQ (SI)(R8*4), DI
	XORQ R14, R14
	ZERO_SUMS
	MOVQ  R12, DX
	TESTQ DX, DX
	JZ    fused32tail

fused32pixloop:
	FUSED32(LDU, STU, V14, V15)
	ADDQ $32, R14
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ DX
	JNZ  fused32pixloop

fused32tail:
	TESTQ R13, R13
	JZ    fused32fold
	TAIL_MASK(R13)
	FUSED32(LDM32, STM32, V12, V13)

fused32fold:
	FOLD8_PS
	VADDPS  (AX), Y4, Y4
	VMOVUPS Y4, (AX)
	ADDQ    $32, AX
	DECQ    R15
	JNZ     fused32chloop
	VZEROUPPER
	RET

// func stagePIdxW(dst, l, m, n *float64, npix int, uvw *float64, nt int, zmm bool)
//
// stagePIdx at four pixels per register, the npix mod 4 past a row's last
// whole register under the mask.
TEXT ·stagePIdxW(SB), NOSPLIT, $0-57
	TO_ZMM(zmm+56(FP), ·stagePIdx(SB))
	MOVQ dst+0(FP), DI
	MOVQ l+8(FP), SI
	MOVQ m+16(FP), R8
	MOVQ n+24(FP), R9
	MOVQ npix+32(FP), R10
	MOVQ uvw+40(FP), BX
	MOVQ nt+48(FP), R11
	MOVQ R10, R12
	SHRQ $2, R12                // whole registers per row
	ANDQ $3, R10                // pixels past them
	MOVQ R10, CX
	SHLQ $3, CX
	TAIL_MASK(CX)

	PIDX_ROWS

// func stageArgsW(arg *float64, stride int, pIdx, off *float64, scale float64, npix, nt int, zmm bool)
//
// stageArgs at four pixels per register, tail as in stagePIdxW.
TEXT ·stageArgsW(SB), NOSPLIT, $0-57
	TO_ZMM(zmm+56(FP), ·stageArgs(SB))
	MOVQ         arg+0(FP), DI
	MOVQ         stride+8(FP), R9
	MOVQ         pIdx+16(FP), SI
	MOVQ         off+24(FP), R8
	VBROADCASTSD scale+32(FP), V0
	MOVQ         npix+40(FP), R10
	MOVQ         nt+48(FP), R11
	MOVQ         R10, R12
	SHRQ         $2, R12
	ANDQ         $3, R10
	MOVQ         R10, CX
	SHLQ         $3, CX
	TAIL_MASK(CX)

	ARGS_ROWS

// The A-term sandwiches at four pixels per YMM: sandwich_amd64.h on the
// sums as the pixel-lane kernels leave them, in planar groups of four.
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
