//go:build amd64

#include "textflag.h"

// The full-width float64 tile bodies of the SIMDAVX512 dispatch tier:
// the gridder's time-blocked recurrence at eight channels per ZMM
// register (rotAccOctsBlk64, folded by foldOctLanes64) and the
// degridder's fused, channel-blocked rotate-and-accumulate at eight
// pixels per ZMM (rotConjAccOctsBlk64). See simd_amd64.go for the
// contracts, tile_vec.go for the callers. Only that tier reaches this
// file: xmath's detection requires AVX-512 F+DQ+BW+VL and OS-saved
// opmask/ZMM state. All routines are NOSPLIT leaves and VZEROUPPER
// before returning to Go code.

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

// LOAD_CORR loads the eight samples at byte offset R14 of one
// correlation's re/im visibility streams into Z12/Z13.
#define LOAD_CORR(rp, ip) \
	VMOVUPD (rp)(R14*1), Z12 \
	VMOVUPD (ip)(R14*1), Z13

// ACC_CORR accumulates the loaded samples against one pixel's phasor
// lanes ps/pc: the FMA sequence of rotAccQuads — a_re += vr*pc,
// a_re -= vi*ps, a_im += vr*ps, a_im += vi*pc.
#define ACC_CORR(ps, pc, are, aim) \
	VFMADD231PD  pc, Z12, are \
	VFNMADD231PD ps, Z13, are \
	VFMADD231PD  ps, Z12, aim \
	VFMADD231PD  pc, Z13, aim

// ROT_LANES advances one pixel's phasor lanes by eight channels
// (rotator ds/dc broadcast): ps' = ps*dc + pc*ds, pc' = pc*dc - ps*ds.
#define ROT_LANES(ps, pc, ds, dc, t0, t1) \
	VMULPD       dc, ps, t0 \
	VMULPD       dc, pc, t1 \
	VFMADD231PD  ds, pc, t0 \
	VFNMADD231PD ds, ps, t1 \
	VMOVAPD      t0, ps     \
	VMOVAPD      t1, pc

// func rotAccOctsBlk64(acc0, acc1, r0, i0, r1, i1, r2, i2, r3, i3 *float64, no int, ph0, ph1 *float64, nt int)
//
// rotAccQuadsBlk at eight channels per register, two pixels per call.
// Each acc points at a [64]float64 block: eight accumulators x eight
// lanes, accumulator k's lanes at acc[8k:8k+8], held in registers
// across all nt time steps — pixel A's in Z4-Z11 with its phasor state
// in Z0-Z3, pixel B's in Z20-Z27 and Z16-Z19. Per time step each
// pixel's phasor lanes and rotator reload from a fresh [18]float64
// block (the seedOctsBlk layout: sin lanes [0:8], cos lanes [8:16],
// sin/cos of 8*delta at [16], [17]; ph0/ph1 advance 144 bytes) and the
// channel loop runs no iterations. nc = 8*no, so the eight visibility
// streams are contiguous across steps: R14 is the running byte offset
// into all of them, and both pixels share every load. One pixel alone
// would give each accumulator two dependent FMAs per iteration — as
// long as its sixteen FMAs take to issue on two ports, so any hiccup
// stalls; the second pixel's independent chains keep the ports busy
// (what rotAccOctsBlk2 found for float32). The pixels do not interact:
// each one's operation sequence depends on its own phasor blocks only.
TEXT ·rotAccOctsBlk64(SB), NOSPLIT, $0-112
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
	XORQ R14, R14

	MOVQ    acc0+0(FP), AX
	VMOVUPD (AX), Z4
	VMOVUPD 64(AX), Z5
	VMOVUPD 128(AX), Z6
	VMOVUPD 192(AX), Z7
	VMOVUPD 256(AX), Z8
	VMOVUPD 320(AX), Z9
	VMOVUPD 384(AX), Z10
	VMOVUPD 448(AX), Z11
	MOVQ    acc1+8(FP), AX
	VMOVUPD (AX), Z20
	VMOVUPD 64(AX), Z21
	VMOVUPD 128(AX), Z22
	VMOVUPD 192(AX), Z23
	VMOVUPD 256(AX), Z24
	VMOVUPD 320(AX), Z25
	VMOVUPD 384(AX), Z26
	VMOVUPD 448(AX), Z27

	MOVQ ph0+88(FP), BX
	MOVQ ph1+96(FP), AX

octtloop:
	VMOVUPD      (BX), Z0
	VMOVUPD      64(BX), Z1
	VBROADCASTSD 128(BX), Z2
	VBROADCASTSD 136(BX), Z3
	VMOVUPD      (AX), Z16
	VMOVUPD      64(AX), Z17
	VBROADCASTSD 128(AX), Z18
	VBROADCASTSD 136(AX), Z19
	MOVQ         R15, DX

octloop:
	LOAD_CORR(SI, DI)
	ACC_CORR(Z0, Z1, Z4, Z5)
	ACC_CORR(Z16, Z17, Z20, Z21)
	LOAD_CORR(R8, R9)
	ACC_CORR(Z0, Z1, Z6, Z7)
	ACC_CORR(Z16, Z17, Z22, Z23)
	LOAD_CORR(R10, R11)
	ACC_CORR(Z0, Z1, Z8, Z9)
	ACC_CORR(Z16, Z17, Z24, Z25)
	LOAD_CORR(R12, R13)
	ACC_CORR(Z0, Z1, Z10, Z11)
	ACC_CORR(Z16, Z17, Z26, Z27)
	ROT_LANES(Z0, Z1, Z2, Z3, Z14, Z15)
	ROT_LANES(Z16, Z17, Z18, Z19, Z28, Z29)
	ADDQ $64, R14
	DECQ DX
	JNZ  octloop

	ADDQ $144, BX
	ADDQ $144, AX
	DECQ CX
	JNZ  octtloop

	MOVQ    acc0+0(FP), AX
	VMOVUPD Z4, (AX)
	VMOVUPD Z5, 64(AX)
	VMOVUPD Z6, 128(AX)
	VMOVUPD Z7, 192(AX)
	VMOVUPD Z8, 256(AX)
	VMOVUPD Z9, 320(AX)
	VMOVUPD Z10, 384(AX)
	VMOVUPD Z11, 448(AX)
	MOVQ    acc1+8(FP), AX
	VMOVUPD Z20, (AX)
	VMOVUPD Z21, 64(AX)
	VMOVUPD Z22, 128(AX)
	VMOVUPD Z23, 192(AX)
	VMOVUPD Z24, 256(AX)
	VMOVUPD Z25, 320(AX)
	VMOVUPD Z26, 384(AX)
	VMOVUPD Z27, 448(AX)
	VZEROUPPER
	RET

// func foldOctLanes64(sums, vacc *float64, npix int)
//
// Lane fold of the oct gridder: per pixel, the eight eight-lane
// accumulators at vacc[64*i:] reduce to eight sums at sums[8*i:] in the
// REDUCE8 order.
TEXT ·foldOctLanes64(SB), NOSPLIT, $0-24
	MOVQ sums+0(FP), DI
	MOVQ vacc+8(FP), SI
	MOVQ npix+16(FP), CX

fold8loop:
	VMOVUPD (SI), Z4
	VMOVUPD 64(SI), Z5
	VMOVUPD 128(SI), Z6
	VMOVUPD 192(SI), Z7
	VMOVUPD 256(SI), Z8
	VMOVUPD 320(SI), Z9
	VMOVUPD 384(SI), Z10
	VMOVUPD 448(SI), Z11
	REDUCE8
	VMOVUPD Z4, (DI)
	ADDQ    $512, SI
	ADDQ    $64, DI
	DECQ    CX
	JNZ     fold8loop
	VZEROUPPER
	RET

// LDU/STU and LDM/STM are the two flavours of pixel access FUSED_OCT is
// instantiated with: plain, and under opmask K1 (masked-out lanes load
// as zero and are not stored).
#define LDU(src, dst) VMOVUPD src, dst
#define STU(src, dst) VMOVUPD src, dst
#define LDM(src, dst) VMOVUPD.Z src, K1, dst
#define STM(src, dst) VMOVUPD src, K1, dst

// FUSED_OCT is one oct of pixels of rotConjAccOctsBlk64 at byte offset
// R14 of the phasor arrays (BX phRe, CX phIm, R10 dRe, R11 dIm) and at
// SI/DI in the pixel planes (SI planes 0-3, DI planes 4-7, R8 and R9
// one and three plane strides): conjAccQuads' FMA sequence into Z4-Z11,
// then rotQuads' — phIm' = phIm*dRe + phRe*dIm, phRe' = phRe*dRe -
// phIm*dIm — stored back in place.
#define FUSED_OCT(LD, ST) \
	LD((BX)(R14*1), Z0)       \ // cr = phRe
	LD((CX)(R14*1), Z1)       \ // -ci = phIm (conjugate phasor)
	LD((SI), Z12)             \ // vr, correlation 0
	LD((SI)(R8*1), Z13)       \ // vi
	VFMADD231PD  Z0, Z12, Z4  \ // s_re += vr*cr
	VFMADD231PD  Z1, Z13, Z4  \ // s_re += vi*phIm  (= -vi*ci)
	VFNMADD231PD Z1, Z12, Z5  \ // s_im -= vr*phIm  (= +vr*ci)
	VFMADD231PD  Z0, Z13, Z5  \ // s_im += vi*cr
	LD((SI)(R8*2), Z12)       \
	LD((SI)(R9*1), Z13)       \
	VFMADD231PD  Z0, Z12, Z6  \
	VFMADD231PD  Z1, Z13, Z6  \
	VFNMADD231PD Z1, Z12, Z7  \
	VFMADD231PD  Z0, Z13, Z7  \
	LD((DI), Z12)             \
	LD((DI)(R8*1), Z13)       \
	VFMADD231PD  Z0, Z12, Z8  \
	VFMADD231PD  Z1, Z13, Z8  \
	VFNMADD231PD Z1, Z12, Z9  \
	VFMADD231PD  Z0, Z13, Z9  \
	LD((DI)(R8*2), Z12)       \
	LD((DI)(R9*1), Z13)       \
	VFMADD231PD  Z0, Z12, Z10 \
	VFMADD231PD  Z1, Z13, Z10 \
	VFNMADD231PD Z1, Z12, Z11 \
	VFMADD231PD  Z0, Z13, Z11 \
	LD((R10)(R14*1), Z2)      \ // dRe
	LD((R11)(R14*1), Z3)      \ // dIm
	VMULPD       Z2, Z1, Z14  \
	VFMADD231PD  Z3, Z0, Z14  \
	VMULPD       Z2, Z0, Z15  \
	VFNMADD231PD Z3, Z1, Z15  \
	ST(Z14, (CX)(R14*1))      \
	ST(Z15, (BX)(R14*1))

// func rotConjAccOctsBlk64(dst, phRe, phIm, dRe, dIm, planes *float64, stride, n, nch int)
//
// The degridder's rotation and conjugate accumulation fused and blocked
// over the nch channels of one resync chunk, eight pixels per
// instruction. For each channel in turn it sweeps the n pixels once
// (FUSED_OCT): sum_i conj(phasor_i) * pixel_i over the pixel planes
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
	MOVQ  n+56(FP), R12
	MOVQ  R12, R13
	SHRQ  $3, R12
	ANDQ  $7, R13
	MOVQ  R13, CX
	MOVQ  $1, DX
	SHLQ  CX, DX
	DECQ  DX
	KMOVW DX, K1
	MOVQ  phIm+16(FP), CX

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
	FUSED_OCT(LDU, STU)
	ADDQ $64, R14
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ DX
	JNZ  fusedpixloop

fusedtail:
	TESTQ R13, R13
	JZ    fusedfold
	FUSED_OCT(LDM, STM)

fusedfold:
	REDUCE8
	VADDPD  (AX), Z4, Z4
	VMOVUPD Z4, (AX)
	ADDQ    $64, AX
	DECQ    R15
	JNZ     fusedchloop
	VZEROUPPER
	RET
