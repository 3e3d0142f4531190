// The width-generic text of the pixel-lane routines, one text for both
// vector widths: YMM on the avx2 tier (kernels_amd64.s), ZMM on the
// avx512 tier (kernels_avx512_amd64.s). The including file defines V0-V15,
// the vector registers; VB, their size in bytes; and LDM/STM(src, dst),
// the float64 load and store of a register's first (count mod lanes)
// pixels, whatever its mask mechanism.

// LDU/STU are the plain register of pixels, the unmasked counterpart of
// LDM/STM.
#define LDU(src, dst) VMOVUPD src, dst
#define STU(src, dst) VMOVUPD src, dst

// ROT_PIX advances one register's phasors by one channel, each pixel by
// its own delta phasor: ps' = ps*dc + pc*ds, pc' = pc*dc - ps*ds, the
// cross terms rounded first (rotateAccumulateFMA's sequence).
#define ROT_PIX(MUL, FMSUB, FMADD, ps, pc, ds, dc, t0, t1) \
	MUL   ds, ps, t1 \
	MUL   ds, pc, t0 \
	FMSUB t1, dc, pc \
	FMADD t0, dc, ps
#define ROT_PIX64(ps, pc, ds, dc, t0, t1) \
	ROT_PIX(VMULPD, VFMSUB213PD, VFMADD213PD, ps, pc, ds, dc, t0, t1)
#define ROT_PIX32(ps, pc, ds, dc, t0, t1) \
	ROT_PIX(VMULPS, VFMSUB213PS, VFMADD213PS, ps, pc, ds, dc, t0, t1)

// FUSED_VEC is one register of pixels of the fused degridder kernels at
// byte offset R14 of the phasor arrays (BX phRe, CX phIm, R10 dRe, R11
// dIm) and at SI/DI in the pixel planes (SI planes 0-3, DI planes 4-7,
// R8 and R9 one and three plane strides): the conjugate accumulation into
// V4-V11 — per correlation s_re += vr*cr + vi*phIm, s_im += vi*cr -
// vr*phIm — then the rotation phIm' = phIm*dRe + phRe*dIm, phRe' =
// phRe*dRe - phIm*dIm into ri and rr, stored back in place. MUL, FMA and
// FNMA are the element width's mnemonics (FUSED64, FUSED32).
#define FUSED_VEC(LD, ST, MUL, FMA, FNMA, ri, rr) \
	LD((BX)(R14*1), V0)  \ // cr = phRe
	LD((CX)(R14*1), V1)  \ // -ci = phIm (conjugate phasor)
	LD((SI), V12)        \ // vr, correlation 0
	LD((SI)(R8*1), V13)  \ // vi
	FMA  V0, V12, V4     \ // s_re += vr*cr
	FMA  V1, V13, V4     \ // s_re += vi*phIm  (= -vi*ci)
	FNMA V1, V12, V5     \ // s_im -= vr*phIm  (= +vr*ci)
	FMA  V0, V13, V5     \ // s_im += vi*cr
	LD((SI)(R8*2), V12)  \
	LD((SI)(R9*1), V13)  \
	FMA  V0, V12, V6     \
	FMA  V1, V13, V6     \
	FNMA V1, V12, V7     \
	FMA  V0, V13, V7     \
	LD((DI), V12)        \
	LD((DI)(R8*1), V13)  \
	FMA  V0, V12, V8     \
	FMA  V1, V13, V8     \
	FNMA V1, V12, V9     \
	FMA  V0, V13, V9     \
	LD((DI)(R8*2), V12)  \
	LD((DI)(R9*1), V13)  \
	FMA  V0, V12, V10    \
	FMA  V1, V13, V10    \
	FNMA V1, V12, V11    \
	FMA  V0, V13, V11    \
	LD((R10)(R14*1), V2) \ // dRe
	LD((R11)(R14*1), V3) \ // dIm
	MUL  V2, V1, ri      \
	FMA  V3, V0, ri      \
	MUL  V2, V0, rr      \
	FNMA V3, V1, rr      \
	ST(ri, (CX)(R14*1))  \
	ST(rr, (BX)(R14*1))
#define FUSED64(LD, ST, ri, rr) FUSED_VEC(LD, ST, VMULPD, VFMADD231PD, VFNMADD231PD, ri, rr)
#define FUSED32(LD, ST, ri, rr) FUSED_VEC(LD, ST, VMULPS, VFMADD231PS, VFNMADD231PS, ri, rr)

// FOLD8_PS folds eight float32 accumulators of eight lanes, Y4..Y11, into
// the eight lanes of Y4 (lane k = accumulator k's sum) as a pairwise tree,
// ((m0+m1)+(m2+m3))+((m4+m5)+(m6+m7)): two rounds of VHADDPS, which sum
// adjacent pairs and interleave two accumulators per 128-bit lane, then
// the two 128-bit lanes. Clobbers Y5-Y13.
#define FOLD8_PS \
	VHADDPS    Y5, Y4, Y4           \ // [a01 a23 b01 b23 | a45 a67 b45 b67] of Y4, Y5
	VHADDPS    Y7, Y6, Y6           \
	VHADDPS    Y9, Y8, Y8           \
	VHADDPS    Y11, Y10, Y10        \
	VHADDPS    Y6, Y4, Y4           \ // [a0123 b0123 c0123 d0123 | a4567 ... d4567]
	VHADDPS    Y10, Y8, Y8          \ // the same of Y8..Y11
	VPERM2F128 $0x20, Y8, Y4, Y12   \ // the eight 0123 sums
	VPERM2F128 $0x31, Y8, Y4, Y13   \ // the eight 4567 sums
	VADDPS     Y13, Y12, Y4

// PIDX_VEC is one register of stagePIdx at byte offset AX: the unfused
// (U*l + V*m) + W*n with U, V, W broadcast in V0-V2.
#define PIDX_VEC(LD, ST) \
	LD((SI)(AX*1), V3)    \
	LD((R8)(AX*1), V4)    \
	LD((R9)(AX*1), V5)    \
	VMULPD V3, V0, V3     \
	VMULPD V4, V1, V4     \
	VADDPD V4, V3, V3     \
	VMULPD V5, V2, V5     \
	VADDPD V5, V3, V3     \
	ST(V3, (DI)(AX*1))

// PIDX_ROWS is stagePIdx's loop once its arguments are loaded: DI dst,
// SI/R8/R9 l/m/n, BX the triples, R11 the rows, R12 whole registers per
// row, R10 the pixels past them (under LDM/STM).
#define PIDX_ROWS \
pidxsteploop:                 \
	VBROADCASTSD (BX), V0     \
	VBROADCASTSD 8(BX), V1    \
	VBROADCASTSD 16(BX), V2   \
	XORQ         AX, AX       \
	MOVQ         R12, DX      \
	TESTQ        DX, DX       \
	JZ           pidxtail     \
pidxoctloop:                  \
	PIDX_VEC(LDU, STU)        \
	ADDQ $VB, AX              \
	DECQ DX                   \
	JNZ  pidxoctloop          \
pidxtail:                     \
	TESTQ R10, R10            \
	JZ    pidxnext            \
	PIDX_VEC(LDM, STM)        \
pidxnext:                     \
	LEAQ (AX)(R10*8), AX      \
	ADDQ AX, DI               \ // one row of npix doubles
	ADDQ $24, BX              \
	DECQ R11                  \
	JNZ  pidxsteploop         \
	VZEROUPPER                \
	RET

// ARGS_VEC is one register of stageArgs at byte offset AX: pIdx*scale,
// less the pixel's phase offset when there is an offset table (R8 != 0).
// The product is rounded before the difference, as in Go.
#define ARGS_VEC(LD, ST, skip) \
	LD((SI)(AX*1), V1)    \
	VMULPD V1, V0, V1     \
	TESTQ  R8, R8         \
	JZ     skip           \
	LD((R8)(AX*1), V2)    \
	VSUBPD V2, V1, V1     \
skip:                     \
	ST(V1, (DI)(AX*1))

// ARGS_ROWS is stageArgs' loop once its arguments are loaded: DI arg, R9
// its row stride, SI pIdx, R8 off, V0 the scale, R11 the rows, R12 whole
// registers per row, R10 the pixels past them.
#define ARGS_ROWS \
argssteploop:                           \
	XORQ  AX, AX                        \
	MOVQ  R12, DX                       \
	TESTQ DX, DX                        \
	JZ    argstail                      \
argsoctloop:                            \
	ARGS_VEC(LDU, STU, argsnooff)       \
	ADDQ $VB, AX                        \
	DECQ DX                             \
	JNZ  argsoctloop                    \
argstail:                               \
	TESTQ R10, R10                      \
	JZ    argsnext                      \
	ARGS_VEC(LDM, STM, argstailnooff)   \
argsnext:                               \
	LEAQ (AX)(R10*8), AX                \
	ADDQ AX, SI                         \
	ADDQ R9, DI                         \
	DECQ R11                            \
	JNZ  argssteploop                   \
	VZEROUPPER                          \
	RET
