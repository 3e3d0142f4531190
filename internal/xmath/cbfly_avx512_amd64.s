// The lane routines of cbfly.go at ZMM width, four complex128 lanes per
// register, for the avx512 tier: cbfly_amd64.h's text, reached only by
// a jump from the routine's W entry (cbfly_amd64.s) with the arguments
// in general registers. Not Go functions, they have no Go declaration
// (NOFRAME) and run in the W entry's empty frame.

#include "textflag.h"

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
#define LANES 4
#define VSHIFT 2
#define RE $0x00
#define IM $0xff
#define SWAP $0x55
#define CBCAST(m, v) VBROADCASTF64X2 m, v
#define LD(m, v) VMOVUPD.Z m, K1, v
#define ST(v, m) VMOVUPD v, K1, m

// The sign masks live in registers: as memory operands a register wide
// they would split cache lines (the linker aligns the tables to 32
// bytes).
#define NEGRE Z31
#define NEGSETUP CBCAST(qsigns<>(SB), Z31)
#define W3M1 Z29
#define W3M2 Z30
#define W3SETUP CBCAST((BX), Z29); CBCAST(32(BX), Z30)

// NVEC leaves ceil(n/4) in CX, sets K1 and K3 to all eight qwords and
// K2 to the qwords of the lanes of the last quad; LASTVEC switches K1
// to K2 before the last iteration, ROWVEC back to K3.
#define NVEC(n, tmp) \
	MOVQ  n, CX           \
	DECQ  CX              \
	ANDQ  $3, CX          \
	LEAQ  2(CX)(CX*1), CX \
	MOVL  $1, tmp         \
	SHLL  CX, tmp         \
	DECL  tmp             \
	KMOVB tmp, K2         \
	MOVL  $0xff, tmp      \
	KMOVB tmp, K1         \
	KMOVB tmp, K3         \
	MOVQ  n, CX           \
	ADDQ  $3, CX          \
	SHRQ  $2, CX
#define LASTVEC CMPQ CX, $1; JNE 2(PC); KMOVB K2, K1
#define ROWVEC KMOVB K3, K1

// PSWAP swaps the lanes of every pair, PBLEND takes lo's odd lanes from
// hi (K4); DFT4LD gathers the [a b] halves of two quads into ab and the
// [c d] halves into cd, DFT4ST scatters them back.
#define PSWAP(v, out) VSHUFF64X2 $0xb1, v, v, out
#define PBLEND(hi, lo) VMOVAPD hi, K4, lo
#define PSETUP MOVL $0xcc, R9; KMOVB R9, K4
#define DFT4LD(ab, cd, t0, t1) \
	VMOVUPD    (DI), t0          \
	VMOVUPD    64(DI), t1        \
	VSHUFF64X2 $0x44, t1, t0, ab \
	VSHUFF64X2 $0xee, t1, t0, cd
#define DFT4ST(o0, o1, t0, t1) \
	VSHUFF64X2 $0x44, o1, o0, t0 \
	VSHUFF64X2 $0xee, o1, o0, t1 \
	VMOVUPD    t0, (DI)          \
	VMOVUPD    t1, 64(DI)

// LANEPAIR: out = [even odd even odd] from the broadcasts even and odd.
#define LANEPAIR(odd, even, out) \
	VSHUFF64X2 $0x00, odd, even, out \
	VSHUFF64X2 $0x88, out, out, out

// STORET stores the lanes of v to base, base+dl, base+2dl, base+3dl.
#define STORET(v, vx, base) \
	VMOVUPD       vx, (base)           \
	VEXTRACTF64X2 $1, v, (base)(R10*1) \
	VEXTRACTF64X2 $2, v, (base)(R10*2) \
	VEXTRACTF64X2 $3, v, (base)(R13*1)

// TBLOCK transposes one 4x4 block: source rows b..b+3 read left to
// right, destination rows a..a+3.
#define TBLOCK \
	VMOVUPD    (BX), Z0          \ // src[b][a..a+3]
	VMOVUPD    (BX)(R9*1), Z1    \ // src[b+1]
	VMOVUPD    (BX)(R9*2), Z2    \ // src[b+2]
	VMOVUPD    (BX)(R13*1), Z3   \ // src[b+3]
	VSHUFF64X2 $0x44, Z1, Z0, Z4 \ // [b0a0 b0a1 b1a0 b1a1]
	VSHUFF64X2 $0xee, Z1, Z0, Z5 \ // [b0a2 b0a3 b1a2 b1a3]
	VSHUFF64X2 $0x44, Z3, Z2, Z6 \ // [b2a0 b2a1 b3a0 b3a1]
	VSHUFF64X2 $0xee, Z3, Z2, Z7 \ // [b2a2 b2a3 b3a2 b3a3]
	VSHUFF64X2 $0x88, Z6, Z4, Z0 \ // dst[a]: b0 b1 b2 b3 of a0
	VSHUFF64X2 $0xdd, Z6, Z4, Z1 \ // dst[a+1]
	VSHUFF64X2 $0x88, Z7, Z5, Z2 \ // dst[a+2]
	VSHUFF64X2 $0xdd, Z7, Z5, Z3 \ // dst[a+3]
	VXORPD     Z14, Z0, Z0       \
	VXORPD     Z15, Z1, Z1       \
	VXORPD     Z14, Z2, Z2       \
	VXORPD     Z15, Z3, Z3       \
	VMOVUPD    Z0, (DX)          \
	VMOVUPD    Z1, (DX)(R12*1)   \
	VMOVUPD    Z2, (DX)(R12*2)   \
	VMOVUPD    Z3, (DX)(R14*1)

#include "cbfly_amd64.h"

TEXT ·r4StageTwZ(SB), NOSPLIT|NOFRAME, $0
	R4STAGETW
TEXT ·r4ColsStageZ(SB), NOSPLIT|NOFRAME, $0
	R4COLSSTAGE
TEXT ·dft4Z(SB), NOSPLIT|NOFRAME, $0
	DFT4
TEXT ·addSubZ(SB), NOSPLIT|NOFRAME, $0
	ADDSUB
TEXT ·scaleZ(SB), NOSPLIT|NOFRAME, $0
	SCALE
TEXT ·bfly2Z(SB), NOSPLIT|NOFRAME, $0
	BFLY2
TEXT ·bfly3Z(SB), NOSPLIT|NOFRAME, $0
	BFLY3
TEXT ·bfly3StageScaledZ(SB), NOSPLIT|NOFRAME, $0
	BFLY3STAGESCALED
TEXT ·bfly3StageTZ(SB), NOSPLIT|NOFRAME, $0
	BFLY3STAGET
TEXT ·dft8Z(SB), NOSPLIT|NOFRAME, $0
	DFT8
TEXT ·transposeZ(SB), NOSPLIT|NOFRAME, $0
	TRANSPOSE
