//go:build amd64

#include "textflag.h"

// Lane-parallel SincosFast. Both routines compute, per lane, the exact
// operation sequence of sincosFastFMA (sincos_vec.go):
//
//	k  = roundeven(x * invTwoPi)
//	r  = fma(-k, twoPiA, x); r = fma(-k, twoPiB, r)   Cody-Waite
//	fold r into [-pi/2, pi/2], remembering a cos sign flip
//	sin = fma(sinpoly(z), r*z, r)           z = r*r
//	cos = +-fma(cospoly(z), z*z, 1 - 0.5*z)
//
// so vector and scalar results are bitwise identical. Leaf functions:
// NOSPLIT, no calls, VZEROUPPER before returning to Go code.

// Scalar constants (8 bytes each): broadcast sources for both widths.
DATA sincosKS<>+0x00(SB)/8, $0x3fc45f306dc9c883 // invTwoPi
DATA sincosKS<>+0x08(SB)/8, $0x401921fb54442d18 // twoPiA
DATA sincosKS<>+0x10(SB)/8, $0x3cb1a62633145c07 // twoPiB
DATA sincosKS<>+0x18(SB)/8, $0x3ff921fb54442d18 // pi/2
DATA sincosKS<>+0x20(SB)/8, $0x400921fb54442d18 // pi
DATA sincosKS<>+0x28(SB)/8, $0x8000000000000000 // sign bit
DATA sincosKS<>+0x30(SB)/8, $0x3de5d93a5acfd57c // s6
DATA sincosKS<>+0x38(SB)/8, $0xbda8fae9be8838d4 // c6
DATA sincosKS<>+0x40(SB)/8, $0xbe5ae5e68a2b9ceb // s5
DATA sincosKS<>+0x48(SB)/8, $0x3ec71de357b1fe7d // s4
DATA sincosKS<>+0x50(SB)/8, $0xbf2a01a019c161d5 // s3
DATA sincosKS<>+0x58(SB)/8, $0x3f8111111110f8a6 // s2
DATA sincosKS<>+0x60(SB)/8, $0xbfc5555555555549 // s1
DATA sincosKS<>+0x68(SB)/8, $0x3e21ee9ebdb4b1c4 // c5
DATA sincosKS<>+0x70(SB)/8, $0xbe927e4f809c52ad // c4
DATA sincosKS<>+0x78(SB)/8, $0x3efa01a019cb1590 // c3
DATA sincosKS<>+0x80(SB)/8, $0xbf56c16c16c15177 // c2
DATA sincosKS<>+0x88(SB)/8, $0x3fa555555555554c // c1
DATA sincosKS<>+0x90(SB)/8, $0x3fe0000000000000 // 0.5
DATA sincosKS<>+0x98(SB)/8, $0x3ff0000000000000 // 1.0
GLOBL sincosKS<>(SB), RODATA|NOPTR, $160

// 4-lane replicas for AVX2 full-width memory operands (VEX encoding
// has no embedded broadcast).
DATA sincosK4<>+0x000(SB)/8, $0xbe5ae5e68a2b9ceb // s5 x4
DATA sincosK4<>+0x008(SB)/8, $0xbe5ae5e68a2b9ceb
DATA sincosK4<>+0x010(SB)/8, $0xbe5ae5e68a2b9ceb
DATA sincosK4<>+0x018(SB)/8, $0xbe5ae5e68a2b9ceb
DATA sincosK4<>+0x020(SB)/8, $0x3ec71de357b1fe7d // s4 x4
DATA sincosK4<>+0x028(SB)/8, $0x3ec71de357b1fe7d
DATA sincosK4<>+0x030(SB)/8, $0x3ec71de357b1fe7d
DATA sincosK4<>+0x038(SB)/8, $0x3ec71de357b1fe7d
DATA sincosK4<>+0x040(SB)/8, $0xbf2a01a019c161d5 // s3 x4
DATA sincosK4<>+0x048(SB)/8, $0xbf2a01a019c161d5
DATA sincosK4<>+0x050(SB)/8, $0xbf2a01a019c161d5
DATA sincosK4<>+0x058(SB)/8, $0xbf2a01a019c161d5
DATA sincosK4<>+0x060(SB)/8, $0x3f8111111110f8a6 // s2 x4
DATA sincosK4<>+0x068(SB)/8, $0x3f8111111110f8a6
DATA sincosK4<>+0x070(SB)/8, $0x3f8111111110f8a6
DATA sincosK4<>+0x078(SB)/8, $0x3f8111111110f8a6
DATA sincosK4<>+0x080(SB)/8, $0xbfc5555555555549 // s1 x4
DATA sincosK4<>+0x088(SB)/8, $0xbfc5555555555549
DATA sincosK4<>+0x090(SB)/8, $0xbfc5555555555549
DATA sincosK4<>+0x098(SB)/8, $0xbfc5555555555549
DATA sincosK4<>+0x0a0(SB)/8, $0x3e21ee9ebdb4b1c4 // c5 x4
DATA sincosK4<>+0x0a8(SB)/8, $0x3e21ee9ebdb4b1c4
DATA sincosK4<>+0x0b0(SB)/8, $0x3e21ee9ebdb4b1c4
DATA sincosK4<>+0x0b8(SB)/8, $0x3e21ee9ebdb4b1c4
DATA sincosK4<>+0x0c0(SB)/8, $0xbe927e4f809c52ad // c4 x4
DATA sincosK4<>+0x0c8(SB)/8, $0xbe927e4f809c52ad
DATA sincosK4<>+0x0d0(SB)/8, $0xbe927e4f809c52ad
DATA sincosK4<>+0x0d8(SB)/8, $0xbe927e4f809c52ad
DATA sincosK4<>+0x0e0(SB)/8, $0x3efa01a019cb1590 // c3 x4
DATA sincosK4<>+0x0e8(SB)/8, $0x3efa01a019cb1590
DATA sincosK4<>+0x0f0(SB)/8, $0x3efa01a019cb1590
DATA sincosK4<>+0x0f8(SB)/8, $0x3efa01a019cb1590
DATA sincosK4<>+0x100(SB)/8, $0xbf56c16c16c15177 // c2 x4
DATA sincosK4<>+0x108(SB)/8, $0xbf56c16c16c15177
DATA sincosK4<>+0x110(SB)/8, $0xbf56c16c16c15177
DATA sincosK4<>+0x118(SB)/8, $0xbf56c16c16c15177
DATA sincosK4<>+0x120(SB)/8, $0x3fa555555555554c // c1 x4
DATA sincosK4<>+0x128(SB)/8, $0x3fa555555555554c
DATA sincosK4<>+0x130(SB)/8, $0x3fa555555555554c
DATA sincosK4<>+0x138(SB)/8, $0x3fa555555555554c
DATA sincosK4<>+0x140(SB)/8, $0x3fe0000000000000 // 0.5 x4
DATA sincosK4<>+0x148(SB)/8, $0x3fe0000000000000
DATA sincosK4<>+0x150(SB)/8, $0x3fe0000000000000
DATA sincosK4<>+0x158(SB)/8, $0x3fe0000000000000
DATA sincosK4<>+0x160(SB)/8, $0x3ff0000000000000 // 1.0 x4
DATA sincosK4<>+0x168(SB)/8, $0x3ff0000000000000
DATA sincosK4<>+0x170(SB)/8, $0x3ff0000000000000
DATA sincosK4<>+0x178(SB)/8, $0x3ff0000000000000
GLOBL sincosK4<>(SB), RODATA|NOPTR, $384

// SINCOS_QUAD evaluates the four lanes at off(DX) into Y7 (sine) and
// Y8 (cosine), constants in Y10-Y15; clobbers Y0-Y9.
#define SINCOS_QUAD(off) \
	VMOVUPD      off(DX), Y0                         \ // x
	VMULPD       Y10, Y0, Y1                         \
	VROUNDPD     $0, Y1, Y1                          \ // k = roundeven(x*invTwoPi)
	VMOVAPD      Y0, Y2                              \
	VFNMADD231PD Y11, Y1, Y2                         \ // r = x - k*twoPiA
	VFNMADD231PD Y12, Y1, Y2                         \ // r -= k*twoPiB
	VCMPPD       $0x1e, Y13, Y2, Y3                  \ // m1 = r > pi/2 (GT_OQ); both masks
	VXORPD       Y15, Y13, Y5                        \ // test the unfolded r (the conditions
	VCMPPD       $0x11, Y5, Y2, Y5                   \ // are exclusive): m2 = r < -pi/2
	VSUBPD       Y2, Y14, Y4                         \ // pi - r
	VBLENDVPD    Y3, Y4, Y2, Y9                      \
	VXORPD       Y15, Y14, Y4                        \ // -pi
	VSUBPD       Y2, Y4, Y4                          \ // -pi - r
	VBLENDVPD    Y5, Y4, Y9, Y2                      \ // r folded
	VORPD        Y5, Y3, Y3                          \
	VANDPD       Y15, Y3, Y3                         \ // cos sign-flip mask
	VMULPD       Y2, Y2, Y6                          \ // z = r*r
	VBROADCASTSD sincosKS<>+0x30(SB), Y7             \ // sin = fma(((((s6*z+s5)*z+s4)*z
	VFMADD213PD  sincosK4<>+0x000(SB), Y6, Y7        \ //   +s3)*z+s2)*z+s1, r*z, r)
	VFMADD213PD  sincosK4<>+0x020(SB), Y6, Y7        \
	VFMADD213PD  sincosK4<>+0x040(SB), Y6, Y7        \
	VFMADD213PD  sincosK4<>+0x060(SB), Y6, Y7        \
	VFMADD213PD  sincosK4<>+0x080(SB), Y6, Y7        \
	VMULPD       Y6, Y2, Y4                          \ // r*z
	VFMADD213PD  Y2, Y4, Y7                          \ // sin
	VBROADCASTSD sincosKS<>+0x38(SB), Y8             \ // cos = +-fma(((((c6*z+c5)*z+c4)*z
	VFMADD213PD  sincosK4<>+0x0a0(SB), Y6, Y8        \ //   +c3)*z+c2)*z+c1, z*z, 1-0.5z)
	VFMADD213PD  sincosK4<>+0x0c0(SB), Y6, Y8        \
	VFMADD213PD  sincosK4<>+0x0e0(SB), Y6, Y8        \
	VFMADD213PD  sincosK4<>+0x100(SB), Y6, Y8        \
	VFMADD213PD  sincosK4<>+0x120(SB), Y6, Y8        \
	VMULPD       sincosK4<>+0x140(SB), Y6, Y4        \ // 0.5*z
	VMOVUPD      sincosK4<>+0x160(SB), Y9            \
	VSUBPD       Y4, Y9, Y4                          \ // 1 - 0.5*z
	VMULPD       Y6, Y6, Y6                          \ // z*z
	VFMADD213PD  Y4, Y6, Y8                          \ // cos (unsigned)
	VXORPD       Y3, Y8, Y8                            // apply quadrant sign

// QUAD_ST64 and QUAD_ST32 store a quad's sine and cosine at off(DI)
// and off(SI): as they are, or narrowed by VCVTPD2PS (round to nearest
// even under Go's MXCSR, the bits of Go's float32(x)).
#define QUAD_ST64(off) \
	VMOVUPD Y7, off(DI) \
	VMOVUPD Y8, off(SI)
#define QUAD_ST32(off) \
	VCVTPD2PSY Y7, X7   \
	VCVTPD2PSY Y8, X8   \
	VMOVUPS    X7, off(DI) \
	VMOVUPS    X8, off(SI)

// SINCOS_QUADS is the body of sincosQuads and sincosQuads32 once the
// pointers are in DI, SI, DX and the count in CX: a quad per
// iteration, ST storing it and step bytes of output per quad.
#define SINCOS_QUADS(ST, step) \
	VBROADCASTSD sincosKS<>+0x00(SB), Y10 \ // invTwoPi
	VBROADCASTSD sincosKS<>+0x08(SB), Y11 \ // twoPiA
	VBROADCASTSD sincosKS<>+0x10(SB), Y12 \ // twoPiB
	VBROADCASTSD sincosKS<>+0x18(SB), Y13 \ // pi/2
	VBROADCASTSD sincosKS<>+0x20(SB), Y14 \ // pi
	VBROADCASTSD sincosKS<>+0x28(SB), Y15 \ // sign bit
quadloop:                                 \
	SINCOS_QUAD(0)                        \
	ST(0)                                 \
	ADDQ $32, DX                          \
	ADDQ $step, DI                        \
	ADDQ $step, SI                        \
	DECQ CX                               \
	JNZ  quadloop                         \
	VZEROUPPER                            \
	RET

// func sincosQuads(sin, cos, x *float64, nq int)
//
// Four lanes per quad, AVX2+FMA.
TEXT ·sincosQuads(SB), NOSPLIT, $0-32
	MOVQ sin+0(FP), DI
	MOVQ cos+8(FP), SI
	MOVQ x+16(FP), DX
	MOVQ nq+24(FP), CX
	SINCOS_QUADS(QUAD_ST64, 32)

// func sincosQuads32(sin, cos *float32, x *float64, nq int)
TEXT ·sincosQuads32(SB), NOSPLIT, $0-32
	MOVQ sin+0(FP), DI
	MOVQ cos+8(FP), SI
	MOVQ x+16(FP), DX
	MOVQ nq+24(FP), CX
	SINCOS_QUADS(QUAD_ST32, 16)

// SINCOS_OCT evaluates the eight lanes at off(DX) into s (sine) and c
// (cosine) with AVX-512F — compares into the opmasks m1/m2, folds by
// merge-masked moves, coefficients as embedded broadcasts — constants in
// Z10-Z19; x, k, r, t0, t1 and z are its temporaries. The two octs of an
// iteration run it interleaved on disjoint registers (OCT_PAIR).
#define SINCOS_OCT(off, x, k, r, t0, t1, z, s, c, m1, m2) \
	VMOVUPD          off(DX), x                 \
	VMULPD           Z10, x, k                  \
	VRNDSCALEPD      $0, k, k                   \ // k = roundeven(x*invTwoPi)
	VMOVAPD          x, r                       \
	VFNMADD231PD     Z11, k, r                  \ // r = x - k*twoPiA
	VFNMADD231PD     Z12, k, r                  \ // r -= k*twoPiB
	VCMPPD           $0x1e, Z13, r, m1          \ // m1 = r > pi/2
	VCMPPD           $0x11, Z16, r, m2          \ // m2 = r < -pi/2
	VSUBPD           r, Z14, t0                 \ // pi - r
	VSUBPD           r, Z17, t1                 \ // -pi - r
	VMOVAPD          t0, m1, r                  \
	VMOVAPD          t1, m2, r                  \ // r folded
	KORW             m1, m2, m1                 \ // cos sign-flip lanes
	VMULPD           r, r, z                    \ // z = r*r
	VBROADCASTSD     sincosKS<>+0x30(SB), s     \ // s6
	VFMADD213PD.BCST sincosKS<>+0x40(SB), z, s  \
	VFMADD213PD.BCST sincosKS<>+0x48(SB), z, s  \
	VFMADD213PD.BCST sincosKS<>+0x50(SB), z, s  \
	VFMADD213PD.BCST sincosKS<>+0x58(SB), z, s  \
	VFMADD213PD.BCST sincosKS<>+0x60(SB), z, s  \
	VMULPD           z, r, t0                   \ // r*z
	VFMADD213PD      r, t0, s                   \ // sin
	VBROADCASTSD     sincosKS<>+0x38(SB), c     \ // c6
	VFMADD213PD.BCST sincosKS<>+0x68(SB), z, c  \
	VFMADD213PD.BCST sincosKS<>+0x70(SB), z, c  \
	VFMADD213PD.BCST sincosKS<>+0x78(SB), z, c  \
	VFMADD213PD.BCST sincosKS<>+0x80(SB), z, c  \
	VFMADD213PD.BCST sincosKS<>+0x88(SB), z, c  \
	VMULPD           Z19, z, t0                 \ // 0.5*z
	VSUBPD           t0, Z18, t0                \ // 1 - 0.5*z
	VMULPD           z, z, z                    \ // z*z
	VFMADD213PD      t0, z, c                   \ // cos (unsigned)
	VXORPD           Z15, c, m1, c                // negate folded lanes

// OCT_PAIR evaluates the sixteen lanes at DX as two octs, the second
// 64 bytes on: SINCOS_OCT's operations on two register sets — results
// in Z7, Z8 and in Z27, Z28 — one instruction of each in turn, so that
// their dependency chains overlap.
#define OCT_PAIR \
	VMOVUPD          0(DX), Z0                     \
	VMOVUPD          64(DX), Z20                   \
	VMULPD           Z10, Z0, Z1                   \
	VMULPD           Z10, Z20, Z21                 \
	VRNDSCALEPD      $0, Z1, Z1                    \
	VRNDSCALEPD      $0, Z21, Z21                  \
	VMOVAPD          Z0, Z2                        \
	VMOVAPD          Z20, Z22                      \
	VFNMADD231PD     Z11, Z1, Z2                   \
	VFNMADD231PD     Z11, Z21, Z22                 \
	VFNMADD231PD     Z12, Z1, Z2                   \
	VFNMADD231PD     Z12, Z21, Z22                 \
	VCMPPD           $0x1e, Z13, Z2, K1            \
	VCMPPD           $0x1e, Z13, Z22, K3           \
	VCMPPD           $0x11, Z16, Z2, K2            \
	VCMPPD           $0x11, Z16, Z22, K4           \
	VSUBPD           Z2, Z14, Z4                   \
	VSUBPD           Z22, Z14, Z24                 \
	VSUBPD           Z2, Z17, Z5                   \
	VSUBPD           Z22, Z17, Z25                 \
	VMOVAPD          Z4, K1, Z2                    \
	VMOVAPD          Z24, K3, Z22                  \
	VMOVAPD          Z5, K2, Z2                    \
	VMOVAPD          Z25, K4, Z22                  \
	KORW             K1, K2, K1                    \
	KORW             K3, K4, K3                    \
	VMULPD           Z2, Z2, Z6                    \
	VMULPD           Z22, Z22, Z26                 \
	VBROADCASTSD     sincosKS<>+0x30(SB), Z7       \
	VBROADCASTSD     sincosKS<>+0x30(SB), Z27      \
	VFMADD213PD.BCST sincosKS<>+0x40(SB), Z6, Z7   \
	VFMADD213PD.BCST sincosKS<>+0x40(SB), Z26, Z27 \
	VFMADD213PD.BCST sincosKS<>+0x48(SB), Z6, Z7   \
	VFMADD213PD.BCST sincosKS<>+0x48(SB), Z26, Z27 \
	VFMADD213PD.BCST sincosKS<>+0x50(SB), Z6, Z7   \
	VFMADD213PD.BCST sincosKS<>+0x50(SB), Z26, Z27 \
	VFMADD213PD.BCST sincosKS<>+0x58(SB), Z6, Z7   \
	VFMADD213PD.BCST sincosKS<>+0x58(SB), Z26, Z27 \
	VFMADD213PD.BCST sincosKS<>+0x60(SB), Z6, Z7   \
	VFMADD213PD.BCST sincosKS<>+0x60(SB), Z26, Z27 \
	VMULPD           Z6, Z2, Z4                    \
	VMULPD           Z26, Z22, Z24                 \
	VFMADD213PD      Z2, Z4, Z7                    \
	VFMADD213PD      Z22, Z24, Z27                 \
	VBROADCASTSD     sincosKS<>+0x38(SB), Z8       \
	VBROADCASTSD     sincosKS<>+0x38(SB), Z28      \
	VFMADD213PD.BCST sincosKS<>+0x68(SB), Z6, Z8   \
	VFMADD213PD.BCST sincosKS<>+0x68(SB), Z26, Z28 \
	VFMADD213PD.BCST sincosKS<>+0x70(SB), Z6, Z8   \
	VFMADD213PD.BCST sincosKS<>+0x70(SB), Z26, Z28 \
	VFMADD213PD.BCST sincosKS<>+0x78(SB), Z6, Z8   \
	VFMADD213PD.BCST sincosKS<>+0x78(SB), Z26, Z28 \
	VFMADD213PD.BCST sincosKS<>+0x80(SB), Z6, Z8   \
	VFMADD213PD.BCST sincosKS<>+0x80(SB), Z26, Z28 \
	VFMADD213PD.BCST sincosKS<>+0x88(SB), Z6, Z8   \
	VFMADD213PD.BCST sincosKS<>+0x88(SB), Z26, Z28 \
	VMULPD           Z19, Z6, Z4                   \
	VMULPD           Z19, Z26, Z24                 \
	VSUBPD           Z4, Z18, Z4                   \
	VSUBPD           Z24, Z18, Z24                 \
	VMULPD           Z6, Z6, Z6                    \
	VMULPD           Z26, Z26, Z26                 \
	VFMADD213PD      Z4, Z6, Z8                    \
	VFMADD213PD      Z24, Z26, Z28                 \
	VXORPD           Z15, Z8, K1, Z8               \
	VXORPD           Z15, Z28, K3, Z28             

// OCT_A is OCT_PAIR's first oct alone: an odd count's last.
#define OCT_A(off) SINCOS_OCT(off, Z0, Z1, Z2, Z4, Z5, Z6, Z7, Z8, K1, K2)

// OCT_ST64 and OCT_ST32 store an oct's sine s and cosine c (ys and yc
// their YMM names) at off(DI) and off(SI), as they are or narrowed by
// VCVTPD2PS as QUAD_ST32 narrows them.
#define OCT_ST64(off, s, c, ys, yc) \
	VMOVUPD s, off(DI) \
	VMOVUPD c, off(SI)
#define OCT_ST32(off, s, c, ys, yc) \
	VCVTPD2PS s, ys     \
	VCVTPD2PS c, yc     \
	VMOVUPS   ys, off(DI) \
	VMOVUPS   yc, off(SI)

// SINCOS_OCTS is the body of sincosOcts and sincosOcts32 once the
// pointers are in DI, SI, DX and the count in CX: two octs per
// iteration, then the odd one, ST storing an oct step bytes of output
// apart.
#define SINCOS_OCTS(ST, step) \
	VBROADCASTSD sincosKS<>+0x00(SB), Z10 \ // invTwoPi
	VBROADCASTSD sincosKS<>+0x08(SB), Z11 \ // twoPiA
	VBROADCASTSD sincosKS<>+0x10(SB), Z12 \ // twoPiB
	VBROADCASTSD sincosKS<>+0x18(SB), Z13 \ // pi/2
	VBROADCASTSD sincosKS<>+0x20(SB), Z14 \ // pi
	VBROADCASTSD sincosKS<>+0x28(SB), Z15 \ // sign bit
	VXORPD       Z15, Z13, Z16            \ // -pi/2
	VXORPD       Z15, Z14, Z17            \ // -pi
	VBROADCASTSD sincosKS<>+0x98(SB), Z18 \ // 1.0
	VBROADCASTSD sincosKS<>+0x90(SB), Z19 \ // 0.5
	MOVQ         CX, R8                   \
	SHRQ         $1, CX                   \
	JZ           octodd                   \
octloop:                                  \
	OCT_PAIR                              \
	ST(0, Z7, Z8, Y7, Y8)                 \
	ST(step, Z27, Z28, Y27, Y28)          \
	ADDQ $128, DX                         \
	ADDQ $(2*step), DI                    \
	ADDQ $(2*step), SI                    \
	DECQ CX                               \
	JNZ  octloop                          \
octodd:                                   \
	TESTQ $1, R8                          \
	JZ    octdone                         \
	OCT_A(0)                              \
	ST(0, Z7, Z8, Y7, Y8)                 \
octdone:                                  \
	VZEROUPPER                            \
	RET

// func sincosOcts(sin, cos, x *float64, no int)
//
// Eight lanes per oct, AVX-512F.
TEXT ·sincosOcts(SB), NOSPLIT, $0-32
	MOVQ sin+0(FP), DI
	MOVQ cos+8(FP), SI
	MOVQ x+16(FP), DX
	MOVQ no+24(FP), CX
	SINCOS_OCTS(OCT_ST64, 64)

// func sincosOcts32(sin, cos *float32, x *float64, no int)
TEXT ·sincosOcts32(SB), NOSPLIT, $0-32
	MOVQ sin+0(FP), DI
	MOVQ cos+8(FP), SI
	MOVQ x+16(FP), DX
	MOVQ no+24(FP), CX
	SINCOS_OCTS(OCT_ST32, 32)
