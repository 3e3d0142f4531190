// The A-term sandwiches of the gridder epilogue and the degridder
// prologue, one text for both vector widths: four pixels per YMM on the
// avx2 tier (kernels_amd64.s), eight per ZMM on the avx512 tier
// (kernels_avx512_amd64.s). Every component of the 2x2 complex matrices
// S, P and Q is a register of consecutive pixels, read from its plane.
// The including file defines V0-V15, the vector registers (the text
// leaves V12-V14 to its AOS macros); VB, their size in bytes; SPL, the bytes
// between the planes of a group of sums, and S_NEXT, the step of AX to
// the group's next register of pixels; LOAD_AOS(in, re, im) and
// STORE_AOS(re, im, out), VB/8 consecutive complex128 split into, or
// interleaved from, their real and imaginary registers. It loads the
// arguments: planes 0-3 of the Jones maps P at BX and Q at DX (BX nil:
// taper only), the plane stride R11, the number of registers of pixels
// CX, and for gridSandwich the sums AX, taper R10, out DI, SI, R8, R9,
// for degridSandwich in SI, R8, R9, R10, taper AX, planes DI (R11 apart).

// PL0-PL3 are four planes one stride apart from b; a Jones map's planes
// 4-7 start at R13 (P) and R15 (Q). S_(j) is plane j of the gridder's
// sums, T_(j) that of the degridder's input pixels, staged in the frame
// by LOAD_AOS.
#define PL0(b) (b)
#define PL1(b) (b)(R11*1)
#define PL2(b) (b)(R11*2)
#define PL3(b) (b)(R12*1)
#define S_(j) (SPL*(j))(AX)
#define T_(j) (VB*(j))(SP)

// MULADD2(xr, xi, zr, zi, y, w, re, im): re+i*im = x*y + z*w with x, z
// in registers and y, w in memory; CMULADD2: conj(x)*y + conj(z)*w, the
// terms in xi and zi with their signs flipped.
#define MUL_ADD2(NEG, POS, xr, xi, zr, zi, yr, yi, wr, wi, re, im) \
	VMULPD      yr, xr, re \
	NEG         yi, xi, re \
	VFMADD231PD wr, zr, re \
	NEG         wi, zi, re \
	VMULPD      yi, xr, im \
	POS         yr, xi, im \
	VFMADD231PD wi, zr, im \
	POS         wr, zi, im
#define MULADD2(xr, xi, zr, zi, yr, yi, wr, wi, re, im) \
	MUL_ADD2(VFNMADD231PD, VFMADD231PD, xr, xi, zr, zi, yr, yi, wr, wi, re, im)
#define CMULADD2(xr, xi, zr, zi, yr, yi, wr, wi, re, im) \
	MUL_ADD2(VFMADD231PD, VFNMADD231PD, xr, xi, zr, zi, yr, yi, wr, wi, re, im)

// MULCADD2: re+i*im = x*conj(y) + z*conj(w), same operand homes, the
// imaginary part led by xi*yr.
#define MULCADD2(xr, xi, zr, zi, yr, yi, wr, wi, re, im) \
	VMULPD       yr, xr, re  \
	VFMADD231PD  yi, xi, re  \
	VFMADD231PD  wr, zr, re  \
	VFMADD231PD  wi, zi, re  \
	VMULPD       yr, xi, im  \
	VFNMADD231PD yi, xr, im  \
	VFMADD231PD  wr, zi, im  \
	VFNMADD231PD wi, zr, im

// LOAD4 loads a row's four operands into V0-V3 (a row or column of P)
// or V8-V11 (the row's results, when there is no sandwich to compute
// them); SCALE_ROW multiplies the results by the taper in V15.
#define LOAD4(a, b, c, d, va, vb, vc, vd) \
	VMOVUPD a, va \
	VMOVUPD b, vb \
	VMOVUPD c, vc \
	VMOVUPD d, vd
#define SCALE_ROW \
	VMULPD V15, V8, V8   \
	VMULPD V15, V9, V9   \
	VMULPD V15, V10, V10 \
	VMULPD V15, V11, V11

// GRID_ROW: one row of (P^H S) Q for the column (pa, pb) of P, V0-V3:
// T0 = conj(pa) s0 + conj(pb) s2, T1 = conj(pa) s1 + conj(pb) s3, then
// V8/V9 = T0 q0 + T1 q2 and V10/V11 = T0 q1 + T1 q3.
#define GRID_ROW \
	CMULADD2(V0, V1, V2, V3, S_(0), S_(1), S_(4), S_(5), V4, V5) \
	CMULADD2(V0, V1, V2, V3, S_(2), S_(3), S_(6), S_(7), V6, V7) \
	MULADD2(V4, V5, V6, V7, PL0(DX), PL1(DX), PL0(R15), PL1(R15), V8, V9)              \
	MULADD2(V4, V5, V6, V7, PL2(DX), PL3(DX), PL2(R15), PL3(R15), V10, V11)

// DEGRID_ROW: one row of (P S) Q^H for the row (pa, pb) of P, V0-V3:
// T0 = pa s0 + pb s2, T1 = pa s1 + pb s3, then V8/V9 = T0 conj(q0) +
// T1 conj(q1) and V10/V11 = T0 conj(q2) + T1 conj(q3).
#define DEGRID_ROW \
	MULADD2(V0, V1, V2, V3, T_(0), T_(1), T_(4), T_(5), V4, V5) \
	MULADD2(V0, V1, V2, V3, T_(2), T_(3), T_(6), T_(7), V6, V7) \
	MULCADD2(V4, V5, V6, V7, PL0(DX), PL1(DX), PL2(DX), PL3(DX), V8, V9)            \
	MULCADD2(V4, V5, V6, V7, PL0(R15), PL1(R15), PL2(R15), PL3(R15), V10, V11)

#define JONES_NEXT \
	ADDQ $VB, BX  \
	ADDQ $VB, R13 \
	ADDQ $VB, DX  \
	ADDQ $VB, R15
#define STORE_OUT(outa, outb) \
	SCALE_ROW                 \
	STORE_AOS(V8, V9, outa)   \
	STORE_AOS(V10, V11, outb)
#define STORE_PLANES(base) \
	SCALE_ROW                  \
	VMOVUPD V8, PL0(base)      \
	VMOVUPD V9, PL1(base)      \
	VMOVUPD V10, PL2(base)     \
	VMOVUPD V11, PL3(base)

// GRID_SANDWICH is the gridder tile epilogue: out_c[i] = taper[i] *
// (P[i]^H S[i] Q[i])_c, or taper[i] * S[i]_c without Jones planes. Per
// pixel the operations of gridSandwichPixel in its order.
#define GRID_SANDWICH \
	LEAQ (R11)(R11*2), R12  \
	LEAQ (BX)(R11*4), R13   \
	LEAQ (DX)(R11*4), R15   \
gridloop:                   \
	VMOVUPD (R10), V15      \
	TESTQ   BX, BX          \
	JZ      gridtaper       \
	LOAD4(PL0(BX), PL1(BX), PL0(R13), PL1(R13), V0, V1, V2, V3) \
	GRID_ROW                \
	STORE_OUT(DI, SI)       \
	LOAD4(PL2(BX), PL3(BX), PL2(R13), PL3(R13), V0, V1, V2, V3) \
	GRID_ROW                \
	STORE_OUT(R8, R9)       \
	JONES_NEXT              \
gridnext:                   \
	S_NEXT                  \
	ADDQ $VB, R10           \
	ADDQ $(2*VB), DI        \
	ADDQ $(2*VB), SI        \
	ADDQ $(2*VB), R8        \
	ADDQ $(2*VB), R9        \
	DECQ CX                 \
	JNZ  gridloop           \
	VZEROUPPER              \
	RET                     \
gridtaper:                  \
	LOAD4(S_(0), S_(1), S_(2), S_(3), V8, V9, V10, V11) \
	STORE_OUT(DI, SI)       \
	LOAD4(S_(4), S_(5), S_(6), S_(7), V8, V9, V10, V11) \
	STORE_OUT(R8, R9)       \
	JMP gridnext

// DEGRID_SANDWICH is the degridder prologue: the corrected pixel
// taper[i] * (P[i] S[i] Q[i]^H), S[i] = (in0[i] .. in3[i]), or taper[i]
// * S[i] without Jones planes, written to the eight planes re0, im0,
// re1, ... Per pixel the operations of degridSandwichPixel in its order.
#define DEGRID_SANDWICH \
	LEAQ (R11)(R11*2), R12  \
	LEAQ (BX)(R11*4), R13   \
	LEAQ (DX)(R11*4), R15   \
	LEAQ (DI)(R11*4), R14   \
degridloop:                 \
	LOAD_AOS(SI, T_(0), T_(1))  \
	LOAD_AOS(R8, T_(2), T_(3))  \
	LOAD_AOS(R9, T_(4), T_(5))  \
	LOAD_AOS(R10, T_(6), T_(7)) \
	VMOVUPD (AX), V15       \
	TESTQ   BX, BX          \
	JZ      degridtaper     \
	LOAD4(PL0(BX), PL1(BX), PL2(BX), PL3(BX), V0, V1, V2, V3) \
	DEGRID_ROW              \
	STORE_PLANES(DI)        \
	LOAD4(PL0(R13), PL1(R13), PL2(R13), PL3(R13), V0, V1, V2, V3) \
	DEGRID_ROW              \
	STORE_PLANES(R14)       \
	JONES_NEXT              \
degridnext:                 \
	ADDQ $(2*VB), SI        \
	ADDQ $(2*VB), R8        \
	ADDQ $(2*VB), R9        \
	ADDQ $(2*VB), R10       \
	ADDQ $VB, AX            \
	ADDQ $VB, DI            \
	ADDQ $VB, R14           \
	DECQ CX                 \
	JNZ  degridloop         \
	VZEROUPPER              \
	RET                     \
degridtaper:                \
	LOAD4(T_(0), T_(1), T_(2), T_(3), V8, V9, V10, V11) \
	STORE_PLANES(DI)        \
	LOAD4(T_(4), T_(5), T_(6), T_(7), V8, V9, V10, V11) \
	STORE_PLANES(R14)       \
	JMP degridnext
