#include "textflag.h"

// FOLD16 moves the 128-bit remainder in acc 512 bits down the stream
// (constants in k) and xors in the 16 bytes at off(SI); t is scratch.
#define FOLD16(acc, t, k, off) \
	MOVO      acc, t;      \
	PCLMULQDQ $0x00, k, acc; \
	PCLMULQDQ $0x11, k, t;   \
	PXOR      t, acc;      \
	MOVOU     off(SI), t;  \
	PXOR      t, acc

// MERGE16 moves acc 128 bits down (constants in k) onto next.
#define MERGE16(acc, next, t, k) \
	MOVO      acc, t;      \
	PCLMULQDQ $0x00, k, acc; \
	PCLMULQDQ $0x11, k, t;   \
	PXOR      t, acc;      \
	PXOR      next, acc

// func foldPCLMUL(s uint64, p []byte) (lo, hi uint64)
// len(p) is a positive multiple of 64.
TEXT ·foldPCLMUL(SB), NOSPLIT, $0-48
	MOVQ  s+0(FP), AX
	MOVQ  p_base+8(FP), SI
	MOVQ  p_len+16(FP), CX
	MOVOU 0(SI), X0
	MOVOU 16(SI), X1
	MOVOU 32(SI), X2
	MOVOU 48(SI), X3
	MOVQ  AX, X4
	PXOR  X4, X0
	MOVOU ·clmulK+0(SB), X4
	ADDQ  $64, SI
	SUBQ  $64, CX
	JZ    reduce

loop:
	FOLD16(X0, X5, X4, 0)
	FOLD16(X1, X6, X4, 16)
	FOLD16(X2, X7, X4, 32)
	FOLD16(X3, X8, X4, 48)
	ADDQ $64, SI
	SUBQ $64, CX
	JNZ  loop

reduce:
	MOVOU ·clmulK+16(SB), X4
	MERGE16(X0, X1, X5, X4)
	MERGE16(X0, X2, X5, X4)
	MERGE16(X0, X3, X5, X4)
	MOVQ   X0, AX
	PSRLDQ $8, X0
	MOVQ   X0, BX
	MOVQ   AX, lo+32(FP)
	MOVQ   BX, hi+40(FP)
	RET
