//go:build !race

#include "go_asm.h"
#include "textflag.h"

// warpRowSSE: warpRowRef one pixel per iteration, SSE2 only.
//
// u and v travel together in X0 as two float64 lanes and step by ADDPD
// with (du, dv), the same two float64 additions warpRowRef makes. The
// floor of both is CVTTPD2DQ, CVTDQ2PD and a lane-wise "less than" that
// takes one off where truncation rounded up; every one of these writes its
// whole destination register, so no pixel waits on the previous one. A
// truncation out of int32 range gives 0x80000000, which (less one, or not)
// is background exactly where Go's int conversion is. The fractions are
// CVTPD2PS of u-floor(u) and v-floor(v), the four bilinear weights one
// MULPS of (1-fu, fu, 1-fu, fu) by (1-fv, 1-fv, fv, fv), and each RGBA tap
// is one register, so the three colour channels (and alpha, never stored)
// are summed as ((w00·t00 + w10·t10) + w01·t01) + w11·t11 in every lane.
// quant255 is x·255 + 0.5, CVTTPS2DQ, then PACKSSDW and PACKUSWB, whose
// saturations clamp to [0, 255] as quant255's branches do (0x80000000
// included). Only R, G and B are stored.
//
// Registers:
//	DI	*warpArgs
//	SI, CX	the next output pixel and the pixels left
//	DX	M.Pix
//	R8, R12	M.W, and M.W·16 (one intermediate row in bytes)
//	R13, R14	interior and background counts
//	X0, X2	(u, v) and (du, dv)
//	X12-X15	constants: 255, 1.0 (float64), 1.0 (float32), 0.5
// scratch: AX, BX, R9, X3-X11.

DATA wc<>+0(SB)/8, $0x3ff0000000000000  // 1.0, 1.0 as float64
DATA wc<>+8(SB)/8, $0x3ff0000000000000
DATA wc<>+16(SB)/4, $0x3f800000         // 1.0 x4 as float32
DATA wc<>+20(SB)/4, $0x3f800000
DATA wc<>+24(SB)/4, $0x3f800000
DATA wc<>+28(SB)/4, $0x3f800000
DATA wc<>+32(SB)/4, $0x437f0000         // 255.0 x4
DATA wc<>+36(SB)/4, $0x437f0000
DATA wc<>+40(SB)/4, $0x437f0000
DATA wc<>+44(SB)/4, $0x437f0000
DATA wc<>+48(SB)/4, $0x3f000000         // 0.5 x4
DATA wc<>+52(SB)/4, $0x3f000000
DATA wc<>+56(SB)/4, $0x3f000000
DATA wc<>+60(SB)/4, $0x3f000000
GLOBL wc<>(SB), RODATA|NOPTR, $64

// func warpRowSSE(a *warpArgs)
TEXT ·warpRowSSE(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), DI
	MOVQ warpArgs_out(DI), SI
	MOVQ warpArgs_n(DI), CX
	MOVQ warpArgs_pix(DI), DX
	MOVQ warpArgs_w(DI), R8
	MOVQ R8, R12
	SHLQ $4, R12
	MOVQ warpArgs_pixels(DI), R13
	MOVQ warpArgs_background(DI), R14
	MOVSD warpArgs_u(DI), X0
	MOVHPD warpArgs_v(DI), X0
	MOVSD warpArgs_du(DI), X2
	MOVHPD warpArgs_dv(DI), X2
	MOVUPS wc<>+0(SB), X13
	MOVUPS wc<>+16(SB), X14
	MOVUPS wc<>+32(SB), X12
	MOVUPS wc<>+48(SB), X15
	TESTQ CX, CX
	JZ done

pixel:
	// (u0, v0) = floor(u, v): int32 lanes of X4 and float64 lanes of X5.
	CVTTPD2PL X0, X4
	CVTPL2PD X4, X5
	MOVAPD X0, X6
	CMPPD X5, X6, 1
	PSHUFD $0x08, X6, X7
	PADDL X7, X4
	ANDPD X13, X6
	SUBPD X6, X5
	MOVQ X4, AX
	MOVQ AX, BX
	MOVLQSX AX, AX
	SARQ $32, BX

	// Background: u0 < -1 || v0 < -1 || u0 >= W || v0 >= H.
	LEAQ 1(AX), R9
	CMPQ R9, R8
	JHI background
	LEAQ 1(BX), R9
	CMPQ R9, warpArgs_h(DI)
	JHI background
	// Border: any tap outside the image; warpRowRef does those.
	CMPQ AX, warpArgs_w1(DI)
	JCC border
	CMPQ BX, warpArgs_h1(DI)
	JCC border

	// Weights (w00, w10, w01, w11) in X8.
	MOVAPD X0, X6
	SUBPD X5, X6
	CVTPD2PS X6, X6
	MOVAPS X14, X7
	SUBPS X6, X7
	UNPCKLPS X6, X7
	PSHUFD $0x44, X7, X8
	PSHUFD $0xfa, X7, X9
	MULPS X9, X8

	// Taps t00, t10 at BX, t01, t11 one row further.
	IMULQ R8, BX
	ADDQ AX, BX
	SHLQ $4, BX
	ADDQ DX, BX
	MOVUPS (BX), X3
	MOVUPS 16(BX), X4
	MOVUPS (BX)(R12*1), X5
	MOVUPS 16(BX)(R12*1), X6
	PSHUFD $0x00, X8, X9
	MULPS X3, X9
	PSHUFD $0x55, X8, X10
	MULPS X4, X10
	ADDPS X10, X9
	PSHUFD $0xaa, X8, X10
	MULPS X5, X10
	ADDPS X10, X9
	PSHUFD $0xff, X8, X10
	MULPS X6, X10
	ADDPS X10, X9

	// quant255 of all four lanes; store R, G, B.
	MULPS X12, X9
	ADDPS X15, X9
	CVTTPS2PL X9, X9
	PACKSSLW X9, X9
	PACKUSWB X9, X9
	MOVL X9, R9
	MOVW R9, (SI)
	SHRL $16, R9
	MOVB R9, 2(SI)
	INCQ R13
	JMP next

background:
	MOVW $0, (SI)
	MOVB $0, 2(SI)
	INCQ R14

next:
	ADDPD X2, X0
	ADDQ $4, SI
	DECQ CX
	JNZ pixel

done:
border:
	MOVQ SI, warpArgs_out(DI)
	MOVQ CX, warpArgs_n(DI)
	MOVSD X0, warpArgs_u(DI)
	MOVHPD X0, warpArgs_v(DI)
	MOVQ R13, warpArgs_pixels(DI)
	MOVQ R14, warpArgs_background(DI)
	RET
