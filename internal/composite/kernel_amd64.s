//go:build !race

#include "go_asm.h"
#include "textflag.h"

// compositeLiveSSE: compositeLiveRef four pixels at a time, SSE2 only.
//
// A group is the pixels p..p+3 of a piece. Its taps are two unaligned
// four-voxel loads per line, taps p..p+3 (the pixels' left taps) and
// p+1..p+4 (their right taps), masked to the line's valid-tap window unless
// the whole group lies inside both windows; the last group of a piece reads
// up to three taps past tap n, which readPad keeps inside every tap source
// and the window masks to zero. Everything after the loads is the
// reference's float32 arithmetic in the reference's order, lane for lane,
// with no FMA. Lanes that are empty, or past the piece's end, add +0
// (compositing) or offer +0 to MAXPS (MIP); pixels past the end are neither
// loaded nor stored.
//
// Registers, kept for the whole call:
//	DI	*kernelArgs
//	SI, CX	live cursor and end
//	BX	16-byte aligned block on the stack (below)
//	R12	next free c.sat slot
//	R13, R14	samples, pixels visited
// per piece:
//	AX, DX	line 0 and line 1 tap source, biased by +4n bytes
//	R9	the group's first pixel
//	R10	p-n: the group's first pixel relative to the piece's end (< 0)
//	X14, X15	line 0/1 tap index minus window start, lanes p..p+3, +2^31
// scratch: R8, R11, X0-X13.

// Constants (offsets into kc).
#define C255 0    // float32(1/255)
#define BYTE 16   // 0xff
#define EPS 32    // 1/512, the empty-sample bound
#define ONE 48    // 1.0
#define THR 64    // img.OpacityThreshold
#define C1024 80  // lutSize
#define IOTA 96   // 0, 1, 2, 3
#define FOUR 112  // 4, 4, 4, 4
#define IONE 128  // 1, 1, 1, 1
#define BIAS 144  // 2^31

#define V4(off, x) \
	DATA kc<>+off+0(SB)/4, $x; \
	DATA kc<>+off+4(SB)/4, $x; \
	DATA kc<>+off+8(SB)/4, $x; \
	DATA kc<>+off+12(SB)/4, $x

V4(C255, 0x3b808081)
V4(BYTE, 0xff)
V4(EPS, 0x3b000000)
V4(ONE, 0x3f800000)
V4(THR, 0x3f7ae148)
V4(C1024, 0x44800000)
DATA kc<>+IOTA+0(SB)/4, $0
DATA kc<>+IOTA+4(SB)/4, $1
DATA kc<>+IOTA+8(SB)/4, $2
DATA kc<>+IOTA+12(SB)/4, $3
V4(FOUR, 4)
V4(IONE, 1)
V4(BIAS, 0x80000000)
GLOBL kc<>(SB), RODATA|NOPTR, $160

// Per-call block (offsets from BX).
#define W00 0
#define W10 16
#define W01 32
#define W11 48
#define LB0 64     // line 0 window length, +2^31
#define LB1 80
#define IDX 96     // LUT indices
#define POPC 112   // popcount of a 4-bit mask, one byte each
#define HI 128     // the piece's Hi
#define FASTLO 136 // groups with FASTLO <= p-n <= FASTHI need no mask
#define FASTHI 144

// WEIGHT broadcasts kernelArgs.w[i] to the block at off.
#define WEIGHT(i, off) \
	MOVSS kernelArgs_w+i(DI), X0; \
	SHUFPS $0, X0, X0; \
	MOVAPS X0, off(BX)

// SOURCE resolves a tap-source code at b into reg: the voxel stream in
// place, the staged lane, or the zero lane.
#define SOURCE(b, lane, reg, lneg, lzero, ldone) \
	MOVLQSX b(SI), R8; \
	TESTQ R8, R8; \
	JS lneg; \
	MOVQ kernelArgs_vox(DI), reg; \
	LEAQ (reg)(R8*4), reg; \
	JMP ldone; \
lneg: \
	CMPQ R8, $const_laneZero; \
	JEQ lzero; \
	NOTQ R8; \
	MOVQ lane(DI), reg; \
	LEAQ (reg)(R8*4), reg; \
	JMP ldone; \
lzero: \
	MOVQ kernelArgs_zero(DI), reg; \
ldone:

// MASK zeroes the taps of cur (lanes p..p+3) and next (p+1..p+4) outside
// the window whose state is lb, x: unsigned p-A < E-A, compared biased.
#define MASK(lb, x, cur, next) \
	MOVO lb(BX), X4; \
	PCMPGTL x, X4; \
	PAND X4, cur; \
	MOVO x, X5; \
	PADDL kc<>+IONE(SB), X5; \
	MOVO lb(BX), X4; \
	PCMPGTL X5, X4; \
	PAND X4, next

// ALPHA converts the opacity byte of the taps in t to float32 in x.
#define ALPHA(t, x) \
	MOVO t, x; \
	PSRLL $24, x; \
	CVTPL2PS x, x

// AAPART is one product w·(α·(1/255)) of the resampled opacity, in x.
#define AAPART(a, w, x) \
	MOVAPS a, x; \
	MULPS kc<>+C255(SB), x; \
	MULPS w(BX), x

// CHAN is a·c for the channel byte at shift of the taps in t, into x.
#define CHAN(t, shift, a, x) \
	MOVO t, x; \
	PSRLL $shift, x; \
	PAND kc<>+BYTE(SB), x; \
	CVTPL2PS x, x; \
	MULPS a, x

// LASTCHAN is CHAN for the low byte, masking t in place.
#define LASTCHAN(t, a, x) \
	PAND kc<>+BYTE(SB), t; \
	CVTPL2PS t, x; \
	MULPS a, x

// func compositeLiveSSE(a *kernelArgs)
TEXT ·compositeLiveSSE(SB), NOSPLIT, $176-8
	MOVQ a+0(FP), DI
	LEAQ 15(SP), BX
	ANDQ $-16, BX
	WEIGHT(0, W00)
	WEIGHT(4, W10)
	WEIGHT(8, W01)
	WEIGHT(12, W11)
	MOVQ $0x0302020102010100, R8
	MOVQ R8, POPC(BX)
	MOVQ $0x0403030203020201, R8
	MOVQ R8, POPC+8(BX)

	MOVQ kernelArgs_live(DI), SI
	MOVQ kernelArgs_nlive(DI), CX
	IMULQ $liveIv__size, CX
	ADDQ SI, CX
	MOVQ kernelArgs_sat(DI), R12
	XORQ R13, R13
	XORQ R14, R14

piece:
	CMPQ SI, CX
	JAE done
	MOVL liveIv_Lo(SI), R8
	MOVL liveIv_Hi(SI), R11
	MOVQ R11, HI(BX)
	MOVQ kernelArgs_pix(DI), R9
	MOVQ R8, R10
	SUBQ R11, R10
	SUBQ R10, R14
	SHLQ $4, R8
	ADDQ R8, R9

	SOURCE(liveIv_B0, kernelArgs_lane0, AX, l0neg, l0zero, l0done)
	SOURCE(liveIv_B1, kernelArgs_lane1, DX, l1neg, l1zero, l1done)

	// Address taps relative to the piece's end, like R10.
	MOVQ R10, R8
	SHLQ $2, R8
	SUBQ R8, AX
	SUBQ R8, DX

	// Window state of both lines from A0 E0 A1 E1: the biased lengths
	// E-A at LB0/LB1, the biased offsets p-A for p = 0..3 in X14/X15.
	MOVOU liveIv_A0(SI), X0
	MOVO X0, X1
	PSRLQ $32, X1
	PSUBL X0, X1
	PXOR kc<>+BIAS(SB), X1
	PSHUFD $0x00, X1, X2
	MOVO X2, LB0(BX)
	PSHUFD $0xaa, X1, X2
	MOVO X2, LB1(BX)
	PXOR X2, X2
	PSUBL X0, X2
	PXOR kc<>+BIAS(SB), X2
	PSHUFD $0x00, X2, X14
	PADDL kc<>+IOTA(SB), X14
	PSHUFD $0xaa, X2, X15
	PADDL kc<>+IOTA(SB), X15

	// Unmasked groups: max(A0, A1) <= p and p+4 < min(E0, E1). A piece of
	// one group has none.
	MOVQ $0, FASTLO(BX)
	CMPQ R10, $-4
	JGE group
	MOVL liveIv_A0(SI), R8
	MOVL liveIv_A1(SI), R11
	CMPL R8, R11
	CMOVLLT R11, R8
	ADDQ R10, R8
	MOVQ R8, FASTLO(BX)
	MOVL liveIv_E0(SI), R8
	MOVL liveIv_E1(SI), R11
	CMPL R8, R11
	CMOVLGT R11, R8
	LEAQ -5(R8)(R10*1), R8
	MOVQ R8, FASTHI(BX)

group:
	MOVOU (AX)(R10*4), X0  // v00
	MOVOU 4(AX)(R10*4), X1 // v10
	MOVOU (DX)(R10*4), X2  // v01
	MOVOU 4(DX)(R10*4), X3 // v11
	CMPQ R10, FASTLO(BX)
	JLT masked
	CMPQ R10, FASTHI(BX)
	JLE unmasked

masked:
	MASK(LB0, X14, X0, X1)
	MASK(LB1, X15, X2, X3)

unmasked:
	PADDL kc<>+FOUR(SB), X14
	PADDL kc<>+FOUR(SB), X15

	// aa = ((w00·u(α00) + w10·u(α10)) + w01·u(α01)) + w11·u(α11)
	ALPHA(X0, X4)
	ALPHA(X1, X5)
	ALPHA(X2, X6)
	ALPHA(X3, X7)
	AAPART(X4, W00, X8)
	AAPART(X5, W10, X9)
	ADDPS X9, X8
	AAPART(X6, W01, X9)
	ADDPS X9, X8
	AAPART(X7, W11, X9)
	ADDPS X9, X8

	// X9: the lanes that composite, !(aa < 1/512), within the piece.
	MOVAPS X8, X9
	CMPPS kc<>+EPS(SB), X9, $5
	CMPQ R10, $-4
	JLE counted
	MOVQ R10, R8
	NEGQ R8
	MOVL R8, X10
	PSHUFD $0, X10, X10
	PCMPGTL kc<>+IOTA(SB), X10
	ANDPS X10, X9

counted:
	MOVMSKPS X9, R8
	TESTL R8, R8
	JZ next
	MOVBLZX POPC(BX)(R8*1), R11
	ADDQ R11, R13

	// a_i = (w_i·α_i)·(1/255)
	MULPS W00(BX), X4
	MULPS kc<>+C255(SB), X4
	MULPS W10(BX), X5
	MULPS kc<>+C255(SB), X5
	MULPS W01(BX), X6
	MULPS kc<>+C255(SB), X6
	MULPS W11(BX), X7
	MULPS kc<>+C255(SB), X7

	// ar, ag, ab = ((a0·c00 + a1·c10) + a2·c01) + a3·c11 in X10-X12.
	CHAN(X0, 16, X4, X10)
	CHAN(X1, 16, X5, X13)
	ADDPS X13, X10
	CHAN(X2, 16, X6, X13)
	ADDPS X13, X10
	CHAN(X3, 16, X7, X13)
	ADDPS X13, X10
	CHAN(X0, 8, X4, X11)
	CHAN(X1, 8, X5, X13)
	ADDPS X13, X11
	CHAN(X2, 8, X6, X13)
	ADDPS X13, X11
	CHAN(X3, 8, X7, X13)
	ADDPS X13, X11
	LASTCHAN(X0, X4, X12)
	LASTCHAN(X1, X5, X13)
	ADDPS X13, X12
	LASTCHAN(X2, X6, X13)
	ADDPS X13, X12
	LASTCHAN(X3, X7, X13)
	ADDPS X13, X12

	// Opacity correction: aa = lut[min(int(aa·1024), 1024)] (aa >= 0),
	// scale = corrected/aa in X6. The wrapper passes no table in MIP.
	MOVQ kernelArgs_lut(DI), R11
	TESTQ R11, R11
	JZ load
	MOVAPS X8, X0
	MULPS kc<>+C1024(SB), X0
	MINPS kc<>+C1024(SB), X0
	CVTTPS2PL X0, X0
	MOVO X0, IDX(BX)
	MOVL IDX+0(BX), R8
	MOVSS (R11)(R8*4), X1
	MOVL IDX+4(BX), R8
	MOVSS (R11)(R8*4), X2
	MOVL IDX+8(BX), R8
	MOVSS (R11)(R8*4), X3
	MOVL IDX+12(BX), R8
	MOVSS (R11)(R8*4), X4
	UNPCKLPS X2, X1
	UNPCKLPS X4, X3
	MOVLHPS X3, X1
	MOVAPS X1, X6
	DIVPS X8, X6
	MOVAPS X1, X8

load:
	// Load the group's pixels (only those inside the piece) and
	// transpose them to R X1, G X5, B X3, A X2.
	CMPQ R10, $-4
	JGT loadpart
	MOVUPS 0(R9), X0
	MOVUPS 16(R9), X1
	MOVUPS 32(R9), X2
	MOVUPS 48(R9), X3
	JMP loaded

loadpart:
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	MOVUPS 0(R9), X0
	CMPQ R10, $-2
	JGT loaded
	MOVUPS 16(R9), X1
	JEQ loaded
	MOVUPS 32(R9), X2

loaded:
	MOVAPS X0, X4
	UNPCKLPS X1, X4
	UNPCKHPS X1, X0
	MOVAPS X2, X5
	UNPCKLPS X3, X5
	UNPCKHPS X3, X2
	MOVAPS X4, X1
	MOVLHPS X5, X1
	MOVHLPS X4, X5
	MOVAPS X0, X3
	MOVLHPS X2, X3
	MOVHLPS X0, X2

	CMPB kernelArgs_mip(DI), $0
	JNE mip

	// px += (t·ar)·(1/255) per colour, t = scale·(1-A); A += (1-A)·aa.
	MOVAPS kc<>+ONE(SB), X0
	SUBPS X2, X0
	MOVAPS X0, X4
	MULPS X8, X4
	ANDPS X9, X4
	ADDPS X4, X2
	TESTQ R11, R11
	JZ blend
	MULPS X6, X0

blend:
	MULPS X0, X10
	MULPS kc<>+C255(SB), X10
	ANDPS X9, X10
	ADDPS X10, X1
	MULPS X0, X11
	MULPS kc<>+C255(SB), X11
	ANDPS X9, X11
	ADDPS X11, X5
	MULPS X0, X12
	MULPS kc<>+C255(SB), X12
	ANDPS X9, X12
	ADDPS X12, X3

	// Saturated: composited lanes with A >= threshold, appended in
	// ascending pixel order.
	MOVAPS kc<>+THR(SB), X4
	CMPPS X2, X4, $2
	ANDPS X9, X4
	MOVMSKPS X4, R8
	TESTL R8, R8
	JZ store

sat:
	BSFL R8, R11
	BTRL R11, R8
	ADDL HI(BX), R11
	ADDL R10, R11
	MOVL R11, (R12)
	ADDQ $4, R12
	TESTL R8, R8
	JNZ sat
	JMP store

mip:
	// px = max(px, c·(1/255)) per colour, A = max(A, aa).
	MULPS kc<>+C255(SB), X10
	ANDPS X9, X10
	MAXPS X10, X1
	MULPS kc<>+C255(SB), X11
	ANDPS X9, X11
	MAXPS X11, X5
	MULPS kc<>+C255(SB), X12
	ANDPS X9, X12
	MAXPS X12, X3
	ANDPS X9, X8
	MAXPS X8, X2

store:
	// Transpose back to pixels X5, X4, X0, X3 and store those inside
	// the piece.
	MOVAPS X1, X0
	UNPCKLPS X5, X0
	UNPCKHPS X5, X1
	MOVAPS X3, X4
	UNPCKLPS X2, X4
	UNPCKHPS X2, X3
	MOVAPS X0, X5
	MOVLHPS X4, X5
	MOVHLPS X0, X4
	MOVAPS X1, X0
	MOVLHPS X3, X0
	MOVHLPS X1, X3
	CMPQ R10, $-4
	JGT storepart
	MOVUPS X5, 0(R9)
	MOVUPS X4, 16(R9)
	MOVUPS X0, 32(R9)
	MOVUPS X3, 48(R9)
	JMP next

storepart:
	MOVUPS X5, 0(R9)
	CMPQ R10, $-2
	JGT next
	MOVUPS X4, 16(R9)
	JEQ next
	MOVUPS X0, 32(R9)

next:
	ADDQ $64, R9
	ADDQ $4, R10
	JLT group
	ADDQ $liveIv__size, SI
	JMP piece

done:
	MOVQ R12, R8
	SUBQ kernelArgs_sat(DI), R8
	SHRQ $2, R8
	MOVQ R8, kernelArgs_nsat(DI)
	MOVQ R13, kernelArgs_samples(DI)
	SUBQ R13, R14
	MOVQ R14, kernelArgs_empty(DI)
	RET
