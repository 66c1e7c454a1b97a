//go:build !race

#include "go_asm.h"
#include "textflag.h"

// compositeLiveAVX2: compositeLiveRef eight pixels at a time with AVX2.
//
// A group is the pixels p..p+7 of a piece. Its taps are two unaligned
// eight-voxel loads per line, taps p..p+7 (the pixels' left taps) and
// p+1..p+8 (their right taps), masked to the line's valid-tap window unless
// the whole group lies inside both windows; the last group of a piece reads
// up to seven taps past tap n, which readPad keeps inside every tap source
// and the window masks to zero. Everything after the loads is the
// reference's float32 arithmetic in the reference's order, lane for lane,
// with no FMA. Lanes that are empty, or past the piece's end, add +0
// (compositing) or offer +0 to VMAXPS (MIP); pixels past the end are neither
// loaded nor stored (VMASKMOVPS).
//
// Lane plan. The pixels are loaded as four pairs, [p|p+1] .. [p+6|p+7], and
// an in-lane 4x4 transpose turns them into one register per channel whose
// lanes hold the pixels in the order p + σ(i), σ = 0 2 4 6 1 3 5 7. VPERMD
// puts the taps in the same order as they load, so every lane computes one
// pixel; only the bit mask of saturated pixels is permuted back (by σ⁻¹)
// before it is appended in ascending order.
//
// Registers, kept for the whole call:
//	DI	*kernelArgs
//	SI, CX	live cursor and end
//	BX	32-byte aligned block on the stack (below)
//	R12	next free c.sat slot
//	R13, R14	samples, pixels visited
// per piece:
//	AX, DX	line 0 and line 1 tap source, biased by +4n bytes
//	R9	the group's first pixel
//	R10	p-n: the group's first pixel relative to the piece's end (< 0)
//	Y14, Y15	line 0/1 tap index minus window start, lanes p+σ(i), +2^31
// scratch: R8, R11, Y0-Y13.

// Constants (offsets into kc), eight lanes each.
#define C255 0     // float32(1/255)
#define BYTE 32    // 0xff
#define EPS 64     // 1/512, the empty-sample bound
#define ONE 96     // 1.0
#define THR 128    // img.OpacityThreshold
#define C1024 160  // lutSize
#define SIGMA 192  // σ: the pixel of each lane
#define UNSIGMA 224 // σ⁻¹: the lane of each pixel
#define EIGHT 256  // 8
#define IONE 288   // 1
#define BIAS 320   // 2^31
#define SHUFR 352  // VPSHUFB control: byte 2 of each voxel
#define SHUFG 384  // byte 1
#define PAIRS 416  // the pixel k of each float of pairs 0-3

#define V8(off, x) \
	DATA kc<>+off+0(SB)/4, $x; \
	DATA kc<>+off+4(SB)/4, $x; \
	DATA kc<>+off+8(SB)/4, $x; \
	DATA kc<>+off+12(SB)/4, $x; \
	DATA kc<>+off+16(SB)/4, $x; \
	DATA kc<>+off+20(SB)/4, $x; \
	DATA kc<>+off+24(SB)/4, $x; \
	DATA kc<>+off+28(SB)/4, $x

#define L8(off, a, b, c, d, e, f, g, h) \
	DATA kc<>+off+0(SB)/4, $a; \
	DATA kc<>+off+4(SB)/4, $b; \
	DATA kc<>+off+8(SB)/4, $c; \
	DATA kc<>+off+12(SB)/4, $d; \
	DATA kc<>+off+16(SB)/4, $e; \
	DATA kc<>+off+20(SB)/4, $f; \
	DATA kc<>+off+24(SB)/4, $g; \
	DATA kc<>+off+28(SB)/4, $h

V8(C255, 0x3b808081)
V8(BYTE, 0xff)
V8(EPS, 0x3b000000)
V8(ONE, 0x3f800000)
V8(THR, 0x3f7ae148)
V8(C1024, 0x44800000)
L8(SIGMA, 0, 2, 4, 6, 1, 3, 5, 7)
L8(UNSIGMA, 0, 4, 1, 5, 2, 6, 3, 7)
V8(EIGHT, 8)
V8(IONE, 1)
V8(BIAS, 0x80000000)
L8(SHUFR, 0x80808002, 0x80808006, 0x8080800a, 0x8080800e, 0x80808002, 0x80808006, 0x8080800a, 0x8080800e)
L8(SHUFG, 0x80808001, 0x80808005, 0x80808009, 0x8080800d, 0x80808001, 0x80808005, 0x80808009, 0x8080800d)
L8(PAIRS+0, 0, 0, 0, 0, 1, 1, 1, 1)
L8(PAIRS+32, 2, 2, 2, 2, 3, 3, 3, 3)
L8(PAIRS+64, 4, 4, 4, 4, 5, 5, 5, 5)
L8(PAIRS+96, 6, 6, 6, 6, 7, 7, 7, 7)
GLOBL kc<>(SB), RODATA|NOPTR, $544

// Per-call block (offsets from BX).
#define W00 0
#define W10 32
#define W01 64
#define W11 96
#define LB0 128    // line 0 window length, +2^31
#define LB1 160
#define HI 192     // the piece's Hi
#define FASTLO 200 // groups with FASTLO <= p-n <= FASTHI need no mask
#define FASTHI 208

// WEIGHT broadcasts kernelArgs.w[i] to the block at off.
#define WEIGHT(i, off) \
	VBROADCASTSS kernelArgs_w+i(DI), Y0; \
	VMOVUPS Y0, off(BX)

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

// MASK zeroes the taps of cur (lanes p+σ(i)) and next (p+1+σ(i)) outside
// the window whose state is lb, x: unsigned p-A < E-A, compared biased.
#define MASK(lb, x, cur, next) \
	VMOVDQU lb(BX), Y4; \
	VPCMPGTD x, Y4, Y5; \
	VPAND Y5, cur, cur; \
	VPADDD kc<>+IONE(SB), x, Y5; \
	VPCMPGTD Y5, Y4, Y5; \
	VPAND Y5, next, next

// ALPHA converts the opacity byte of the taps in t to float32 in x.
#define ALPHA(t, x) \
	VPSRLD $24, t, x; \
	VCVTDQ2PS x, x

// AAPART is one product w·(α·(1/255)) of the resampled opacity, in x.
#define AAPART(a, w, x) \
	VMULPS kc<>+C255(SB), a, x; \
	VMULPS w(BX), x, x

// CHAN is a·c for the channel byte that shuf selects from the taps in t,
// into x.
#define CHAN(t, shuf, a, x) \
	VPSHUFB kc<>+shuf(SB), t, x; \
	VCVTDQ2PS x, x; \
	VMULPS a, x, x

// LASTCHAN is CHAN for the low byte.
#define LASTCHAN(t, a, x) \
	VPAND kc<>+BYTE(SB), t, x; \
	VCVTDQ2PS x, x; \
	VMULPS a, x, x

// PAIRMASKS sets Y4, Y5, Y7, Y13 to the masks of the four pixel pairs,
// set on the floats of the pixels p+k inside the piece, k < n-p.
#define PAIRMASKS \
	MOVQ R10, R8; \
	NEGQ R8; \
	VMOVD R8, X13; \
	VPBROADCASTD X13, Y13; \
	VPCMPGTD kc<>+PAIRS+0(SB), Y13, Y4; \
	VPCMPGTD kc<>+PAIRS+32(SB), Y13, Y5; \
	VPCMPGTD kc<>+PAIRS+64(SB), Y13, Y7; \
	VPCMPGTD kc<>+PAIRS+96(SB), Y13, Y13

// func compositeLiveAVX2(a *kernelArgs)
TEXT ·compositeLiveAVX2(SB), NOSPLIT, $256-8
	MOVQ a+0(FP), DI
	LEAQ 31(SP), BX
	ANDQ $-32, BX
	WEIGHT(0, W00)
	WEIGHT(4, W10)
	WEIGHT(8, W01)
	WEIGHT(12, W11)

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
	// E-A at LB0/LB1, the biased offsets p+σ(i)-A for p = 0 in Y14/Y15.
	VMOVDQU liveIv_A0(SI), X0
	VPSRLQ $32, X0, X1
	VPSUBD X0, X1, X1
	VPXOR kc<>+BIAS(SB), X1, X1
	VPBROADCASTD X1, Y2
	VMOVDQU Y2, LB0(BX)
	VPSHUFD $0xaa, X1, X2
	VPBROADCASTD X2, Y2
	VMOVDQU Y2, LB1(BX)
	VPXOR X2, X2, X2
	VPSUBD X0, X2, X2
	VPXOR kc<>+BIAS(SB), X2, X2
	VPBROADCASTD X2, Y14
	VPADDD kc<>+SIGMA(SB), Y14, Y14
	VPSHUFD $0xaa, X2, X2
	VPBROADCASTD X2, Y15
	VPADDD kc<>+SIGMA(SB), Y15, Y15

	// Unmasked groups: max(A0, A1) <= p and p+8 < min(E0, E1). A piece of
	// one group has none.
	MOVQ $0, FASTLO(BX)
	CMPQ R10, $-8
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
	LEAQ -9(R8)(R10*1), R8
	MOVQ R8, FASTHI(BX)

group:
	VMOVDQU kc<>+SIGMA(SB), Y13
	VPERMD (AX)(R10*4), Y13, Y0  // v00
	VPERMD 4(AX)(R10*4), Y13, Y1 // v10
	VPERMD (DX)(R10*4), Y13, Y2  // v01
	VPERMD 4(DX)(R10*4), Y13, Y3 // v11
	CMPQ R10, FASTLO(BX)
	JLT masked
	CMPQ R10, FASTHI(BX)
	JLE unmasked

masked:
	MASK(LB0, Y14, Y0, Y1)
	MASK(LB1, Y15, Y2, Y3)

unmasked:
	VPADDD kc<>+EIGHT(SB), Y14, Y14
	VPADDD kc<>+EIGHT(SB), Y15, Y15

	// aa = ((w00·u(α00) + w10·u(α10)) + w01·u(α01)) + w11·u(α11)
	ALPHA(Y0, Y4)
	ALPHA(Y1, Y5)
	ALPHA(Y2, Y6)
	ALPHA(Y3, Y7)
	AAPART(Y4, W00, Y8)
	AAPART(Y5, W10, Y13)
	VADDPS Y13, Y8, Y8
	AAPART(Y6, W01, Y13)
	VADDPS Y13, Y8, Y8
	AAPART(Y7, W11, Y13)
	VADDPS Y13, Y8, Y8

	// Y9: the lanes that composite, !(aa < 1/512), within the piece.
	VCMPPS $5, kc<>+EPS(SB), Y8, Y9
	CMPQ R10, $-8
	JLE counted
	MOVQ R10, R8
	NEGQ R8
	VMOVD R8, X10
	VPBROADCASTD X10, Y10
	VPCMPGTD kc<>+SIGMA(SB), Y10, Y10
	VANDPS Y10, Y9, Y9

counted:
	VMOVMSKPS Y9, R8
	TESTL R8, R8
	JZ next
	POPCNTL R8, R11
	ADDQ R11, R13

	// a_i = (w_i·α_i)·(1/255)
	VMULPS W00(BX), Y4, Y4
	VMULPS kc<>+C255(SB), Y4, Y4
	VMULPS W10(BX), Y5, Y5
	VMULPS kc<>+C255(SB), Y5, Y5
	VMULPS W01(BX), Y6, Y6
	VMULPS kc<>+C255(SB), Y6, Y6
	VMULPS W11(BX), Y7, Y7
	VMULPS kc<>+C255(SB), Y7, Y7

	// ar, ag, ab = ((a0·c00 + a1·c10) + a2·c01) + a3·c11 in Y10-Y12.
	CHAN(Y0, SHUFR, Y4, Y10)
	CHAN(Y1, SHUFR, Y5, Y13)
	VADDPS Y13, Y10, Y10
	CHAN(Y2, SHUFR, Y6, Y13)
	VADDPS Y13, Y10, Y10
	CHAN(Y3, SHUFR, Y7, Y13)
	VADDPS Y13, Y10, Y10
	CHAN(Y0, SHUFG, Y4, Y11)
	CHAN(Y1, SHUFG, Y5, Y13)
	VADDPS Y13, Y11, Y11
	CHAN(Y2, SHUFG, Y6, Y13)
	VADDPS Y13, Y11, Y11
	CHAN(Y3, SHUFG, Y7, Y13)
	VADDPS Y13, Y11, Y11
	LASTCHAN(Y0, Y4, Y12)
	LASTCHAN(Y1, Y5, Y13)
	VADDPS Y13, Y12, Y12
	LASTCHAN(Y2, Y6, Y13)
	VADDPS Y13, Y12, Y12
	LASTCHAN(Y3, Y7, Y13)
	VADDPS Y13, Y12, Y12

	// Opacity correction: aa = lut[min(int(aa·1024), 1024)] (aa >= 0),
	// scale = corrected/aa in Y6. The wrapper passes no table in MIP.
	MOVQ kernelArgs_lut(DI), R11
	TESTQ R11, R11
	JZ load
	VMULPS kc<>+C1024(SB), Y8, Y0
	VMINPS kc<>+C1024(SB), Y0, Y0
	VCVTTPS2DQ Y0, Y0
	VPCMPEQD Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VGATHERDPS Y1, (R11)(Y0*4), Y2
	VDIVPS Y8, Y2, Y6
	VMOVAPS Y2, Y8

load:
	// Load the group's pixel pairs (only the pixels inside the piece)
	// and transpose them to R Y0, G Y1, B Y2, A Y3.
	CMPQ R10, $-8
	JGT loadpart
	VMOVUPS 0(R9), Y0
	VMOVUPS 32(R9), Y1
	VMOVUPS 64(R9), Y2
	VMOVUPS 96(R9), Y3
	JMP loaded

loadpart:
	PAIRMASKS
	VMASKMOVPS 0(R9), Y4, Y0
	VMASKMOVPS 32(R9), Y5, Y1
	VMASKMOVPS 64(R9), Y7, Y2
	VMASKMOVPS 96(R9), Y13, Y3

loaded:
	VUNPCKLPS Y1, Y0, Y4
	VUNPCKHPS Y1, Y0, Y5
	VUNPCKLPS Y3, Y2, Y7
	VUNPCKHPS Y3, Y2, Y13
	VUNPCKLPD Y7, Y4, Y0
	VUNPCKHPD Y7, Y4, Y1
	VUNPCKLPD Y13, Y5, Y2
	VUNPCKHPD Y13, Y5, Y3

	CMPB kernelArgs_mip(DI), $0
	JNE mip

	// px += (t·ar)·(1/255) per colour, t = scale·(1-A); A += (1-A)·aa.
	VMOVUPS kc<>+ONE(SB), Y4
	VSUBPS Y3, Y4, Y4
	VMULPS Y8, Y4, Y5
	VANDPS Y9, Y5, Y5
	VADDPS Y5, Y3, Y3
	TESTQ R11, R11
	JZ blend
	VMULPS Y6, Y4, Y4

blend:
	VMULPS Y4, Y10, Y10
	VMULPS kc<>+C255(SB), Y10, Y10
	VANDPS Y9, Y10, Y10
	VADDPS Y10, Y0, Y0
	VMULPS Y4, Y11, Y11
	VMULPS kc<>+C255(SB), Y11, Y11
	VANDPS Y9, Y11, Y11
	VADDPS Y11, Y1, Y1
	VMULPS Y4, Y12, Y12
	VMULPS kc<>+C255(SB), Y12, Y12
	VANDPS Y9, Y12, Y12
	VADDPS Y12, Y2, Y2

	// Saturated: composited lanes with A >= threshold, put back in pixel
	// order by σ⁻¹ and appended in ascending order.
	VCMPPS $13, kc<>+THR(SB), Y3, Y4
	VANDPS Y9, Y4, Y4
	VMOVMSKPS Y4, R8
	TESTL R8, R8
	JZ store
	VMOVDQU kc<>+UNSIGMA(SB), Y5
	VPERMD Y4, Y5, Y4
	VMOVMSKPS Y4, R8

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
	VMULPS kc<>+C255(SB), Y10, Y10
	VANDPS Y9, Y10, Y10
	VMAXPS Y10, Y0, Y0
	VMULPS kc<>+C255(SB), Y11, Y11
	VANDPS Y9, Y11, Y11
	VMAXPS Y11, Y1, Y1
	VMULPS kc<>+C255(SB), Y12, Y12
	VANDPS Y9, Y12, Y12
	VMAXPS Y12, Y2, Y2
	VANDPS Y9, Y8, Y8
	VMAXPS Y8, Y3, Y3

store:
	// Transpose back to pixel pairs Y0-Y3 and store the pixels inside
	// the piece.
	VUNPCKLPS Y1, Y0, Y4
	VUNPCKHPS Y1, Y0, Y5
	VUNPCKLPS Y3, Y2, Y7
	VUNPCKHPS Y3, Y2, Y13
	VUNPCKLPD Y7, Y4, Y0
	VUNPCKHPD Y7, Y4, Y1
	VUNPCKLPD Y13, Y5, Y2
	VUNPCKHPD Y13, Y5, Y3
	CMPQ R10, $-8
	JGT storepart
	VMOVUPS Y0, 0(R9)
	VMOVUPS Y1, 32(R9)
	VMOVUPS Y2, 64(R9)
	VMOVUPS Y3, 96(R9)
	JMP next

storepart:
	PAIRMASKS
	VMASKMOVPS Y0, Y4, 0(R9)
	VMASKMOVPS Y1, Y5, 32(R9)
	VMASKMOVPS Y2, Y7, 64(R9)
	VMASKMOVPS Y3, Y13, 96(R9)

next:
	ADDQ $128, R9
	ADDQ $8, R10
	JLT group
	ADDQ $liveIv__size, SI
	JMP piece

done:
	VZEROUPPER
	MOVQ R12, R8
	SUBQ kernelArgs_sat(DI), R8
	SHRQ $2, R8
	MOVQ R8, kernelArgs_nsat(DI)
	MOVQ R13, kernelArgs_samples(DI)
	SUBQ R13, R14
	MOVQ R14, kernelArgs_empty(DI)
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
