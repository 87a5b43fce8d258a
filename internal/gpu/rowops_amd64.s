//go:build amd64 && !purego

#include "textflag.h"

// AVX2 row kernels (DESIGN.md section 3.11, "Row kernels"). A row is 32
// uint32 lanes, 128 bytes: four 256-bit vectors. Rules every function here
// keeps, checked by TestRowAsmHygiene:
//
//   - every vector instruction is VEX-encoded — one legacy-SSE instruction
//     with dirty upper halves costs a state transition per call;
//   - VZEROUPPER before every RET of a function that touched a Y register,
//     so the Go code that follows (legacy-SSE scalar floats) pays none either;
//   - every TEXT symbol is written out, with its arguments loaded by name in
//     its own body, so go vet's asmdecl checks names, offsets and frame sizes.
//     Macros hold register-only bodies.
//
// Rows are read a whole vector (or the whole row) before the matching store,
// and lane l's result depends on lane l alone, so out may alias any source.
// Operand order is part of the contract for the float kernels: x sits in the
// instruction's first source, whose NaN payload x86 propagates when both
// operands are NaN — what the Go compiler's ADDSS/MULSS x, y does in the
// portable loops.

// lanebits holds 1<<l for the low eight lanes, laneidx 0..7.
DATA lanebits<>+0(SB)/4, $1
DATA lanebits<>+4(SB)/4, $2
DATA lanebits<>+8(SB)/4, $4
DATA lanebits<>+12(SB)/4, $8
DATA lanebits<>+16(SB)/4, $16
DATA lanebits<>+20(SB)/4, $32
DATA lanebits<>+24(SB)/4, $64
DATA lanebits<>+28(SB)/4, $128
GLOBL lanebits<>(SB), RODATA|NOPTR, $32

DATA laneidx<>+0(SB)/4, $0
DATA laneidx<>+4(SB)/4, $1
DATA laneidx<>+8(SB)/4, $2
DATA laneidx<>+12(SB)/4, $3
DATA laneidx<>+16(SB)/4, $4
DATA laneidx<>+20(SB)/4, $5
DATA laneidx<>+24(SB)/4, $6
DATA laneidx<>+28(SB)/4, $7
GLOBL laneidx<>(SB), RODATA|NOPTR, $32

// func cpuHasAVX2() bool
//
// AVX2 is usable when CPUID reports OSXSAVE, AVX and (leaf 7) AVX2, and
// XGETBV shows the OS saving XMM and YMM state.
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  done
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE | AVX
	CMPL CX, $0x18000000
	JNE  done
	XORL CX, CX
	XGETBV
	ANDL $6, AX // XMM | YMM state
	CMPL AX, $6
	JNE  done
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX // AVX2
	ANDL $1, BX
	MOVB BX, ret+0(FP)
done:
	RET

// LOADX loads the row at SI into Y0-Y3; STOREOUT stores Y0-Y3 to DI.
#define LOADX \
	VMOVDQU 0(SI), Y0; \
	VMOVDQU 32(SI), Y1; \
	VMOVDQU 64(SI), Y2; \
	VMOVDQU 96(SI), Y3

#define STOREOUT \
	VMOVDQU Y0, 0(DI); \
	VMOVDQU Y1, 32(DI); \
	VMOVDQU Y2, 64(DI); \
	VMOVDQU Y3, 96(DI)

// OPROW applies Y0-Y3 = Y0-Y3 OP the row at R: the accumulated value is the
// instruction's first source.
#define OPROW(OP, R) \
	OP 0(R), Y0, Y0; \
	OP 32(R), Y1, Y1; \
	OP 64(R), Y2, Y2; \
	OP 96(R), Y3, Y3

// OPREG applies Y0-Y3 = Y0-Y3 OP the vector V.
#define OPREG(OP, V) \
	OP V, Y0, Y0; \
	OP V, Y1, Y1; \
	OP V, Y2, Y2; \
	OP V, Y3, Y3

// func rowBroadcastAVX2(r *regRow, v uint32)
TEXT ·rowBroadcastAVX2(SB), NOSPLIT, $0-12
	MOVQ         r+0(FP), DI
	MOVL         v+8(FP), AX
	VMOVD        AX, X0
	VPBROADCASTD X0, Y0
	VMOVDQU      Y0, 0(DI)
	VMOVDQU      Y0, 32(DI)
	VMOVDQU      Y0, 64(DI)
	VMOVDQU      Y0, 96(DI)
	VZEROUPPER
	RET

// EXPAND turns the lane mask broadcast in Y14 into the select words of the
// next eight lanes in M, and advances the lane bits in Y13 by eight lanes.
#define EXPAND(M) \
	VPAND    Y13, Y14, M; \
	VPCMPEQD Y13, M, M; \
	VPSLLD   $8, Y13, Y13

// func rowExpandMaskAVX2(k *regRow, m uint32)
TEXT ·rowExpandMaskAVX2(SB), NOSPLIT, $0-12
	MOVQ         k+0(FP), DI
	MOVL         m+8(FP), AX
	VMOVD        AX, X14
	VPBROADCASTD X14, Y14
	VMOVDQU      lanebits<>(SB), Y13
	EXPAND(Y0)
	EXPAND(Y1)
	EXPAND(Y2)
	EXPAND(Y3)
	STOREOUT
	VZEROUPPER
	RET

// func rowMergeAVX2(dst, src, k *regRow)
TEXT ·rowMergeAVX2(SB), NOSPLIT, $0-24
	MOVQ      dst+0(FP), DI
	MOVQ      src+8(FP), SI
	MOVQ      k+16(FP), DX
	VMOVDQU   0(DI), Y0
	VMOVDQU   32(DI), Y1
	VMOVDQU   64(DI), Y2
	VMOVDQU   96(DI), Y3
	VMOVDQU   0(DX), Y4
	VMOVDQU   32(DX), Y5
	VMOVDQU   64(DX), Y6
	VMOVDQU   96(DX), Y7
	VPBLENDVB Y4, 0(SI), Y0, Y0
	VPBLENDVB Y5, 32(SI), Y1, Y1
	VPBLENDVB Y6, 64(SI), Y2, Y2
	VPBLENDVB Y7, 96(SI), Y3, Y3
	STOREOUT
	VZEROUPPER
	RET

// func rowNegIntAVX2(out, x *regRow)
TEXT ·rowNegIntAVX2(SB), NOSPLIT, $0-16
	MOVQ    out+0(FP), DI
	MOVQ    x+8(FP), SI
	VPXOR   Y4, Y4, Y4
	VPSUBD  0(SI), Y4, Y0
	VPSUBD  32(SI), Y4, Y1
	VPSUBD  64(SI), Y4, Y2
	VPSUBD  96(SI), Y4, Y3
	STOREOUT
	VZEROUPPER
	RET

// func rowNegFloatAVX2(out, x *regRow)
TEXT ·rowNegFloatAVX2(SB), NOSPLIT, $0-16
	MOVQ     out+0(FP), DI
	MOVQ     x+8(FP), SI
	VPCMPEQD Y4, Y4, Y4
	VPSLLD   $31, Y4, Y4 // the sign bit
	LOADX
	OPREG(VPXOR, Y4)
	STOREOUT
	VZEROUPPER
	RET

// func rowAddAVX2(out, x, y *regRow)
TEXT ·rowAddAVX2(SB), NOSPLIT, $0-24
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	LOADX
	OPROW(VPADDD, DX)
	STOREOUT
	VZEROUPPER
	RET

// func rowMulAVX2(out, x, y *regRow)
TEXT ·rowMulAVX2(SB), NOSPLIT, $0-24
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	LOADX
	OPROW(VPMULLD, DX)
	STOREOUT
	VZEROUPPER
	RET

// func rowAndAVX2(out, x, y *regRow)
TEXT ·rowAndAVX2(SB), NOSPLIT, $0-24
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	LOADX
	OPROW(VPAND, DX)
	STOREOUT
	VZEROUPPER
	RET

// func rowOrAVX2(out, x, y *regRow)
TEXT ·rowOrAVX2(SB), NOSPLIT, $0-24
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	LOADX
	OPROW(VPOR, DX)
	STOREOUT
	VZEROUPPER
	RET

// func rowXorAVX2(out, x, y *regRow)
TEXT ·rowXorAVX2(SB), NOSPLIT, $0-24
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	LOADX
	OPROW(VPXOR, DX)
	STOREOUT
	VZEROUPPER
	RET

// The variable shifts saturate the way Go's do: a count of 32 or more shifts
// everything out, sign-filling for the arithmetic one.

// func rowShlAVX2(out, x, y *regRow)
TEXT ·rowShlAVX2(SB), NOSPLIT, $0-24
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	LOADX
	OPROW(VPSLLVD, DX)
	STOREOUT
	VZEROUPPER
	RET

// func rowShrAVX2(out, x, y *regRow)
TEXT ·rowShrAVX2(SB), NOSPLIT, $0-24
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	LOADX
	OPROW(VPSRLVD, DX)
	STOREOUT
	VZEROUPPER
	RET

// func rowSarAVX2(out, x, y *regRow)
TEXT ·rowSarAVX2(SB), NOSPLIT, $0-24
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	LOADX
	OPROW(VPSRAVD, DX)
	STOREOUT
	VZEROUPPER
	RET

// func rowFAddAVX2(out, x, y *regRow)
TEXT ·rowFAddAVX2(SB), NOSPLIT, $0-24
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	LOADX
	OPROW(VADDPS, DX)
	STOREOUT
	VZEROUPPER
	RET

// func rowFMulAVX2(out, x, y *regRow)
TEXT ·rowFMulAVX2(SB), NOSPLIT, $0-24
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	LOADX
	OPROW(VMULPS, DX)
	STOREOUT
	VZEROUPPER
	RET

// func rowIMadAVX2(out, x, y, z *regRow)
TEXT ·rowIMadAVX2(SB), NOSPLIT, $0-32
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	MOVQ z+24(FP), CX
	LOADX
	OPROW(VPMULLD, DX)
	OPROW(VPADDD, CX)
	STOREOUT
	VZEROUPPER
	RET

// func rowIAdd3AVX2(out, x, y, z *regRow)
TEXT ·rowIAdd3AVX2(SB), NOSPLIT, $0-32
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	MOVQ z+24(FP), CX
	LOADX
	OPROW(VPADDD, DX)
	OPROW(VPADDD, CX)
	STOREOUT
	VZEROUPPER
	RET

// func rowLeaAVX2(out, x, y, z *regRow)
//
// out = x<<(z&31) + y.
TEXT ·rowLeaAVX2(SB), NOSPLIT, $0-32
	MOVQ     out+0(FP), DI
	MOVQ     x+8(FP), SI
	MOVQ     y+16(FP), DX
	MOVQ     z+24(FP), CX
	VPCMPEQD Y8, Y8, Y8
	VPSRLD   $27, Y8, Y8 // 31
	VPAND    0(CX), Y8, Y4
	VPAND    32(CX), Y8, Y5
	VPAND    64(CX), Y8, Y6
	VPAND    96(CX), Y8, Y7
	LOADX
	VPSLLVD  Y4, Y0, Y0
	VPSLLVD  Y5, Y1, Y1
	VPSLLVD  Y6, Y2, Y2
	VPSLLVD  Y7, Y3, Y3
	OPROW(VPADDD, DX)
	STOREOUT
	VZEROUPPER
	RET

// FFMA4 computes four lanes at byte offset off: widen to float64, multiply
// (exact: 24+24 significand bits), add (one rounding), narrow (a second) —
// float32(float64(x)*float64(y) + float64(z)), not a fused multiply-add.
#define FFMA4(off) \
	VCVTPS2PD  off(SI), Y0; \
	VCVTPS2PD  off(DX), Y1; \
	VCVTPS2PD  off(CX), Y2; \
	VMULPD     Y1, Y0, Y0; \
	VADDPD     Y2, Y0, Y0; \
	VCVTPD2PSY Y0, X0; \
	VMOVDQU    X0, off(DI)

// func rowFFmaAVX2(out, x, y, z *regRow)
TEXT ·rowFFmaAVX2(SB), NOSPLIT, $0-32
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	MOVQ z+24(FP), CX
	FFMA4(0)
	FFMA4(16)
	FFMA4(32)
	FFMA4(48)
	FFMA4(64)
	FFMA4(80)
	FFMA4(96)
	FFMA4(112)
	VZEROUPPER
	RET

// LOP3V evaluates the truth table on one vector at byte offset off. Y8-Y15
// hold the table's eight select words m0..m7 broadcast (bit index x<<2 | y<<1
// | z). A three-level mux: z picks within each pair, then y, then x; "c ? b :
// a" is a ^ (c & (a ^ b)).
#define LOP3V(off) \
	VMOVDQU off(CX), Y4; \
	VPXOR   Y8, Y9, Y0; \
	VPAND   Y4, Y0, Y0; \
	VPXOR   Y8, Y0, Y0; \
	VPXOR   Y10, Y11, Y1; \
	VPAND   Y4, Y1, Y1; \
	VPXOR   Y10, Y1, Y1; \
	VPXOR   Y12, Y13, Y2; \
	VPAND   Y4, Y2, Y2; \
	VPXOR   Y12, Y2, Y2; \
	VPXOR   Y14, Y15, Y3; \
	VPAND   Y4, Y3, Y3; \
	VPXOR   Y14, Y3, Y3; \
	VMOVDQU off(DX), Y4; \
	VPXOR   Y0, Y1, Y1; \
	VPAND   Y4, Y1, Y1; \
	VPXOR   Y0, Y1, Y0; \
	VPXOR   Y2, Y3, Y3; \
	VPAND   Y4, Y3, Y3; \
	VPXOR   Y2, Y3, Y2; \
	VMOVDQU off(SI), Y4; \
	VPXOR   Y0, Y2, Y2; \
	VPAND   Y4, Y2, Y2; \
	VPXOR   Y0, Y2, Y0; \
	VMOVDQU Y0, off(DI)

// func rowLop3AVX2(out, x, y, z *regRow, masks *[8]uint32)
TEXT ·rowLop3AVX2(SB), NOSPLIT, $0-40
	MOVQ         out+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         y+16(FP), DX
	MOVQ         z+24(FP), CX
	MOVQ         masks+32(FP), AX
	VPBROADCASTD 0(AX), Y8
	VPBROADCASTD 4(AX), Y9
	VPBROADCASTD 8(AX), Y10
	VPBROADCASTD 12(AX), Y11
	VPBROADCASTD 16(AX), Y12
	VPBROADCASTD 20(AX), Y13
	VPBROADCASTD 24(AX), Y14
	VPBROADCASTD 28(AX), Y15
	LOP3V(0)
	LOP3V(32)
	LOP3V(64)
	LOP3V(96)
	VZEROUPPER
	RET

// SELV blends one vector at byte offset off: the lanes of the predicate mask
// (broadcast in Y14, lane bits in Y13) take SET, the others CLR.
#define SELV(off, SET, CLR) \
	EXPAND(Y6); \
	VPBLENDVB Y6, SET, CLR, Y7; \
	VMOVDQU   Y7, off(DI)

// func rowSelAVX2(out, x, y *regRow, pm uint32)
TEXT ·rowSelAVX2(SB), NOSPLIT, $0-28
	MOVQ         out+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         y+16(FP), DX
	MOVL         pm+24(FP), AX
	VMOVD        AX, X14
	VPBROADCASTD X14, Y14
	VMOVDQU      lanebits<>(SB), Y13
	VMOVDQU      0(SI), Y0
	VMOVDQU      0(DX), Y1
	SELV(0, Y0, Y1)
	VMOVDQU      32(SI), Y0
	VMOVDQU      32(DX), Y1
	SELV(32, Y0, Y1)
	VMOVDQU      64(SI), Y0
	VMOVDQU      64(DX), Y1
	SELV(64, Y0, Y1)
	VMOVDQU      96(SI), Y0
	VMOVDQU      96(DX), Y1
	SELV(96, Y0, Y1)
	VZEROUPPER
	RET

// MNMXV is one vector of an integer min/max: predicate lanes take the
// minimum, the others the maximum.
#define MNMXV(off, MIN, MAX) \
	VMOVDQU off(SI), Y0; \
	VMOVDQU off(DX), Y1; \
	MIN     Y1, Y0, Y2; \
	MAX     Y1, Y0, Y3; \
	SELV(off, Y2, Y3)

// func rowIMnMxSAVX2(out, x, y *regRow, pm uint32)
TEXT ·rowIMnMxSAVX2(SB), NOSPLIT, $0-28
	MOVQ         out+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         y+16(FP), DX
	MOVL         pm+24(FP), AX
	VMOVD        AX, X14
	VPBROADCASTD X14, Y14
	VMOVDQU      lanebits<>(SB), Y13
	MNMXV(0, VPMINSD, VPMAXSD)
	MNMXV(32, VPMINSD, VPMAXSD)
	MNMXV(64, VPMINSD, VPMAXSD)
	MNMXV(96, VPMINSD, VPMAXSD)
	VZEROUPPER
	RET

// func rowIMnMxUAVX2(out, x, y *regRow, pm uint32)
TEXT ·rowIMnMxUAVX2(SB), NOSPLIT, $0-28
	MOVQ         out+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         y+16(FP), DX
	MOVL         pm+24(FP), AX
	VMOVD        AX, X14
	VPBROADCASTD X14, Y14
	VMOVDQU      lanebits<>(SB), Y13
	MNMXV(0, VPMINUD, VPMAXUD)
	MNMXV(32, VPMINUD, VPMAXUD)
	MNMXV(64, VPMINUD, VPMAXUD)
	MNMXV(96, VPMINUD, VPMAXUD)
	VZEROUPPER
	RET

// FMNMXV is one vector of FMNMX under fmin / fmax's rules: VMINPS / VMAXPS
// already return y when x is NaN and on equal (so -0 / +0 order is kept);
// a NaN y returns x, and a NaN x — checked last, so two NaNs return y — y.
#define FMNMXV(off) \
	VMOVDQU   off(SI), Y0; \
	VMOVDQU   off(DX), Y1; \
	VMINPS    Y1, Y0, Y2; \
	VMAXPS    Y1, Y0, Y3; \
	VCMPPS    $3, Y1, Y1, Y4; \
	VCMPPS    $3, Y0, Y0, Y5; \
	VPBLENDVB Y4, Y0, Y2, Y2; \
	VPBLENDVB Y4, Y0, Y3, Y3; \
	VPBLENDVB Y5, Y1, Y2, Y2; \
	VPBLENDVB Y5, Y1, Y3, Y3; \
	SELV(off, Y2, Y3)

// func rowFMnMxAVX2(out, x, y *regRow, pm uint32)
TEXT ·rowFMnMxAVX2(SB), NOSPLIT, $0-28
	MOVQ         out+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         y+16(FP), DX
	MOVL         pm+24(FP), AX
	VMOVD        AX, X14
	VPBROADCASTD X14, Y14
	VMOVDQU      lanebits<>(SB), Y13
	FMNMXV(0)
	FMNMXV(32)
	FMNMXV(64)
	FMNMXV(96)
	VZEROUPPER
	RET

// MOVMASK gathers the sign bits of the 32 compare results in Y0-Y3 into AX,
// lane 0 at bit 0.
#define MOVMASK \
	VMOVMSKPS Y0, AX; \
	VMOVMSKPS Y1, BX; \
	VMOVMSKPS Y2, CX; \
	VMOVMSKPS Y3, R8; \
	SHLL      $8, BX; \
	SHLL      $16, CX; \
	SHLL      $24, R8; \
	ORL       BX, AX; \
	ORL       R8, CX; \
	ORL       CX, AX

// func rowCmpEQAVX2(x, y *regRow) uint32
TEXT ·rowCmpEQAVX2(SB), NOSPLIT, $0-20
	MOVQ x+0(FP), SI
	MOVQ y+8(FP), DX
	LOADX
	OPROW(VPCMPEQD, DX)
	MOVMASK
	MOVL AX, ret+16(FP)
	VZEROUPPER
	RET

// func rowCmpGTSAVX2(x, y *regRow) uint32
TEXT ·rowCmpGTSAVX2(SB), NOSPLIT, $0-20
	MOVQ x+0(FP), SI
	MOVQ y+8(FP), DX
	LOADX
	OPROW(VPCMPGTD, DX)
	MOVMASK
	MOVL AX, ret+16(FP)
	VZEROUPPER
	RET

// func rowCmpGTUAVX2(x, y *regRow) uint32
//
// Unsigned order is signed order with the sign bits flipped.
TEXT ·rowCmpGTUAVX2(SB), NOSPLIT, $0-20
	MOVQ     x+0(FP), SI
	MOVQ     y+8(FP), DX
	VPCMPEQD Y8, Y8, Y8
	VPSLLD   $31, Y8, Y8
	VPXOR    0(DX), Y8, Y4
	VPXOR    32(DX), Y8, Y5
	VPXOR    64(DX), Y8, Y6
	VPXOR    96(DX), Y8, Y7
	LOADX
	OPREG(VPXOR, Y8)
	VPCMPGTD Y4, Y0, Y0
	VPCMPGTD Y5, Y1, Y1
	VPCMPGTD Y6, Y2, Y2
	VPCMPGTD Y7, Y3, Y3
	MOVMASK
	MOVL     AX, ret+16(FP)
	VZEROUPPER
	RET

// FCMPROW compares Y0-Y3 (x) with the row at DX under predicate IMM.
#define FCMPROW(IMM) \
	VCMPPS IMM, 0(DX), Y0, Y0; \
	VCMPPS IMM, 32(DX), Y1, Y1; \
	VCMPPS IMM, 64(DX), Y2, Y2; \
	VCMPPS IMM, 96(DX), Y3, Y3

// The float compares are ordered and quiet: false when either operand is NaN.

// func rowFCmpEQAVX2(x, y *regRow) uint32
TEXT ·rowFCmpEQAVX2(SB), NOSPLIT, $0-20
	MOVQ x+0(FP), SI
	MOVQ y+8(FP), DX
	LOADX
	FCMPROW($0x00)
	MOVMASK
	MOVL AX, ret+16(FP)
	VZEROUPPER
	RET

// func rowFCmpLTAVX2(x, y *regRow) uint32
TEXT ·rowFCmpLTAVX2(SB), NOSPLIT, $0-20
	MOVQ x+0(FP), SI
	MOVQ y+8(FP), DX
	LOADX
	FCMPROW($0x11)
	MOVMASK
	MOVL AX, ret+16(FP)
	VZEROUPPER
	RET

// func rowFCmpLEAVX2(x, y *regRow) uint32
TEXT ·rowFCmpLEAVX2(SB), NOSPLIT, $0-20
	MOVQ x+0(FP), SI
	MOVQ y+8(FP), DX
	LOADX
	FCMPROW($0x12)
	MOVMASK
	MOVL AX, ret+16(FP)
	VZEROUPPER
	RET

// func rowFCmpOrdAVX2(x, y *regRow) uint32
TEXT ·rowFCmpOrdAVX2(SB), NOSPLIT, $0-20
	MOVQ x+0(FP), SI
	MOVQ y+8(FP), DX
	LOADX
	FCMPROW($0x07)
	MOVMASK
	MOVL AX, ret+16(FP)
	VZEROUPPER
	RET

// STRIDEV folds one vector of the unit-stride test into Y5: (addr ^ want) & k,
// then steps the expected addresses in Y4 by eight lanes (Y6).
#define STRIDEV(off) \
	VPXOR  off(SI), Y4, Y0; \
	VPAND  off(DX), Y0, Y0; \
	VPOR   Y0, Y5, Y5; \
	VPADDD Y6, Y4, Y4

// func rowStrideDiffAVX2(addr, k *regRow, want, stride uint32) uint32
//
// Returns nonzero when some lane selected by k has addr[l] != want + l*stride.
TEXT ·rowStrideDiffAVX2(SB), NOSPLIT, $0-28
	MOVQ         addr+0(FP), SI
	MOVQ         k+8(FP), DX
	MOVL         want+16(FP), AX
	VMOVD        AX, X4
	VPBROADCASTD X4, Y4
	MOVL         stride+20(FP), AX
	VMOVD        AX, X6
	VPBROADCASTD X6, Y6
	VPMULLD      laneidx<>(SB), Y6, Y7
	VPADDD       Y7, Y4, Y4 // want + l*stride, l = 0..7
	VPSLLD       $3, Y6, Y6 // 8*stride
	VPXOR        Y5, Y5, Y5
	STRIDEV(0)
	STRIDEV(32)
	STRIDEV(64)
	STRIDEV(96)
	XORL         AX, AX
	VPTEST       Y5, Y5
	SETNE        AX
	MOVL         AX, ret+24(FP)
	VZEROUPPER
	RET

// Masked .32 row moves. win points at the first active lane's word, so lane
// l's word is at win + 4*(l-first): lane 0's address may lie before the
// window, and the last lanes' after it. VPMASKMOVD touches only the bytes of
// lanes whose select word is set (and faults on none of the others); a vector
// with no lane selected is skipped, so no access is issued to an address that
// might not be mapped at all.

// LOADV merges one vector of loaded lanes into dst: dst = k ? mem : dst.
#define LOADV(off, SKIP) \
	VMOVDQU    off(DX), Y1; \
	VPTEST     Y1, Y1; \
	JZ         SKIP; \
	VPMASKMOVD off(SI), Y1, Y0; \
	VMOVDQU    off(DI), Y2; \
	VPBLENDVB  Y1, Y0, Y2, Y0; \
	VMOVDQU    Y0, off(DI)

// func rowLoad32AVX2(dst *regRow, win *byte, first uintptr, k *regRow)
TEXT ·rowLoad32AVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ win+8(FP), SI
	MOVQ first+16(FP), AX
	MOVQ k+24(FP), DX
	SHLQ $2, AX
	SUBQ AX, SI // lane 0's address
	LOADV(0, l1)
l1:
	LOADV(32, l2)
l2:
	LOADV(64, l3)
l3:
	LOADV(96, l4)
l4:
	VZEROUPPER
	RET

#define STOREV(off, SKIP) \
	VMOVDQU    off(DX), Y1; \
	VPTEST     Y1, Y1; \
	JZ         SKIP; \
	VMOVDQU    off(SI), Y0; \
	VPMASKMOVD Y0, Y1, off(DI)

// func rowStore32AVX2(win *byte, first uintptr, src, k *regRow)
TEXT ·rowStore32AVX2(SB), NOSPLIT, $0-32
	MOVQ win+0(FP), DI
	MOVQ first+8(FP), AX
	MOVQ src+16(FP), SI
	MOVQ k+24(FP), DX
	SHLQ $2, AX
	SUBQ AX, DI // lane 0's address
	STOREV(0, s1)
s1:
	STOREV(32, s2)
s2:
	STOREV(64, s3)
s3:
	STOREV(96, s4)
s4:
	VZEROUPPER
	RET

// Masked .64 row moves: lane l's double word is at win + 8*(l-first), its low
// word in lo and its high word in hi. Eight lanes span two vectors of memory;
// a lane's select word, sign-extended to a quadword, selects both its words.
// As for .32, a group of eight lanes with none selected is skipped.

// LOAD64V loads the eight lanes at row offset off (memory offset 2*off),
// splits the double words into their low and high words — VSHUFPS picks the
// even or odd words of each 128-bit half, VPERMQ puts the halves in lane
// order — and merges them into lo (DI) and hi (R8) under k (DX).
#define LOAD64V(off, SKIP) \
	VMOVDQU    off(DX), Y7; \
	VPTEST     Y7, Y7; \
	JZ         SKIP; \
	VPMOVSXDQ  off(DX), Y1; \
	VPMOVSXDQ  (off+16)(DX), Y2; \
	VPMASKMOVD (2*off)(SI), Y1, Y3; \
	VPMASKMOVD (2*off+32)(SI), Y2, Y4; \
	VSHUFPS    $0x88, Y4, Y3, Y5; \
	VSHUFPS    $0xdd, Y4, Y3, Y6; \
	VPERMQ     $0xd8, Y5, Y5; \
	VPERMQ     $0xd8, Y6, Y6; \
	VMOVDQU    off(DI), Y0; \
	VPBLENDVB  Y7, Y5, Y0, Y0; \
	VMOVDQU    Y0, off(DI); \
	VMOVDQU    off(R8), Y0; \
	VPBLENDVB  Y7, Y6, Y0, Y0; \
	VMOVDQU    Y0, off(R8)

// func rowLoad64AVX2(lo, hi *regRow, win *byte, first uintptr, k *regRow)
TEXT ·rowLoad64AVX2(SB), NOSPLIT, $0-40
	MOVQ lo+0(FP), DI
	MOVQ hi+8(FP), R8
	MOVQ win+16(FP), SI
	MOVQ first+24(FP), AX
	MOVQ k+32(FP), DX
	SHLQ $3, AX
	SUBQ AX, SI // lane 0's address
	LOAD64V(0, d1)
d1:
	LOAD64V(32, d2)
d2:
	LOAD64V(64, d3)
d3:
	LOAD64V(96, d4)
d4:
	VZEROUPPER
	RET

// STORE64V interleaves the eight lanes at row offset off of lo (DI) and hi
// (R8) into double words — VPUNPCK pairs them within each 128-bit half,
// VPERM2I128 puts the halves in lane order — and stores them under k (DX)
// to memory offset 2*off.
#define STORE64V(off, SKIP) \
	VMOVDQU    off(DX), Y7; \
	VPTEST     Y7, Y7; \
	JZ         SKIP; \
	VMOVDQU    off(DI), Y0; \
	VMOVDQU    off(R8), Y1; \
	VPUNPCKLDQ Y1, Y0, Y2; \
	VPUNPCKHDQ Y1, Y0, Y3; \
	VPERM2I128 $0x20, Y3, Y2, Y4; \
	VPERM2I128 $0x31, Y3, Y2, Y5; \
	VPMOVSXDQ  off(DX), Y1; \
	VPMOVSXDQ  (off+16)(DX), Y6; \
	VPMASKMOVD Y4, Y1, (2*off)(SI); \
	VPMASKMOVD Y5, Y6, (2*off+32)(SI)

// func rowStore64AVX2(win *byte, first uintptr, lo, hi, k *regRow)
TEXT ·rowStore64AVX2(SB), NOSPLIT, $0-40
	MOVQ win+0(FP), SI
	MOVQ first+8(FP), AX
	MOVQ lo+16(FP), DI
	MOVQ hi+24(FP), R8
	MOVQ k+32(FP), DX
	SHLQ $3, AX
	SUBQ AX, SI // lane 0's address
	STORE64V(0, e1)
e1:
	STORE64V(32, e2)
e2:
	STORE64V(64, e3)
e3:
	STORE64V(96, e4)
e4:
	VZEROUPPER
	RET
