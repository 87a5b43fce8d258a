// AVX2 row-kernel bodies (DESIGN.md section 3.11, "Row kernels"). A row is 32
// uint32 lanes, 128 bytes: four 256-bit vectors. Every body is written once,
// here. The ALU, compare, MUFU and conversion bodies, the MUFU range check
// and the broadcast loads are entered one way only: by the row-program dispatcher
// (rowprog_amd64.s) and its handlers, which find their operands in the
// registers below and blend the result under the exec mask. The utility
// bodies (broadcast, mask expansion, negation, the stride test, the masked
// moves) are entered by the dispatcher and by the Go-callable row*AVX2
// functions of rowops_amd64.s, which load their arguments into those
// registers.
//
// Register convention:
//
//	SI, DX, CX  the x, y and z source rows
//	DI          the destination row; R8 the high row of a .64 load
//	BX          the exec mask's select words (a row: all ones on a lane that
//	            executes, zero elsewhere)
//	AX          a scalar argument: SEL's predicate mask, LOP3's select words
//	SI          a global access: lane 0's address in memory (the first
//	            executing lane's, less its lane times the width); DX and CX
//	            a store's low and high value rows
//	DX          a trig pair: the second op's destination row
//
// A body names no general register outside AX, BX, CX, DX, SI, DI and R8
// (the dispatcher keeps its own state in R9-R13), reads no argument off the
// frame, and has no RET and no VZEROUPPER: whoever entered it returns, and
// the owner of the exit clears the upper halves. Every vector instruction is
// VEX-encoded. An ALU body leaves its result in Y0-Y3 and reads every source
// lane before either epilogue writes one, so the destination may alias any
// source. Operand order is part of the contract for the float bodies: x sits
// in the instruction's first source, whose NaN payload x86 propagates when
// both operands are NaN — what the Go compiler's ADDSS/MULSS x, y does in the
// portable loops.

// LOADX loads the row at SI into Y0-Y3.
#define LOADX \
	VMOVDQU 0(SI), Y0; \
	VMOVDQU 32(SI), Y1; \
	VMOVDQU 64(SI), Y2; \
	VMOVDQU 96(SI), Y3

// STOREOUT stores Y0-Y3 to the row at DI.
#define STOREOUT \
	VMOVDQU Y0, 0(DI); \
	VMOVDQU Y1, 32(DI); \
	VMOVDQU Y2, 64(DI); \
	VMOVDQU Y3, 96(DI)

// COMMIT is STOREOUT under the select words at BX: a selected lane of the row
// at DI takes Y0-Y3, the others keep their value. Under the full mask (BX is
// onesRow) it is STOREOUT. It uses R8, Y14 and Y15. COMMITV blends the vector
// R into byte offset off of the row at D, using Y14 and Y15.
#define COMMITV(off, R, D) \
	VMOVDQU   off(BX), Y14; \
	VMOVDQU   off(D), Y15; \
	VPBLENDVB Y14, R, Y15, R; \
	VMOVDQU   R, off(D)

#define COMMIT \
	LEAQ ·onesRow(SB), R8; \
	CMPQ BX, R8; \
	JEQ  whole; \
	COMMITV(0, Y0, DI); \
	COMMITV(32, Y1, DI); \
	COMMITV(64, Y2, DI); \
	COMMITV(96, Y3, DI); \
	JMP  committed; \
whole: \
	STOREOUT; \
committed:

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

// BROADCAST fills the row at R with the low word of V.
#define BROADCAST(V, R) \
	VMOVD        V, X0; \
	VPBROADCASTD X0, Y0; \
	VMOVDQU      Y0, 0(R); \
	VMOVDQU      Y0, 32(R); \
	VMOVDQU      Y0, 64(R); \
	VMOVDQU      Y0, 96(R)

// EXPAND turns the lane mask broadcast in Y14 into the select words of the
// next eight lanes in M, and advances the lane bits in Y13 by eight lanes.
#define EXPAND(M) \
	VPAND    Y13, Y14, M; \
	VPCMPEQD Y13, M, M; \
	VPSLLD   $8, Y13, Y13

// EXPANDMASK writes the select words of the lane mask M to the row at K.
#define EXPANDMASK(M, K) \
	VMOVD        M, X14; \
	VPBROADCASTD X14, Y14; \
	VMOVDQU      ·eqMaskRow(SB), Y13; \
	EXPAND(Y0); \
	EXPAND(Y1); \
	EXPAND(Y2); \
	EXPAND(Y3); \
	VMOVDQU      Y0, 0(K); \
	VMOVDQU      Y1, 32(K); \
	VMOVDQU      Y2, 64(K); \
	VMOVDQU      Y3, 96(K)

// NEGINT and NEGFLOAT write the row at S, negated, to the row at D: two's
// complement, and the sign bit flipped.
#define NEGINT(S, D) \
	VPXOR   Y4, Y4, Y4; \
	VPSUBD  0(S), Y4, Y0; \
	VPSUBD  32(S), Y4, Y1; \
	VPSUBD  64(S), Y4, Y2; \
	VPSUBD  96(S), Y4, Y3; \
	VMOVDQU Y0, 0(D); \
	VMOVDQU Y1, 32(D); \
	VMOVDQU Y2, 64(D); \
	VMOVDQU Y3, 96(D)

#define NEGFLOAT(S, D) \
	VPCMPEQD Y4, Y4, Y4; \
	VPSLLD   $31, Y4, Y4; \
	VPXOR    0(S), Y4, Y0; \
	VPXOR    32(S), Y4, Y1; \
	VPXOR    64(S), Y4, Y2; \
	VPXOR    96(S), Y4, Y3; \
	VMOVDQU  Y0, 0(D); \
	VMOVDQU  Y1, 32(D); \
	VMOVDQU  Y2, 64(D); \
	VMOVDQU  Y3, 96(D)

// BINROW is a two-source lane-wise op: x OP y. The variable shifts saturate
// the way Go's do: a count of 32 or more shifts everything out, sign-filling
// for the arithmetic one.
#define BINROW(OP) \
	LOADX; \
	OPROW(OP, DX)

// TERNROW is (x OP1 y) OP2 z: IMAD's low word, IADD3.
#define TERNROW(OP1, OP2) \
	LOADX; \
	OPROW(OP1, DX); \
	OPROW(OP2, CX)

// LEA is x<<(z&31) + y.
#define LEA \
	VPCMPEQD Y8, Y8, Y8; \
	VPSRLD   $27, Y8, Y8; \
	VPAND    0(CX), Y8, Y4; \
	VPAND    32(CX), Y8, Y5; \
	VPAND    64(CX), Y8, Y6; \
	VPAND    96(CX), Y8, Y7; \
	LOADX; \
	VPSLLVD  Y4, Y0, Y0; \
	VPSLLVD  Y5, Y1, Y1; \
	VPSLLVD  Y6, Y2, Y2; \
	VPSLLVD  Y7, Y3, Y3; \
	OPROW(VPADDD, DX)

// FFMA4 computes four lanes at byte offset off into X: widen to float64,
// multiply (exact: 24+24 significand bits), add (one rounding), narrow (a
// second) — float32(float64(x)*float64(y) + float64(z)), not a fused
// multiply-add. FFMA8 joins two of them into the vector R.
#define FFMA4(off, X) \
	VCVTPS2PD  off(SI), Y4; \
	VCVTPS2PD  off(DX), Y5; \
	VCVTPS2PD  off(CX), Y6; \
	VMULPD     Y5, Y4, Y4; \
	VADDPD     Y6, Y4, Y4; \
	VCVTPD2PSY Y4, X

#define FFMA8(off, X, R) \
	FFMA4(off, X); \
	FFMA4((off+16), X7); \
	VINSERTI128 $1, X7, R, R

#define FFMA \
	FFMA8(0, X0, Y0); \
	FFMA8(32, X1, Y1); \
	FFMA8(64, X2, Y2); \
	FFMA8(96, X3, Y3)

// The MUFU bodies: float32(f(float64(x))) four lanes at a time, exactly the
// interpreter's mufu. VCVTPS2PD widens as Go's float64(float32) does (exact,
// quieting a signalling NaN), VDIVPD, VSQRTPD, VMULPD, VADDPD and VSUBPD round
// as the scalar DIVSD, SQRTSD, MULSD, ADDSD and SUBSD of compiled Go do (Go's
// amd64 backend fuses no multiply-add it is not asked to), and VCVTPD2PS
// narrows as float32(float64) does. Each 4-lane body F4(off, X) reads x's four
// lanes at byte offset off of the row at SI, leaves the result in X and uses
// Y4-Y13; MUFUROW joins eight of them into Y0-Y3 through Y15. MC(k) is the
// vector of constant k of mufuConsts.
#define MC(k) ·mufuConsts+((k)*32)(SB)

#define MUFUROW(F4) \
	F4(0, X0); \
	F4(16, X15); \
	VINSERTI128 $1, X15, Y0, Y0; \
	F4(32, X1); \
	F4(48, X15); \
	VINSERTI128 $1, X15, Y1, Y1; \
	F4(64, X2); \
	F4(80, X15); \
	VINSERTI128 $1, X15, Y2, Y2; \
	F4(96, X3); \
	F4(112, X15); \
	VINSERTI128 $1, X15, Y3, Y3

// RCP4 is 1/x, RSQ4 1/sqrt(x), SQRT4 sqrt(x).
#define RCP4(off, X) \
	VCVTPS2PD  off(SI), Y5; \
	VMOVUPD    MC(const_mcOne), Y4; \
	VDIVPD     Y5, Y4, Y5; \
	VCVTPD2PSY Y5, X

#define RSQ4(off, X) \
	VCVTPS2PD  off(SI), Y5; \
	VSQRTPD    Y5, Y5; \
	VMOVUPD    MC(const_mcOne), Y4; \
	VDIVPD     Y5, Y4, Y5; \
	VCVTPD2PSY Y5, X

#define SQRT4(off, X) \
	VCVTPS2PD  off(SI), Y5; \
	VSQRTPD    Y5, Y5; \
	VCVTPD2PSY Y5, X

// SIN4 and COS4 replay math/sin.go's sin and cos for arguments below
// reduceThreshold (2^29), NaN and ±Inf excluded: the dispatcher checks that
// (TRIGRANGE) before it runs the handler. TRIGREDUCE4 is the shared head:
// Y4 = x; Y5 = |x|; X7 = j = trunc(|x|·(4/π)) (VCVTTPD2DQ: |x|·(4/π) < 2^31),
// odd j bumped to the next even one, whose bits 1 and 2 are all the octant
// rules read (j&7 drops none of them); Y10 = y = float64(j); Y8 = z =
// ((|x| − y·PI4A) − y·PI4B) − y·PI4C; Y9 = zz = z·z.
#define TRIGREDUCE4(off) \
	VCVTPS2PD   off(SI), Y4; \
	VANDPD      MC(const_mcAbs), Y4, Y5; \
	VMULPD      MC(const_mcFourOverPi), Y5, Y7; \
	VCVTTPD2DQY Y7, X7; \
	VPSLLD      $31, X7, X10; \
	VPSRLD      $31, X10, X10; \
	VPADDD      X10, X7, X7; \
	VCVTDQ2PD   X7, Y10; \
	VMULPD      MC(const_mcPi4A), Y10, Y11; \
	VSUBPD      Y11, Y5, Y8; \
	VMULPD      MC(const_mcPi4B), Y10, Y11; \
	VSUBPD      Y11, Y8, Y8; \
	VMULPD      MC(const_mcPi4C), Y10, Y11; \
	VSUBPD      Y11, Y8, Y8; \
	VMULPD      Y8, Y8, Y9

// TRIGPOLY4 evaluates both polynomials in Go's association:
// Y10 = z + z·zz·((((((s0·zz)+s1)·zz+s2)·zz+s3)·zz+s4)·zz+s5) and
// Y11 = 1 − 0.5·zz + zz·zz·((((((c0·zz)+c1)·zz+c2)·zz+c3)·zz+c4)·zz+c5).
#define TRIGPOLY4 \
	VMULPD MC(const_mcSin0), Y9, Y10; \
	VADDPD MC(const_mcSin0+1), Y10, Y10; \
	VMULPD Y9, Y10, Y10; \
	VADDPD MC(const_mcSin0+2), Y10, Y10; \
	VMULPD Y9, Y10, Y10; \
	VADDPD MC(const_mcSin0+3), Y10, Y10; \
	VMULPD Y9, Y10, Y10; \
	VADDPD MC(const_mcSin0+4), Y10, Y10; \
	VMULPD Y9, Y10, Y10; \
	VADDPD MC(const_mcSin0+5), Y10, Y10; \
	VMULPD Y9, Y8, Y11; \
	VMULPD Y10, Y11, Y11; \
	VADDPD Y11, Y8, Y10; \
	VMULPD MC(const_mcCos0), Y9, Y11; \
	VADDPD MC(const_mcCos0+1), Y11, Y11; \
	VMULPD Y9, Y11, Y11; \
	VADDPD MC(const_mcCos0+2), Y11, Y11; \
	VMULPD Y9, Y11, Y11; \
	VADDPD MC(const_mcCos0+3), Y11, Y11; \
	VMULPD Y9, Y11, Y11; \
	VADDPD MC(const_mcCos0+4), Y11, Y11; \
	VMULPD Y9, Y11, Y11; \
	VADDPD MC(const_mcCos0+5), Y11, Y11; \
	VMULPD Y9, Y9, Y12; \
	VMULPD Y11, Y12, Y12; \
	VMULPD MC(const_mcHalf), Y9, Y11; \
	VMOVUPD MC(const_mcOne), Y13; \
	VSUBPD Y11, Y13, Y11; \
	VADDPD Y12, Y11, Y11

// OCTANTBIT sign-extends bit B of the 32-bit lanes in XS into the 64-bit
// lanes of Y12: all ones where it is set, the blend and sign mask of a lane.
#define OCTANTBIT(B, XS) \
	VPSLLD    $(31-B), XS, X12; \
	VPMOVSXDQ X12, Y12

// SINOCT and COSOCT finish SIN and COS after TRIGREDUCE4 and TRIGPOLY4: each
// picks its octant's polynomial and sign in Y6 and narrows it into X. Neither
// writes what the other reads (Y4, X7, Y10, Y11), so a pair runs both on one
// reduction. SIN: octants with j&2 take the cosine polynomial; the sign is
// x's, flipped when j&4 (a sin(−x) = −sin(x) folded with Go's reflection in
// the x axis); ±0 comes out as itself, as Go's early return gives it. COS:
// octants with j&2 take the sine polynomial; the sign flips when exactly one
// of j&4 and j&2 is set.
#define SINOCT(X) \
	OCTANTBIT(1, X7); \
	VBLENDVPD  Y12, Y11, Y10, Y6; \
	OCTANTBIT(2, X7); \
	VXORPD     Y4, Y12, Y12; \
	VANDPD     MC(const_mcSign), Y12, Y12; \
	VXORPD     Y12, Y6, Y6; \
	VCVTPD2PSY Y6, X

#define COSOCT(X) \
	OCTANTBIT(1, X7); \
	VBLENDVPD  Y12, Y10, Y11, Y6; \
	VPSRLD     $1, X7, X13; \
	VPXOR      X7, X13, X13; \
	OCTANTBIT(1, X13); \
	VANDPD     MC(const_mcSign), Y12, Y12; \
	VXORPD     Y12, Y6, Y6; \
	VCVTPD2PSY Y6, X

#define SIN4(off, X) \
	TRIGREDUCE4(off); \
	TRIGPOLY4; \
	SINOCT(X)

#define COS4(off, X) \
	TRIGREDUCE4(off); \
	TRIGPOLY4; \
	COSOCT(X)

// SINCOSV is a trig pair's pass over the eight lanes at byte offset off: one
// reduction and one evaluation of both polynomials per four lanes, the sine
// in Y0 and the cosine in Y1, the first op's result (FIRST) stored by STORE
// into the row at DI and then the second's (SECOND) into the row at DX —
// program order, so a second destination equal to the first wins. The lanes
// are read before either row is written, and the first destination is not
// the source, so a second destination that is passes too. STORE is COMMITV,
// which blends under the select words, or WHOLEV, which stores whole: what
// COMMIT does under a partial and under the full mask. SINCOS runs the pass
// over the whole row.
#define SINCOSV(off, FIRST, SECOND, STORE) \
	TRIGREDUCE4(off); \
	TRIGPOLY4; \
	SINOCT(X0); \
	COSOCT(X1); \
	TRIGREDUCE4((off+16)); \
	TRIGPOLY4; \
	SINOCT(X14); \
	COSOCT(X15); \
	VINSERTI128 $1, X14, Y0, Y0; \
	VINSERTI128 $1, X15, Y1, Y1; \
	STORE(off, FIRST, DI); \
	STORE(off, SECOND, DX)

#define WHOLEV(off, R, D) \
	VMOVDQU R, off(D)

#define SINCOS(FIRST, SECOND, STORE) \
	SINCOSV(0, FIRST, SECOND, STORE); \
	SINCOSV(32, FIRST, SECOND, STORE); \
	SINCOSV(64, FIRST, SECOND, STORE); \
	SINCOSV(96, FIRST, SECOND, STORE)

// The integer-float conversions, exactly rowCvt's. I2F: VCVTDQ2PS rounds to
// nearest even, as float32(int32) does. I2F.U32: the word, its sign bit
// flipped, is a signed integer 2^31 below it; widened to a double and 2^31
// added back it is exact, and VCVTPD2PS rounds it once, as float32(uint32)
// does (I2FU4 four lanes into X, with the flip in Y6 and 2^31 in Y7).
#define I2F \
	VCVTDQ2PS 0(SI), Y0; \
	VCVTDQ2PS 32(SI), Y1; \
	VCVTDQ2PS 64(SI), Y2; \
	VCVTDQ2PS 96(SI), Y3

#define I2FU4(off, X) \
	VPXOR      off(SI), X6, X4; \
	VCVTDQ2PD  X4, Y4; \
	VADDPD     Y7, Y4, Y4; \
	VCVTPD2PSY Y4, X

#define I2FU \
	VPCMPEQD     Y6, Y6, Y6; \
	VPSLLD       $31, Y6, Y6; \
	MOVQ         $0x41e0000000000000, AX; \
	VMOVQ        AX, X7; \
	VPBROADCASTQ X7, Y7; \
	MUFUROW(I2FU4)

// F2I truncates (VCVTTPS2DQ), which gives 0x80000000 for NaN and for every x
// outside the int32 range, as f2i does for x ≤ −2^31; the words of x ≥ 2^31
// are flipped to 0x7fffffff and those of NaN cleared. Y6 holds 2^31 as a
// float.
#define F2IV(off, R) \
	VMOVDQU    off(SI), Y4; \
	VCVTTPS2DQ Y4, R; \
	VCMPPS     $0x1d, Y6, Y4, Y5; \
	VPXOR      Y5, R, R; \
	VCMPPS     $0x07, Y4, Y4, Y5; \
	VPAND      Y5, R, R

#define F2I \
	MOVL         $0x4f000000, AX; \
	VMOVD        AX, X6; \
	VPBROADCASTD X6, Y6; \
	F2IV(0, Y0); \
	F2IV(32, Y1); \
	F2IV(64, Y2); \
	F2IV(96, Y3)

// F2I.U32: x below 2^31 truncates as F2I; x in [2^31, 2^32) is x − 2^31
// (exact) truncated, its sign bit set; x ≥ 2^32 gives 0xffffffff, and x ≤ 0
// (a truncation to zero or below) and NaN give 0 — f2i's unsigned rules. Y6
// holds 2^31 and Y7 2^32 as floats, Y8 the sign bits, Y9 zero.
#define F2IUV(off, R) \
	VMOVDQU    off(SI), Y4; \
	VCVTTPS2DQ Y4, R; \
	VSUBPS     Y6, Y4, Y5; \
	VCVTTPS2DQ Y5, Y5; \
	VPXOR      Y8, Y5, Y5; \
	VCMPPS     $0x1d, Y6, Y4, Y10; \
	VPBLENDVB  Y10, Y5, R, R; \
	VCMPPS     $0x1d, Y7, Y4, Y10; \
	VPOR       Y10, R, R; \
	VCMPPS     $0x1e, Y9, Y4, Y10; \
	VPAND      Y10, R, R

#define F2IU \
	MOVL         $0x4f000000, AX; \
	VMOVD        AX, X6; \
	VPBROADCASTD X6, Y6; \
	MOVL         $0x4f800000, AX; \
	VMOVD        AX, X7; \
	VPBROADCASTD X7, Y7; \
	VPCMPEQD     Y8, Y8, Y8; \
	VPSLLD       $31, Y8, Y8; \
	VPXOR        Y9, Y9, Y9; \
	F2IUV(0, Y0); \
	F2IUV(32, Y1); \
	F2IUV(64, Y2); \
	F2IUV(96, Y3)

// TRIGRANGE leaves Y5 nonzero when some lane selected by the row at BX has an
// x (the row at SI) SIN4 and COS4 do not cover: |x| ≥ 2^29, ±Inf or NaN — a
// float32 whose bits, sign cleared, exceed 0x4dffffff. It uses AX.
#define TRIGRANGEV(off) \
	VPAND    off(SI), Y6, Y0; \
	VPCMPGTD Y7, Y0, Y0; \
	VPAND    off(BX), Y0, Y0; \
	VPOR     Y0, Y5, Y5

#define TRIGRANGE \
	VPCMPEQD     Y6, Y6, Y6; \
	VPSRLD       $1, Y6, Y6; \
	MOVL         $0x4dffffff, AX; \
	VMOVD        AX, X7; \
	VPBROADCASTD X7, Y7; \
	VPXOR        Y5, Y5, Y5; \
	TRIGRANGEV(0); \
	TRIGRANGEV(32); \
	TRIGRANGEV(64); \
	TRIGRANGEV(96)

// LOP3V evaluates the truth table on one vector at byte offset off into OUT.
// Y8-Y15 hold the table's eight select words m0..m7 broadcast (bit index x<<2
// | y<<1 | z). A three-level mux: z picks within each pair, then y, then x;
// "c ? b : a" is a ^ (c & (a ^ b)). It uses Y0-Y4, so OUT is Y5-Y7 or, for the
// last vector, one of those.
#define LOP3V(off, OUT) \
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
	VPXOR   Y0, Y2, OUT

// LOP3 applies the truth table whose select words AX points at.
#define LOP3 \
	VPBROADCASTD 0(AX), Y8; \
	VPBROADCASTD 4(AX), Y9; \
	VPBROADCASTD 8(AX), Y10; \
	VPBROADCASTD 12(AX), Y11; \
	VPBROADCASTD 16(AX), Y12; \
	VPBROADCASTD 20(AX), Y13; \
	VPBROADCASTD 24(AX), Y14; \
	VPBROADCASTD 28(AX), Y15; \
	LOP3V(0, Y5); \
	LOP3V(32, Y6); \
	LOP3V(64, Y7); \
	LOP3V(96, Y3); \
	VMOVDQU      Y5, Y0; \
	VMOVDQU      Y6, Y1; \
	VMOVDQU      Y7, Y2

// SELV blends one vector into OUT: the lanes of the predicate mask (broadcast
// in Y14, lane bits in Y13) take SET, the others CLR. PREDMASK sets those two
// up from AX.
#define SELV(SET, CLR, OUT) \
	EXPAND(Y6); \
	VPBLENDVB Y6, SET, CLR, OUT

#define PREDMASK \
	VMOVD        AX, X14; \
	VPBROADCASTD X14, Y14; \
	VMOVDQU      ·eqMaskRow(SB), Y13

// SEL: the predicate lanes take x, the others y.
#define SELXV(off, OUT) \
	VMOVDQU off(SI), Y4; \
	VMOVDQU off(DX), Y5; \
	SELV(Y4, Y5, OUT)

#define SEL \
	PREDMASK; \
	SELXV(0, Y0); \
	SELXV(32, Y1); \
	SELXV(64, Y2); \
	SELXV(96, Y3)

// MNMXV is one vector of an integer min/max: predicate lanes take the
// minimum, the others the maximum.
#define MNMXV(off, MIN, MAX, OUT) \
	VMOVDQU off(SI), Y4; \
	VMOVDQU off(DX), Y5; \
	MIN     Y5, Y4, Y7; \
	MAX     Y5, Y4, Y8; \
	SELV(Y7, Y8, OUT)

#define MNMX(MIN, MAX) \
	PREDMASK; \
	MNMXV(0, MIN, MAX, Y0); \
	MNMXV(32, MIN, MAX, Y1); \
	MNMXV(64, MIN, MAX, Y2); \
	MNMXV(96, MIN, MAX, Y3)

// FMNMXV is one vector of FMNMX under fmin / fmax's rules: VMINPS / VMAXPS
// already return y when x is NaN and on equal (so -0 / +0 order is kept);
// a NaN y returns x, and a NaN x — checked last, so two NaNs return y — y.
#define FMNMXV(off, OUT) \
	VMOVDQU   off(SI), Y4; \
	VMOVDQU   off(DX), Y5; \
	VMINPS    Y5, Y4, Y7; \
	VMAXPS    Y5, Y4, Y8; \
	VCMPPS    $3, Y5, Y5, Y9; \
	VCMPPS    $3, Y4, Y4, Y10; \
	VPBLENDVB Y9, Y4, Y7, Y7; \
	VPBLENDVB Y9, Y4, Y8, Y8; \
	VPBLENDVB Y10, Y5, Y7, Y7; \
	VPBLENDVB Y10, Y5, Y8, Y8; \
	SELV(Y7, Y8, OUT)

#define FMNMX \
	PREDMASK; \
	FMNMXV(0, Y0); \
	FMNMXV(32, Y1); \
	FMNMXV(64, Y2); \
	FMNMXV(96, Y3)

// MOVMASK gathers the sign bits of the 32 compare results in Y0-Y3 into CX,
// lane 0 at bit 0, using R8.
#define MOVMASK \
	VMOVMSKPS Y0, CX; \
	VMOVMSKPS Y1, R8; \
	SHLL      $8, R8; \
	ORL       R8, CX; \
	VMOVMSKPS Y2, R8; \
	SHLL      $16, R8; \
	ORL       R8, CX; \
	VMOVMSKPS Y3, R8; \
	SHLL      $24, R8; \
	ORL       R8, CX

// The compares leave a lane mask in CX. CMPROW(OP) is x OP y: equality and
// signed greater-than.
#define CMPROW(OP) \
	LOADX; \
	OPROW(OP, DX); \
	MOVMASK

// CMPGTU: unsigned order is signed order with the sign bits flipped.
#define CMPGTU \
	VPCMPEQD Y8, Y8, Y8; \
	VPSLLD   $31, Y8, Y8; \
	VPXOR    0(DX), Y8, Y4; \
	VPXOR    32(DX), Y8, Y5; \
	VPXOR    64(DX), Y8, Y6; \
	VPXOR    96(DX), Y8, Y7; \
	LOADX; \
	OPREG(VPXOR, Y8); \
	VPCMPGTD Y4, Y0, Y0; \
	VPCMPGTD Y5, Y1, Y1; \
	VPCMPGTD Y6, Y2, Y2; \
	VPCMPGTD Y7, Y3, Y3; \
	MOVMASK

// FCMP compares x with y under predicate IMM. The float compares are ordered
// and quiet: false when either operand is NaN.
#define FCMP(IMM) \
	LOADX; \
	VCMPPS IMM, 0(DX), Y0, Y0; \
	VCMPPS IMM, 32(DX), Y1, Y1; \
	VCMPPS IMM, 64(DX), Y2, Y2; \
	VCMPPS IMM, 96(DX), Y3, Y3; \
	MOVMASK

// STRIDEDIFF leaves Y5 nonzero when some lane selected by the row at K has
// an address (the row at ADDR) other than WANT + lane*STRIDE. STRIDEV folds
// one vector: (addr ^ want) & k, then steps the expected addresses in Y4 by
// eight lanes (Y6).
#define STRIDEV(ADDR, K, off) \
	VPXOR  off(ADDR), Y4, Y0; \
	VPAND  off(K), Y0, Y0; \
	VPOR   Y0, Y5, Y5; \
	VPADDD Y6, Y4, Y4

#define STRIDEDIFF(ADDR, K, WANT, STRIDE) \
	VMOVD        WANT, X4; \
	VPBROADCASTD X4, Y4; \
	VMOVD        STRIDE, X6; \
	VPBROADCASTD X6, Y6; \
	VPMULLD      ·laneIDRow(SB), Y6, Y7; \
	VPADDD       Y7, Y4, Y4; \
	VPSLLD       $3, Y6, Y6; \
	VPXOR        Y5, Y5, Y5; \
	STRIDEV(ADDR, K, 0); \
	STRIDEV(ADDR, K, 32); \
	STRIDEV(ADDR, K, 64); \
	STRIDEV(ADDR, K, 96)

// Masked .32 row moves between memory at SI (lane 0's word; lane l's is 4*l
// past it, so the first lanes' addresses may lie before the page and the
// last lanes' after it) and a register row. VPMASKMOVD touches only the bytes
// of lanes whose select word is set (and faults on none of the others); a
// vector with no lane selected is skipped, so no access is issued to an
// address that might not be mapped at all. A load merges into DI itself:
// dst = k ? mem : dst.
#define LOADV(off, SKIP) \
	VMOVDQU    off(BX), Y1; \
	VPTEST     Y1, Y1; \
	JZ         SKIP; \
	VPMASKMOVD off(SI), Y1, Y0; \
	VMOVDQU    off(DI), Y2; \
	VPBLENDVB  Y1, Y0, Y2, Y0; \
	VMOVDQU    Y0, off(DI); \
SKIP:

#define LOAD32 \
	LOADV(0, l1); \
	LOADV(32, l2); \
	LOADV(64, l3); \
	LOADV(96, l4)

// STOREV stores one vector of the row at DX.
#define STOREV(off, SKIP) \
	VMOVDQU    off(BX), Y1; \
	VPTEST     Y1, Y1; \
	JZ         SKIP; \
	VMOVDQU    off(DX), Y0; \
	VPMASKMOVD Y0, Y1, off(SI); \
SKIP:

#define STORE32 \
	STOREV(0, s1); \
	STOREV(32, s2); \
	STOREV(64, s3); \
	STOREV(96, s4)

// The broadcast loads: every executing lane reads the word (LOADU32) or
// double word (LOADU64) at SI — one read, broadcast, blended into the row at
// DI (and for .64 the high words into the row at R8) under the select words.
#define BCASTV(off, R) \
	VMOVDQU   off(BX), Y1; \
	VMOVDQU   off(R), Y2; \
	VPBLENDVB Y1, Y0, Y2, Y2; \
	VMOVDQU   Y2, off(R)

#define BCAST(woff, R) \
	VPBROADCASTD woff(SI), Y0; \
	BCASTV(0, R); \
	BCASTV(32, R); \
	BCASTV(64, R); \
	BCASTV(96, R)

#define LOADU32 \
	BCAST(0, DI)

#define LOADU64 \
	BCAST(0, DI); \
	BCAST(4, R8)

// Masked .64 row moves: lane l's double word is 8*l past SI, its low word in
// one row and its high word in another. Eight lanes span two vectors of
// memory; a lane's select word, sign-extended to a quadword, selects both its
// words. As for .32, a group of eight lanes with none selected is skipped.

// LOAD64V loads the eight lanes at row offset off (memory offset 2*off),
// splits the double words into their low and high words — VSHUFPS picks the
// even or odd words of each 128-bit half, VPERMQ puts the halves in lane
// order — and merges them into lo (DI) and hi (R8) under k (BX).
#define LOAD64V(off, SKIP) \
	VMOVDQU    off(BX), Y7; \
	VPTEST     Y7, Y7; \
	JZ         SKIP; \
	VPMOVSXDQ  off(BX), Y1; \
	VPMOVSXDQ  (off+16)(BX), Y2; \
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
	VMOVDQU    Y0, off(R8); \
SKIP:

#define LOAD64 \
	LOAD64V(0, d1); \
	LOAD64V(32, d2); \
	LOAD64V(64, d3); \
	LOAD64V(96, d4)

// STORE64V interleaves the eight lanes at row offset off of lo (DX) and hi
// (CX) into double words — VPUNPCK pairs them within each 128-bit half,
// VPERM2I128 puts the halves in lane order — and stores them under k (BX) to
// memory offset 2*off.
#define STORE64V(off, SKIP) \
	VMOVDQU    off(BX), Y7; \
	VPTEST     Y7, Y7; \
	JZ         SKIP; \
	VMOVDQU    off(DX), Y0; \
	VMOVDQU    off(CX), Y1; \
	VPUNPCKLDQ Y1, Y0, Y2; \
	VPUNPCKHDQ Y1, Y0, Y3; \
	VPERM2I128 $0x20, Y3, Y2, Y4; \
	VPERM2I128 $0x31, Y3, Y2, Y5; \
	VPMOVSXDQ  off(BX), Y1; \
	VPMOVSXDQ  (off+16)(BX), Y6; \
	VPMASKMOVD Y4, Y1, (2*off)(SI); \
	VPMASKMOVD Y5, Y6, (2*off+32)(SI); \
SKIP:

#define STORE64 \
	STORE64V(0, e1); \
	STORE64V(32, e2); \
	STORE64V(64, e3); \
	STORE64V(96, e4)
