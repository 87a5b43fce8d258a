//go:build amd64 && !purego

#include "textflag.h"
#include "rowops_amd64.h"

// The Go-callable AVX2 row kernels (DESIGN.md section 3.11, "Row kernels").
// Each loads its arguments into the registers of rowops_amd64.h's convention,
// runs the body written there — the body the row-program dispatcher's
// handlers run too — and stores the result whole: the portable executor
// merges it under a partial mask itself. Rules every function here keeps,
// checked by TestRowAsmHygiene:
//
//   - every vector instruction is VEX-encoded — one legacy-SSE instruction
//     with dirty upper halves costs a state transition per call;
//   - VZEROUPPER before every RET of a function that touched a Y register,
//     so the Go code that follows (legacy-SSE scalar floats) pays none either;
//   - every TEXT symbol is written out, with its arguments loaded by name in
//     its own body, so go vet's asmdecl checks names, offsets and frame sizes.
//     Macros hold register-only bodies.

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

// func ymmUpperInUse() (inUse, ok bool)
//
// Reports whether the upper halves of the YMM registers are out of their
// initial state (XGETBV with ECX=1, XINUSE bit 2), when the processor can
// tell (CPUID leaf 0xD, subleaf 1, EAX bit 2): what a missing VZEROUPPER
// leaves behind.
TEXT ·ymmUpperInUse(SB), NOSPLIT, $0-2
	MOVB  $0, inUse+0(FP)
	MOVB  $0, ok+1(FP)
	MOVL  $0xd, AX
	MOVL  $1, CX
	CPUID
	TESTL $4, AX
	JZ    done
	MOVL  $1, CX
	XGETBV
	MOVB  $1, ok+1(FP)
	SHRL  $2, AX
	ANDL  $1, AX
	MOVB  AX, inUse+0(FP)
done:
	RET

// func rowBroadcastAVX2(r *regRow, v uint32)
TEXT ·rowBroadcastAVX2(SB), NOSPLIT, $0-12
	MOVQ r+0(FP), DI
	MOVL v+8(FP), AX
	BROADCAST(AX, DI)
	VZEROUPPER
	RET

// func rowExpandMaskAVX2(k *regRow, m uint32)
TEXT ·rowExpandMaskAVX2(SB), NOSPLIT, $0-12
	MOVQ k+0(FP), DI
	MOVL m+8(FP), AX
	EXPANDMASK(AX, DI)
	VZEROUPPER
	RET

// func rowMergeAVX2(dst, src, k *regRow)
//
// The portable executor's merge: the move's body under the select words.
TEXT ·rowMergeAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ k+16(FP), BX
	LOADX
	COMMIT
	VZEROUPPER
	RET

// func rowNegIntAVX2(out, x *regRow)
TEXT ·rowNegIntAVX2(SB), NOSPLIT, $0-16
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), SI
	NEGINT(SI, DI)
	VZEROUPPER
	RET

// func rowNegFloatAVX2(out, x *regRow)
TEXT ·rowNegFloatAVX2(SB), NOSPLIT, $0-16
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), SI
	NEGFLOAT(SI, DI)
	VZEROUPPER
	RET

// func rowAddAVX2(out, x, y *regRow)
TEXT ·rowAddAVX2(SB), NOSPLIT, $0-24
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	BINROW(VPADDD)
	STOREOUT
	VZEROUPPER
	RET

// func rowMulAVX2(out, x, y *regRow)
TEXT ·rowMulAVX2(SB), NOSPLIT, $0-24
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	BINROW(VPMULLD)
	STOREOUT
	VZEROUPPER
	RET

// func rowAndAVX2(out, x, y *regRow)
TEXT ·rowAndAVX2(SB), NOSPLIT, $0-24
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	BINROW(VPAND)
	STOREOUT
	VZEROUPPER
	RET

// func rowOrAVX2(out, x, y *regRow)
TEXT ·rowOrAVX2(SB), NOSPLIT, $0-24
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	BINROW(VPOR)
	STOREOUT
	VZEROUPPER
	RET

// func rowXorAVX2(out, x, y *regRow)
TEXT ·rowXorAVX2(SB), NOSPLIT, $0-24
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	BINROW(VPXOR)
	STOREOUT
	VZEROUPPER
	RET

// func rowShlAVX2(out, x, y *regRow)
TEXT ·rowShlAVX2(SB), NOSPLIT, $0-24
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	BINROW(VPSLLVD)
	STOREOUT
	VZEROUPPER
	RET

// func rowShrAVX2(out, x, y *regRow)
TEXT ·rowShrAVX2(SB), NOSPLIT, $0-24
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	BINROW(VPSRLVD)
	STOREOUT
	VZEROUPPER
	RET

// func rowSarAVX2(out, x, y *regRow)
TEXT ·rowSarAVX2(SB), NOSPLIT, $0-24
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	BINROW(VPSRAVD)
	STOREOUT
	VZEROUPPER
	RET

// func rowFAddAVX2(out, x, y *regRow)
TEXT ·rowFAddAVX2(SB), NOSPLIT, $0-24
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	BINROW(VADDPS)
	STOREOUT
	VZEROUPPER
	RET

// func rowFMulAVX2(out, x, y *regRow)
TEXT ·rowFMulAVX2(SB), NOSPLIT, $0-24
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	BINROW(VMULPS)
	STOREOUT
	VZEROUPPER
	RET

// func rowIMadAVX2(out, x, y, z *regRow)
TEXT ·rowIMadAVX2(SB), NOSPLIT, $0-32
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	MOVQ z+24(FP), CX
	TERNROW(VPMULLD, VPADDD)
	STOREOUT
	VZEROUPPER
	RET

// func rowIAdd3AVX2(out, x, y, z *regRow)
TEXT ·rowIAdd3AVX2(SB), NOSPLIT, $0-32
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	MOVQ z+24(FP), CX
	TERNROW(VPADDD, VPADDD)
	STOREOUT
	VZEROUPPER
	RET

// func rowLeaAVX2(out, x, y, z *regRow)
TEXT ·rowLeaAVX2(SB), NOSPLIT, $0-32
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	MOVQ z+24(FP), CX
	LEA
	STOREOUT
	VZEROUPPER
	RET

// func rowFFmaAVX2(out, x, y, z *regRow)
TEXT ·rowFFmaAVX2(SB), NOSPLIT, $0-32
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	MOVQ z+24(FP), CX
	FFMA
	STOREOUT
	VZEROUPPER
	RET

// func rowLop3AVX2(out, x, y, z *regRow, masks *[8]uint32)
TEXT ·rowLop3AVX2(SB), NOSPLIT, $0-40
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	MOVQ z+24(FP), CX
	MOVQ masks+32(FP), AX
	LOP3
	STOREOUT
	VZEROUPPER
	RET

// func rowSelAVX2(out, x, y *regRow, pm uint32)
TEXT ·rowSelAVX2(SB), NOSPLIT, $0-28
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	MOVL pm+24(FP), AX
	SEL
	STOREOUT
	VZEROUPPER
	RET

// func rowIMnMxSAVX2(out, x, y *regRow, pm uint32)
TEXT ·rowIMnMxSAVX2(SB), NOSPLIT, $0-28
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	MOVL pm+24(FP), AX
	MNMX(VPMINSD, VPMAXSD)
	STOREOUT
	VZEROUPPER
	RET

// func rowIMnMxUAVX2(out, x, y *regRow, pm uint32)
TEXT ·rowIMnMxUAVX2(SB), NOSPLIT, $0-28
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	MOVL pm+24(FP), AX
	MNMX(VPMINUD, VPMAXUD)
	STOREOUT
	VZEROUPPER
	RET

// func rowFMnMxAVX2(out, x, y *regRow, pm uint32)
TEXT ·rowFMnMxAVX2(SB), NOSPLIT, $0-28
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	MOVL pm+24(FP), AX
	FMNMX
	STOREOUT
	VZEROUPPER
	RET

// func rowCmpEQAVX2(x, y *regRow) uint32
TEXT ·rowCmpEQAVX2(SB), NOSPLIT, $0-20
	MOVQ x+0(FP), SI
	MOVQ y+8(FP), DX
	CMPROW(VPCMPEQD)
	MOVL CX, ret+16(FP)
	VZEROUPPER
	RET

// func rowCmpGTSAVX2(x, y *regRow) uint32
TEXT ·rowCmpGTSAVX2(SB), NOSPLIT, $0-20
	MOVQ x+0(FP), SI
	MOVQ y+8(FP), DX
	CMPROW(VPCMPGTD)
	MOVL CX, ret+16(FP)
	VZEROUPPER
	RET

// func rowCmpGTUAVX2(x, y *regRow) uint32
TEXT ·rowCmpGTUAVX2(SB), NOSPLIT, $0-20
	MOVQ x+0(FP), SI
	MOVQ y+8(FP), DX
	CMPGTU
	MOVL CX, ret+16(FP)
	VZEROUPPER
	RET

// func rowFCmpEQAVX2(x, y *regRow) uint32
TEXT ·rowFCmpEQAVX2(SB), NOSPLIT, $0-20
	MOVQ x+0(FP), SI
	MOVQ y+8(FP), DX
	FCMP($0x00)
	MOVL CX, ret+16(FP)
	VZEROUPPER
	RET

// func rowFCmpLTAVX2(x, y *regRow) uint32
TEXT ·rowFCmpLTAVX2(SB), NOSPLIT, $0-20
	MOVQ x+0(FP), SI
	MOVQ y+8(FP), DX
	FCMP($0x11)
	MOVL CX, ret+16(FP)
	VZEROUPPER
	RET

// func rowFCmpLEAVX2(x, y *regRow) uint32
TEXT ·rowFCmpLEAVX2(SB), NOSPLIT, $0-20
	MOVQ x+0(FP), SI
	MOVQ y+8(FP), DX
	FCMP($0x12)
	MOVL CX, ret+16(FP)
	VZEROUPPER
	RET

// func rowFCmpOrdAVX2(x, y *regRow) uint32
TEXT ·rowFCmpOrdAVX2(SB), NOSPLIT, $0-20
	MOVQ x+0(FP), SI
	MOVQ y+8(FP), DX
	FCMP($0x07)
	MOVL CX, ret+16(FP)
	VZEROUPPER
	RET

// func rowStrideDiffAVX2(addr, k *regRow, want, stride uint32) uint32
//
// Returns nonzero when some lane selected by k has addr[l] != want + l*stride.
TEXT ·rowStrideDiffAVX2(SB), NOSPLIT, $0-28
	MOVQ  addr+0(FP), SI
	MOVQ  k+8(FP), BX
	MOVL  want+16(FP), AX
	MOVL  stride+20(FP), CX
	STRIDEDIFF(SI, BX, AX, CX)
	XORL  AX, AX
	VPTEST Y5, Y5
	SETNE AX
	MOVL  AX, ret+24(FP)
	VZEROUPPER
	RET

// The masked row moves take win, the first active lane's bytes, and that
// lane's index; the bodies want lane 0's address.

// func rowLoad32AVX2(dst *regRow, win *byte, first uintptr, k *regRow)
TEXT ·rowLoad32AVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ win+8(FP), SI
	MOVQ first+16(FP), AX
	MOVQ k+24(FP), BX
	SHLQ $2, AX
	SUBQ AX, SI
	LOAD32
	VZEROUPPER
	RET

// func rowStore32AVX2(win *byte, first uintptr, src, k *regRow)
TEXT ·rowStore32AVX2(SB), NOSPLIT, $0-32
	MOVQ win+0(FP), SI
	MOVQ first+8(FP), AX
	MOVQ src+16(FP), DX
	MOVQ k+24(FP), BX
	SHLQ $2, AX
	SUBQ AX, SI
	STORE32
	VZEROUPPER
	RET

// func rowLoad64AVX2(lo, hi *regRow, win *byte, first uintptr, k *regRow)
TEXT ·rowLoad64AVX2(SB), NOSPLIT, $0-40
	MOVQ lo+0(FP), DI
	MOVQ hi+8(FP), R8
	MOVQ win+16(FP), SI
	MOVQ first+24(FP), AX
	MOVQ k+32(FP), BX
	SHLQ $3, AX
	SUBQ AX, SI
	LOAD64
	VZEROUPPER
	RET

// func rowStore64AVX2(win *byte, first uintptr, lo, hi, k *regRow)
TEXT ·rowStore64AVX2(SB), NOSPLIT, $0-40
	MOVQ win+0(FP), SI
	MOVQ first+8(FP), AX
	MOVQ lo+16(FP), DX
	MOVQ hi+24(FP), CX
	MOVQ k+32(FP), BX
	SHLQ $3, AX
	SUBQ AX, SI
	STORE64
	VZEROUPPER
	RET
