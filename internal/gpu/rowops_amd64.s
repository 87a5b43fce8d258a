//go:build amd64 && !purego

#include "textflag.h"
#include "rowops_amd64.h"

// The Go-callable AVX2 row kernels (DESIGN.md section 3.11, "Row kernels"):
// the ones Go runs outside the row-program dispatcher — broadcast, mask
// expansion, merge and negation for the closure tier and the block slot's
// uniform rows, the unit-stride test and the masked moves for the global
// accesses the dispatcher leaves to Go. Each loads its arguments into the
// registers of rowops_amd64.h's convention and runs a body written there. The
// ALU and compare bodies are not here: the dispatcher's handlers are their one
// entry. Rules every function here keeps, checked by TestRowAsmHygiene:
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
