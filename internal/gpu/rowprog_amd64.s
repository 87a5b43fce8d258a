//go:build amd64 && !purego

#include "textflag.h"
#include "funcdata.h"
#include "go_asm.h"

// The row-program dispatcher (DESIGN.md section 3.11, "Row programs"): the
// assembly form of blockCtx.runRowsPortable. It executes a stretch of row ops
// without returning to Go between them; the vector work stays in the kernels
// of rowops_amd64.s, which it CALLs through tables of their addresses with
// the arguments laid out at 0(SP) as their Go declarations say. The
// dispatcher itself has no vector instruction, so it owes no VZEROUPPER: every
// kernel ends with one.
//
// Rules, checked by TestRowAsmHygiene:
//
//   - The kernels name only AX, BX, CX, DX, SI, DI, R8 and Y0-Y15. Whatever
//     the dispatcher keeps across a CALL lives in R9-R13 or in its frame; it
//     treats every other register as clobbered by a CALL. (R14 and R15 are
//     left alone: the Go ABI keeps g in one and the dynamic linker claims the
//     other.)
//   - Struct layout comes from go_asm.h only: a displacement off a pointer
//     register is a rowOp_ / rowOperand_ / warp_ / blockCtx_ / xplan_ /
//     SiteTally_ name, never a number.
//   - Every kernel table entry is a symbol rowops_amd64.go declares, and the
//     rowKernels table covers exactly the ops of rowVectorOps.
//
// Registers across the loop:
//
//	R9   thread-level executions so far (the result)
//	R10  w
//	R11  tally cursor, 0 when the launch does not tally
//	R12  op cursor
//	R13  end of the ops
//
// Frame:
//
//	0-39(SP)  outgoing kernel arguments: out, x, y, then z or the selector
//	          mask, then LOP3's select words; a compare takes x, y at 0, 8 and
//	          returns at 16
//	40(SP)    operand base table, indexed by rb*: warp.regs, warp.tid,
//	          blockCtx.urows, xplan.arena
//	72(SP)    blockCtx.rows, the scratch rows
//	80(SP)    the destination row
//	88(SP)    the exec mask of the op being executed
//	92(SP)    SETP: the compare's flags
//
// The frame holds addresses the collector is not told about
// (NO_LOCAL_POINTERS). All of them point into blk, w, the plan's arena or
// ops — kept alive by the arguments — and no collection can observe the frame:
// the routine and the kernels are assembly, which the runtime neither
// preempts asynchronously nor scans at a call that cannot grow the stack.
//
// POPCNT needs no check of its own: every AVX2 processor has it.

// rowKernels is the kernel of each dispatchable fastOp, by fastOp.
DATA rowKernels<>+(const_fopAdd*8)(SB)/8, $·rowAddAVX2(SB)
DATA rowKernels<>+(const_fopMul*8)(SB)/8, $·rowMulAVX2(SB)
DATA rowKernels<>+(const_fopAnd*8)(SB)/8, $·rowAndAVX2(SB)
DATA rowKernels<>+(const_fopOr*8)(SB)/8, $·rowOrAVX2(SB)
DATA rowKernels<>+(const_fopXor*8)(SB)/8, $·rowXorAVX2(SB)
DATA rowKernels<>+(const_fopShl*8)(SB)/8, $·rowShlAVX2(SB)
DATA rowKernels<>+(const_fopShrU*8)(SB)/8, $·rowShrAVX2(SB)
DATA rowKernels<>+(const_fopShrS*8)(SB)/8, $·rowSarAVX2(SB)
DATA rowKernels<>+(const_fopFAdd*8)(SB)/8, $·rowFAddAVX2(SB)
DATA rowKernels<>+(const_fopFMul*8)(SB)/8, $·rowFMulAVX2(SB)
DATA rowKernels<>+(const_fopImadLo*8)(SB)/8, $·rowIMadAVX2(SB)
DATA rowKernels<>+(const_fopIAdd3*8)(SB)/8, $·rowIAdd3AVX2(SB)
DATA rowKernels<>+(const_fopLea*8)(SB)/8, $·rowLeaAVX2(SB)
DATA rowKernels<>+(const_fopFFma*8)(SB)/8, $·rowFFmaAVX2(SB)
DATA rowKernels<>+(const_fopLop3*8)(SB)/8, $·rowLop3AVX2(SB)
DATA rowKernels<>+(const_fopSel*8)(SB)/8, $·rowSelAVX2(SB)
DATA rowKernels<>+(const_fopIMnMxS*8)(SB)/8, $·rowIMnMxSAVX2(SB)
DATA rowKernels<>+(const_fopIMnMxU*8)(SB)/8, $·rowIMnMxUAVX2(SB)
DATA rowKernels<>+(const_fopFMnMx*8)(SB)/8, $·rowFMnMxAVX2(SB)
GLOBL rowKernels<>(SB), RODATA|NOPTR, $(const_numFastOps*8)

// rowNegKernels is the kernel of each negation mode, by mode.
DATA rowNegKernels<>+(const_fnInt*8)(SB)/8, $·rowNegIntAVX2(SB)
DATA rowNegKernels<>+(const_fnFloat*8)(SB)/8, $·rowNegFloatAVX2(SB)
GLOBL rowNegKernels<>(SB), RODATA|NOPTR, $24

// rowCmpKernels derives the twenty comparisons from seven kernels, as cmpMask
// does: per fastCmp a 16-byte entry, the kernel (0: a constant) and whether to
// swap its operands and to complement its result.
#define cmpEntry_kernel 0
#define cmpEntry_flags  8
#define CMPSWAP 1
#define CMPNOT  2
DATA rowCmpKernels<>+(const_fcT*16+cmpEntry_flags)(SB)/8, $CMPNOT
DATA rowCmpKernels<>+(const_fcEQ*16)(SB)/8, $·rowCmpEQAVX2(SB)
DATA rowCmpKernels<>+(const_fcNE*16)(SB)/8, $·rowCmpEQAVX2(SB)
DATA rowCmpKernels<>+(const_fcNE*16+cmpEntry_flags)(SB)/8, $CMPNOT
DATA rowCmpKernels<>+(const_fcLTS*16)(SB)/8, $·rowCmpGTSAVX2(SB)
DATA rowCmpKernels<>+(const_fcLTS*16+cmpEntry_flags)(SB)/8, $CMPSWAP
DATA rowCmpKernels<>+(const_fcLES*16)(SB)/8, $·rowCmpGTSAVX2(SB)
DATA rowCmpKernels<>+(const_fcLES*16+cmpEntry_flags)(SB)/8, $CMPNOT
DATA rowCmpKernels<>+(const_fcGTS*16)(SB)/8, $·rowCmpGTSAVX2(SB)
DATA rowCmpKernels<>+(const_fcGES*16)(SB)/8, $·rowCmpGTSAVX2(SB)
DATA rowCmpKernels<>+(const_fcGES*16+cmpEntry_flags)(SB)/8, $(CMPSWAP+CMPNOT)
DATA rowCmpKernels<>+(const_fcLTU*16)(SB)/8, $·rowCmpGTUAVX2(SB)
DATA rowCmpKernels<>+(const_fcLTU*16+cmpEntry_flags)(SB)/8, $CMPSWAP
DATA rowCmpKernels<>+(const_fcLEU*16)(SB)/8, $·rowCmpGTUAVX2(SB)
DATA rowCmpKernels<>+(const_fcLEU*16+cmpEntry_flags)(SB)/8, $CMPNOT
DATA rowCmpKernels<>+(const_fcGTU*16)(SB)/8, $·rowCmpGTUAVX2(SB)
DATA rowCmpKernels<>+(const_fcGEU*16)(SB)/8, $·rowCmpGTUAVX2(SB)
DATA rowCmpKernels<>+(const_fcGEU*16+cmpEntry_flags)(SB)/8, $(CMPSWAP+CMPNOT)
DATA rowCmpKernels<>+(const_fcFEQ*16)(SB)/8, $·rowFCmpEQAVX2(SB)
DATA rowCmpKernels<>+(const_fcFNE*16)(SB)/8, $·rowFCmpEQAVX2(SB)
DATA rowCmpKernels<>+(const_fcFNE*16+cmpEntry_flags)(SB)/8, $CMPNOT
DATA rowCmpKernels<>+(const_fcFLT*16)(SB)/8, $·rowFCmpLTAVX2(SB)
DATA rowCmpKernels<>+(const_fcFLE*16)(SB)/8, $·rowFCmpLEAVX2(SB)
DATA rowCmpKernels<>+(const_fcFGT*16)(SB)/8, $·rowFCmpLTAVX2(SB)
DATA rowCmpKernels<>+(const_fcFGT*16+cmpEntry_flags)(SB)/8, $CMPSWAP
DATA rowCmpKernels<>+(const_fcFGE*16)(SB)/8, $·rowFCmpLEAVX2(SB)
DATA rowCmpKernels<>+(const_fcFGE*16+cmpEntry_flags)(SB)/8, $CMPSWAP
DATA rowCmpKernels<>+(const_fcFNum*16)(SB)/8, $·rowFCmpOrdAVX2(SB)
DATA rowCmpKernels<>+(const_fcFNan*16)(SB)/8, $·rowFCmpOrdAVX2(SB)
DATA rowCmpKernels<>+(const_fcFNan*16+cmpEntry_flags)(SB)/8, $CMPNOT
GLOBL rowCmpKernels<>(SB), RODATA|NOPTR, $(const_numFastCmps*16)

// SCRATCH leaves the address of scratch row ROW in REG.
#define SCRATCH(ROW, REG) \
	MOVQ 72(SP), REG; \
	LEAQ (ROW*const_rowBytes)(REG), REG

// RESOLVE stores the row address of the operand at op offset SRC in SLOT: base
// plus offset, or — out of line, at PREOP's labels — a scratch row the operand
// was broadcast or negated into. A pre-op's CALL overwrites 0(SP) and 8(SP),
// so the operands resolve last to first: x's slot is written after every CALL.
#define RESOLVE(SRC, SLOT, SPECIAL, NEGATE, STORE) \
	MOVBLZX (SRC+rowOperand_base)(R12), AX; \
	MOVL    (SRC+rowOperand_off)(R12), SI; \
	CMPL    AX, $const_rbSpecial; \
	JEQ     SPECIAL; \
	ADDQ    40(SP)(AX*8), SI; \
	MOVBLZX (SRC+rowOperand_neg)(R12), AX; \
	TESTL   AX, AX; \
	JNZ     NEGATE; \
STORE: \
	MOVQ    SI, SLOT

// PREOP is RESOLVE's slow path. SPECIAL broadcasts the one warp-uniform
// special register the dispatcher reads, the warp id, into the operand's
// scratch row ROW; NEGATE rewrites the row at SI into it under the negation
// mode in AX (the kernels let out alias x).
#define PREOP(SRC, ROW, SPECIAL, NEGATE, STORE) \
SPECIAL: \
	SCRATCH(ROW, SI); \
	MOVQ    SI, 0(SP); \
	MOVQ    warp_id(R10), AX; \
	MOVL    AX, 8(SP); \
	CALL    ·rowBroadcastAVX2(SB); \
	SCRATCH(ROW, SI); \
	MOVBLZX (SRC+rowOperand_neg)(R12), AX; \
	TESTL   AX, AX; \
	JZ      STORE; \
NEGATE: \
	SCRATCH(ROW, DI); \
	MOVQ    DI, 0(SP); \
	MOVQ    SI, 8(SP); \
	LEAQ    rowNegKernels<>(SB), BX; \
	MOVQ    (BX)(AX*8), BX; \
	CALL    BX; \
	SCRATCH(ROW, SI); \
	JMP     STORE

// PREDSRC leaves the lanes on which the op's predicate source reads true in
// AX, using BX.
#define PREDSRC(DONE) \
	MOVBLZX (rowOp_pred+rowPred_sel)(R12), BX; \
	XORL    AX, AX; \
	CMPL    BX, $const_rpFalse; \
	JEQ     DONE; \
	MOVL    $-1, AX; \
	CMPL    BX, $const_rpTrue; \
	JEQ     DONE; \
	MOVBLZX (rowOp_pred+rowPred_reg)(R12), AX; \
	MOVL    warp_preds(R10)(AX*4), AX; \
	CMPL    BX, $const_rpPred; \
	JEQ     DONE; \
	NOTL    AX; \
DONE:

// func rowProgAVX2(blk *blockCtx, w *warp, ops *rowOp, n int, atPC uint32, tally *SiteTally) (threads uint64)
TEXT ·rowProgAVX2(SB), $96-56
	NO_LOCAL_POINTERS
	MOVQ  blk+0(FP), AX
	MOVQ  w+8(FP), R10
	MOVQ  ops+16(FP), R12
	MOVQ  n+24(FP), R13
	IMULQ $rowOp__size, R13
	ADDQ  R12, R13
	MOVQ  tally+40(FP), R11
	XORL  R9, R9
	LEAQ  warp_regs(R10), BX
	MOVQ  BX, 40(SP)
	LEAQ  warp_tid(R10), BX
	MOVQ  BX, 48(SP)
	MOVQ  blockCtx_urows(AX), BX
	MOVQ  BX, 56(SP)
	MOVQ  blockCtx_plan(AX), BX
	MOVQ  xplan_arena(BX), BX
	MOVQ  BX, 64(SP)
	LEAQ  blockCtx_rows(AX), BX
	MOVQ  BX, 72(SP)
	JMP   more

loop:
	// The guard: the lanes of atPC the op executes on.
	MOVL    atPC+32(FP), DX
	MOVBLZX rowOp_guard(R12), AX
	CMPL    AX, $const_rgNone
	JEQ     count
	MOVBLZX rowOp_gpred(R12), BX
	MOVL    warp_preds(R10)(BX*4), BX
	CMPL    AX, $const_rgPred
	JEQ     narrow
	NOTL    BX
	CMPL    AX, $const_rgNotPred
	JEQ     narrow
	XORL    BX, BX // rgOff

narrow:
	ANDL BX, DX

count:
	// An op with no lane left still issues.
	POPCNTL DX, AX
	ADDQ    AX, R9
	TESTQ   R11, R11
	JZ      issue
	ADDQ    AX, SiteTally_Threads(R11)
	INCQ    SiteTally_Issues(R11)
	ADDQ    $SiteTally__size, R11

issue:
	TESTL DX, DX
	JZ    next
	MOVL  DX, 88(SP)

	// Operands, last to first.
	MOVBLZX rowOp_shape(R12), AX
	CMPL    AX, $const_rsTern
	JLT     two
	RESOLVE(rowOp_src+2*rowOperand__size, 24(SP), zspecial, znegate, zstore)

two:
	CMPB rowOp_shape(R12), $const_rsMov
	JEQ  one
	RESOLVE(rowOp_src+rowOperand__size, 16(SP), yspecial, ynegate, ystore)

one:
	RESOLVE(rowOp_src, 8(SP), xspecial, xnegate, xstore)

	MOVBLZX rowOp_shape(R12), AX
	CMPL    AX, $const_rsSetP
	JEQ     setp

	// The destination row; under a partial mask the kernel computes into
	// scratch and the active lanes are merged in.
	MOVL rowOp_dst(R12), DI
	ADDQ 40(SP), DI
	MOVQ DI, 80(SP)
	CMPL AX, $const_rsMov
	JEQ  mov
	CMPL 88(SP), $-1
	JEQ  inplace
	SCRATCH(const_rowOut, DI)

inplace:
	MOVQ DI, 0(SP)
	CMPL AX, $const_rsSel
	JEQ  sel
	CMPL AX, $const_rsLop3
	JEQ  lop3

kernel:
	MOVBLZX rowOp_kern(R12), AX
	LEAQ    rowKernels<>(SB), BX
	MOVQ    (BX)(AX*8), BX
	CALL    BX
	MOVL    88(SP), DX
	CMPL    DX, $-1
	JEQ     next
	SCRATCH(const_rowOut, SI)

merge:
	// dst's lanes in DX (a partial mask) take the row at SI: expand the mask
	// unless the slot's cache already holds it.
	MOVQ blk+0(FP), AX
	CMPL DX, blockCtx_maskFor(AX)
	JEQ  expanded
	MOVL DX, blockCtx_maskFor(AX)
	LEAQ blockCtx_maskRow(AX), BX
	MOVQ BX, 0(SP)
	MOVL DX, 8(SP)
	MOVQ SI, 16(SP)
	CALL ·rowExpandMaskAVX2(SB)
	MOVQ 16(SP), SI
	MOVQ blk+0(FP), AX

expanded:
	LEAQ blockCtx_maskRow(AX), BX

blend:
	MOVQ 80(SP), DI
	MOVQ DI, 0(SP)
	MOVQ SI, 8(SP)
	MOVQ BX, 16(SP)
	CALL ·rowMergeAVX2(SB)

next:
	ADDQ $rowOp__size, R12

more:
	CMPQ R12, R13
	JLO  loop
	MOVQ R9, threads+48(FP)
	RET

mov:
	// A move is the merge alone, under the ones row when the mask is full.
	MOVQ 8(SP), SI
	MOVL 88(SP), DX
	CMPL DX, $-1
	JNE  merge
	LEAQ ·onesRow(SB), BX
	JMP  blend

sel:
	PREDSRC(selected)
	MOVL AX, 24(SP)
	JMP  kernel

lop3:
	MOVBLZX rowOp_lut(R12), AX
	SHLQ    $5, AX
	LEAQ    ·lop3Masks(SB), BX
	ADDQ    AX, BX
	MOVQ    BX, 32(SP)
	JMP     kernel

setp:
	MOVBLZX rowOp_kern(R12), AX
	SHLQ    $4, AX
	LEAQ    rowCmpKernels<>(SB), BX
	ADDQ    AX, BX
	MOVQ    cmpEntry_flags(BX), CX
	MOVL    CX, 92(SP)
	MOVQ    cmpEntry_kernel(BX), BX
	XORL    AX, AX
	TESTQ   BX, BX
	JZ      compared
	MOVQ    8(SP), SI
	MOVQ    16(SP), DI
	TESTL   $CMPSWAP, CX
	JZ      ordered
	XCHGQ   SI, DI

ordered:
	MOVQ SI, 0(SP)
	MOVQ DI, 8(SP)
	CALL BX
	MOVL 16(SP), AX

compared:
	TESTL $CMPNOT, 92(SP)
	JZ    combine
	NOTL  AX

combine:
	MOVL    AX, CX
	MOVBLZX rowOp_comb(R12), DX
	CMPL    DX, $const_rcNone
	JEQ     write
	PREDSRC(combined)
	CMPL    DX, $const_rcAnd
	JEQ     and
	CMPL    DX, $const_rcOr
	JEQ     or
	XORL    AX, CX
	JMP     write

and:
	ANDL AX, CX
	JMP  write

or:
	ORL AX, CX

write:
	// The executing lanes of the destination predicate take the result.
	MOVL rowOp_dst(R12), BX
	MOVL warp_preds(R10)(BX*1), AX
	XORL AX, CX
	ANDL 88(SP), CX
	XORL CX, AX
	MOVL AX, warp_preds(R10)(BX*1)
	JMP  next

	PREOP(rowOp_src+2*rowOperand__size, const_rowC, zspecial, znegate, zstore)
	PREOP(rowOp_src+rowOperand__size, const_rowB, yspecial, ynegate, ystore)
	PREOP(rowOp_src, const_rowA, xspecial, xnegate, xstore)
