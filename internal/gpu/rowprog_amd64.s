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
//     SiteTally_ / alloc_ name, never a number.
//   - Every kernel table entry is a symbol rowops_amd64.go declares, and the
//     rowKernels table covers exactly the ops of rowVectorOps.
//
// Registers across the loop:
//
//	R9   thread-level executions so far (the result)
//	R10  w
//	R11  tally cursor, 0 when the launch does not tally
//	R12  op cursor
//	R13  ops left, the current one included
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
//	96(SP)    global access: the select words of the exec mask
//	104(SP)   global access: the first executing lane
//	112(SP)   global access: the first lane's bytes in the page
//	120(SP)   global access: the width, 4 or 8
//	124(SP)   global access: the first lane's address register
//
// The frame holds addresses the collector is not told about
// (NO_LOCAL_POINTERS). All of them point into blk, w, the plan's arena or
// ops, or a page of the allocations — kept alive by the arguments — and no
// collection can observe the frame:
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

// func rowProgAVX2(blk *blockCtx, w *warp, ops *rowOp, n int, atPC uint32, tally *SiteTally, allocs []alloc, memo uint32) (threads uint64, done int)
TEXT ·rowProgAVX2(SB), $128-96
	NO_LOCAL_POINTERS
	MOVQ  blk+0(FP), AX
	MOVQ  w+8(FP), R10
	MOVQ  ops+16(FP), R12
	MOVQ  n+24(FP), R13
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
	CMPB rowOp_shape(R12), $const_rsLd32
	JHS  global

counted:
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
	CMPL    AX, $const_rsLd32
	JHS     move

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
	DECQ R13

more:
	TESTQ R13, R13
	JNZ   loop

bail:
	// The ops left, the current one first, go back to Go uncounted.
	MOVQ R9, threads+80(FP)
	MOVQ n+24(FP), AX
	SUBQ R13, AX
	MOVQ AX, done+88(FP)
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

global:
	// A global access runs here only on its fast path, checked before the op
	// counts: the executing lanes' addresses run at unit stride from a
	// width-aligned first address, and the span lies inside one page of one of the two allocations the memo
	// names — a page written before, and for a store one no snapshot shares.
	// Anything else is left to Go (bail), whose portable executor runs the op:
	// the lane loop, its traps, the memo refresh, the zero page and the
	// copy-on-write fault. An op with no lane touches no memory.
	TESTL DX, DX
	JZ    counted
	MOVL  DX, 88(SP)

	// The select words of the lanes: the ones row, or the slot's expansion.
	LEAQ ·onesRow(SB), BX
	CMPL DX, $-1
	JEQ  masked
	MOVQ blk+0(FP), AX
	LEAQ blockCtx_maskRow(AX), BX
	CMPL DX, blockCtx_maskFor(AX)
	JEQ  masked
	MOVL DX, blockCtx_maskFor(AX)
	MOVQ BX, 0(SP)
	MOVL DX, 8(SP)
	CALL ·rowExpandMaskAVX2(SB)
	MOVQ blk+0(FP), AX
	LEAQ blockCtx_maskRow(AX), BX
	MOVL 88(SP), DX

masked:
	// Unit stride: each lane's address register holds the first lane's
	// plus the width per lane between them.
	MOVQ    BX, 96(SP)
	BSFL    DX, CX
	MOVQ    CX, 104(SP)
	MOVBLZX (rowOp_src+rowOperand_base)(R12), AX
	MOVL    (rowOp_src+rowOperand_off)(R12), SI
	ADDQ    40(SP)(AX*8), SI
	MOVL    (SI)(CX*4), AX
	MOVL    AX, 124(SP)
	MOVL    $4, DI
	CMPB    rowOp_shape(R12), $const_rsLd64
	JLO     sized
	MOVL    $8, DI

sized:
	MOVL  DI, 120(SP)
	IMULL DI, CX
	SUBL  CX, AX
	MOVQ  SI, 0(SP)
	MOVQ  BX, 8(SP)
	MOVL  AX, 16(SP)
	MOVL  DI, 20(SP)
	CALL  ·rowStrideDiffAVX2(SB)
	MOVL  24(SP), AX
	TESTL AX, AX
	JNZ   bail

	// A width-aligned first address (the stride aligns the rest).
	MOVL  124(SP), AX
	ADDL  rowOp_off(R12), AX
	MOVL  120(SP), DI
	MOVL  DI, BX
	DECL  BX
	TESTL BX, AX
	JNZ   bail

	// The allocation holding it: the memo's newer slot, then its older one.
	MOVQ  allocs_base+48(FP), SI
	MOVQ  allocs_len+56(FP), R8
	MOVL  memo+72(FP), CX
	MOVL  CX, BX
	ANDL  $0xffff, BX
	CMPQ  BX, R8
	JHS   older
	IMULQ $alloc__size, BX
	ADDQ  SI, BX
	MOVL  AX, DX
	SUBL  alloc_base(BX), DX
	CMPL  DX, alloc_size(BX)
	JLO   found

older:
	SHRL  $16, CX
	CMPQ  CX, R8
	JHS   bail
	IMULQ $alloc__size, CX
	LEAQ  (SI)(CX*1), BX
	MOVL  AX, DX
	SUBL  alloc_base(BX), DX
	CMPL  DX, alloc_size(BX)
	JHS   bail

found:
	// BX: the allocation; DX: the first address's offset in it. The span,
	// first to last lane, ends inside the allocation and inside the page.
	MOVL  88(SP), CX
	BSRL  CX, CX
	SUBL  104(SP), CX
	IMULL DI, CX
	ADDL  DI, CX
	MOVL  DX, AX
	ADDQ  CX, AX
	MOVL  alloc_size(BX), SI
	CMPQ  AX, SI
	JHI   bail
	MOVL  DX, AX
	ANDL  $(const_memPageSize-1), AX
	ADDL  CX, AX
	CMPL  AX, $const_memPageSize
	JHI   bail

	// The page: materialized, and private to this memory for a store.
	MOVL    DX, CX
	SHRL    $const_memPageShift, CX
	MOVQ    alloc_pages(BX), SI
	LEAQ    (CX)(CX*2), AX
	MOVQ    (SI)(AX*8), SI
	TESTQ   SI, SI
	JZ      bail
	MOVBLZX rowOp_shape(R12), AX
	CMPL    AX, $const_rsSt32
	JEQ     private
	CMPL    AX, $const_rsSt64
	JNE     window

private:
	MOVQ alloc_shared(BX), AX
	CMPB (AX)(CX*1), $0
	JNE  bail

window:
	ANDL $(const_memPageSize-1), DX
	ADDQ DX, SI
	MOVQ SI, 112(SP)
	MOVL 88(SP), DX
	JMP  counted

move:
	// The checked access, as one masked row move between the page and the
	// registers (a store's value rows resolved into y and z).
	MOVQ 112(SP), SI
	MOVQ 104(SP), CX
	MOVQ 96(SP), BX
	CMPL AX, $const_rsSt32
	JEQ  store32
	CMPL AX, $const_rsSt64
	JEQ  store64
	MOVL rowOp_dst(R12), DI
	ADDQ 40(SP), DI
	CMPL AX, $const_rsLd64
	JEQ  load64
	MOVQ DI, 0(SP)
	MOVQ SI, 8(SP)
	MOVQ CX, 16(SP)
	MOVQ BX, 24(SP)
	CALL ·rowLoad32AVX2(SB)
	JMP  next

load64:
	MOVQ DI, 0(SP)
	ADDQ $const_rowBytes, DI
	MOVQ DI, 8(SP)
	MOVQ SI, 16(SP)
	MOVQ CX, 24(SP)
	MOVQ BX, 32(SP)
	CALL ·rowLoad64AVX2(SB)
	JMP  next

store32:
	MOVQ 16(SP), DI
	MOVQ SI, 0(SP)
	MOVQ CX, 8(SP)
	MOVQ DI, 16(SP)
	MOVQ BX, 24(SP)
	CALL ·rowStore32AVX2(SB)
	JMP  next

store64:
	MOVQ 16(SP), DI
	MOVQ 24(SP), DX
	MOVQ SI, 0(SP)
	MOVQ CX, 8(SP)
	MOVQ DI, 16(SP)
	MOVQ DX, 24(SP)
	MOVQ BX, 32(SP)
	CALL ·rowStore64AVX2(SB)
	JMP  next

	PREOP(rowOp_src+2*rowOperand__size, const_rowC, zspecial, znegate, zstore)
	PREOP(rowOp_src+rowOperand__size, const_rowB, yspecial, ynegate, ystore)
	PREOP(rowOp_src, const_rowA, xspecial, xnegate, xstore)
