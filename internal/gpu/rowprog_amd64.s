//go:build amd64 && !purego

#include "textflag.h"
#include "funcdata.h"
#include "go_asm.h"
#include "rowops_amd64.h"

// The row-program dispatcher (DESIGN.md section 3.11, "Row programs"): the
// assembly form of blockCtx.runRowsPortable. It executes a stretch of row ops
// without returning to Go between them. Per op it evaluates the guard,
// resolves the three operands into SI, DX and CX, expands the exec mask into
// select words (BX), checks a global access's fast path or a SIN / COS's
// arguments, counts the issue — a trig pair's two, when both of its ops lie
// in the stretch — and CALLs the op's handler —
// rowHandlers[op.hand], fixed at encoding, or a broadcast load's — with the
// exec mask in AX and the destination row in DI: the register convention of
// rowops_amd64.h, whose kernel bodies the handlers run. An ALU handler
// blends its result into the destination under the select words itself, so a
// partial mask costs no second pass. Nothing here or in a handler clears the
// upper vector halves but the dispatcher's one exit, which every path —
// finished or bailed — takes.
//
// Rules, checked by TestRowAsmHygiene:
//
//   - The handler table covers exactly the dispatchable shape × kernel
//     (× MUFU function) triples, the trig pairs and the two broadcast
//     loads, every handler
//     is file-local (reached only through the table, or by a handler's tail
//     JMP), and the dispatcher CALLs nothing else: no Go-callable kernel, no
//     stack arguments.
//   - The kernel bodies name only AX, BX, CX, DX, SI, DI, R8 and Y0-Y15, and a
//     handler may read, never write, R10 (w) and R12 (the op) besides. The
//     dispatcher keeps its state in R9-R13. (R14 and R15 are left alone: the
//     Go ABI keeps g in one and the dynamic linker claims the other.)
//   - VZEROUPPER directly precedes the dispatcher's RET, and no handler has
//     one.
//   - Struct layout comes from go_asm.h only: a displacement off a pointer
//     register is a rowOp_ / rowOperand_ / warp_ / blockCtx_ / xplan_ /
//     SiteTally_ / alloc_ name, never a number.
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
//	40(SP)    operand base table, indexed by rb*: warp.regs, warp.tid,
//	          blockCtx.urows, xplan.arena
//	72(SP)    blockCtx.rows, the scratch rows
//	80(SP)    blockCtx.maskRow, the exec-mask cache
//	88(SP)    global access: the select words
//	96(SP)    global access: a store's low and high value rows
//	112(SP)   global access: the first executing lane
//	120(SP)   global access: the width, 4 or 8
//	124(SP)   global access: the stride, the width or 0
//
// The frame holds addresses the collector is not told about
// (NO_LOCAL_POINTERS). All of them point into blk, w, the plan's arena or
// ops, or a page of the allocations — kept alive by the arguments — and no
// collection can observe the frame: the routine and its handlers are
// assembly, which the runtime neither preempts asynchronously nor scans at a
// call that cannot grow the stack.
//
// POPCNT needs no check of its own: every AVX2 processor has it.

// rowHandlers is the handler of each rowOp.hand.
DATA rowHandlers<>+(const_rhMov*8)(SB)/8, $hMov<>(SB)
DATA rowHandlers<>+((const_rhKern+const_fopAdd)*8)(SB)/8, $hAdd<>(SB)
DATA rowHandlers<>+((const_rhKern+const_fopMul)*8)(SB)/8, $hMul<>(SB)
DATA rowHandlers<>+((const_rhKern+const_fopAnd)*8)(SB)/8, $hAnd<>(SB)
DATA rowHandlers<>+((const_rhKern+const_fopOr)*8)(SB)/8, $hOr<>(SB)
DATA rowHandlers<>+((const_rhKern+const_fopXor)*8)(SB)/8, $hXor<>(SB)
DATA rowHandlers<>+((const_rhKern+const_fopShl)*8)(SB)/8, $hShl<>(SB)
DATA rowHandlers<>+((const_rhKern+const_fopShrU)*8)(SB)/8, $hShr<>(SB)
DATA rowHandlers<>+((const_rhKern+const_fopShrS)*8)(SB)/8, $hSar<>(SB)
DATA rowHandlers<>+((const_rhKern+const_fopFAdd)*8)(SB)/8, $hFAdd<>(SB)
DATA rowHandlers<>+((const_rhKern+const_fopFMul)*8)(SB)/8, $hFMul<>(SB)
DATA rowHandlers<>+((const_rhKern+const_fopImadLo)*8)(SB)/8, $hIMad<>(SB)
DATA rowHandlers<>+((const_rhKern+const_fopIAdd3)*8)(SB)/8, $hIAdd3<>(SB)
DATA rowHandlers<>+((const_rhKern+const_fopLea)*8)(SB)/8, $hLea<>(SB)
DATA rowHandlers<>+((const_rhKern+const_fopFFma)*8)(SB)/8, $hFFma<>(SB)
DATA rowHandlers<>+((const_rhKern+const_fopLop3)*8)(SB)/8, $hLop3<>(SB)
DATA rowHandlers<>+((const_rhKern+const_fopSel)*8)(SB)/8, $hSel<>(SB)
DATA rowHandlers<>+((const_rhKern+const_fopIMnMxS)*8)(SB)/8, $hIMnMxS<>(SB)
DATA rowHandlers<>+((const_rhKern+const_fopIMnMxU)*8)(SB)/8, $hIMnMxU<>(SB)
DATA rowHandlers<>+((const_rhKern+const_fopFMnMx)*8)(SB)/8, $hFMnMx<>(SB)
DATA rowHandlers<>+((const_rhCmp+const_fcF)*8)(SB)/8, $hF<>(SB)
DATA rowHandlers<>+((const_rhCmp+const_fcT)*8)(SB)/8, $hT<>(SB)
DATA rowHandlers<>+((const_rhCmp+const_fcEQ)*8)(SB)/8, $hEQ<>(SB)
DATA rowHandlers<>+((const_rhCmp+const_fcNE)*8)(SB)/8, $hNE<>(SB)
DATA rowHandlers<>+((const_rhCmp+const_fcLTS)*8)(SB)/8, $hLTS<>(SB)
DATA rowHandlers<>+((const_rhCmp+const_fcLES)*8)(SB)/8, $hLES<>(SB)
DATA rowHandlers<>+((const_rhCmp+const_fcGTS)*8)(SB)/8, $hGTS<>(SB)
DATA rowHandlers<>+((const_rhCmp+const_fcGES)*8)(SB)/8, $hGES<>(SB)
DATA rowHandlers<>+((const_rhCmp+const_fcLTU)*8)(SB)/8, $hLTU<>(SB)
DATA rowHandlers<>+((const_rhCmp+const_fcLEU)*8)(SB)/8, $hLEU<>(SB)
DATA rowHandlers<>+((const_rhCmp+const_fcGTU)*8)(SB)/8, $hGTU<>(SB)
DATA rowHandlers<>+((const_rhCmp+const_fcGEU)*8)(SB)/8, $hGEU<>(SB)
DATA rowHandlers<>+((const_rhCmp+const_fcFEQ)*8)(SB)/8, $hFEQ<>(SB)
DATA rowHandlers<>+((const_rhCmp+const_fcFNE)*8)(SB)/8, $hFNE<>(SB)
DATA rowHandlers<>+((const_rhCmp+const_fcFLT)*8)(SB)/8, $hFLT<>(SB)
DATA rowHandlers<>+((const_rhCmp+const_fcFLE)*8)(SB)/8, $hFLE<>(SB)
DATA rowHandlers<>+((const_rhCmp+const_fcFGT)*8)(SB)/8, $hFGT<>(SB)
DATA rowHandlers<>+((const_rhCmp+const_fcFGE)*8)(SB)/8, $hFGE<>(SB)
DATA rowHandlers<>+((const_rhCmp+const_fcFNum)*8)(SB)/8, $hFNum<>(SB)
DATA rowHandlers<>+((const_rhCmp+const_fcFNan)*8)(SB)/8, $hFNan<>(SB)
DATA rowHandlers<>+(const_rhRcp*8)(SB)/8, $hRcp<>(SB)
DATA rowHandlers<>+(const_rhRsq*8)(SB)/8, $hRsq<>(SB)
DATA rowHandlers<>+(const_rhSqrt*8)(SB)/8, $hSqrt<>(SB)
DATA rowHandlers<>+(const_rhI2F*8)(SB)/8, $hI2F<>(SB)
DATA rowHandlers<>+(const_rhI2FU*8)(SB)/8, $hI2FU<>(SB)
DATA rowHandlers<>+(const_rhF2I*8)(SB)/8, $hF2I<>(SB)
DATA rowHandlers<>+(const_rhF2IU*8)(SB)/8, $hF2IU<>(SB)
DATA rowHandlers<>+(const_rhSin*8)(SB)/8, $hSin<>(SB)
DATA rowHandlers<>+(const_rhCos*8)(SB)/8, $hCos<>(SB)
DATA rowHandlers<>+(const_rhSinCos*8)(SB)/8, $hSinCos<>(SB)
DATA rowHandlers<>+(const_rhCosSin*8)(SB)/8, $hCosSin<>(SB)
DATA rowHandlers<>+(const_rhLd32*8)(SB)/8, $hLd32<>(SB)
DATA rowHandlers<>+(const_rhSt32*8)(SB)/8, $hSt32<>(SB)
DATA rowHandlers<>+(const_rhLd64*8)(SB)/8, $hLd64<>(SB)
DATA rowHandlers<>+(const_rhSt64*8)(SB)/8, $hSt64<>(SB)
DATA rowHandlers<>+(const_rhLd32U*8)(SB)/8, $hLd32U<>(SB)
DATA rowHandlers<>+(const_rhLd64U*8)(SB)/8, $hLd64U<>(SB)
GLOBL rowHandlers<>(SB), RODATA|NOPTR, $(const_numRowHandlers*8)

// RESOLVE leaves the row address of the operand at op offset SRC in REG: its
// base plus its offset. The base and the negation mode are adjacent bytes
// (rowprog_amd64.go checks), read as one word: a special register or a
// negated operand — a word from rbSpecial up — takes the out-of-line path
// SLOW (PREOP), which comes back at BACK.
#define RESOLVE(SRC, REG, SLOW, BACK) \
	MOVWLZX (SRC+rowOperand_base)(R12), AX; \
	MOVL    (SRC+rowOperand_off)(R12), REG; \
	CMPL    AX, $const_rbSpecial; \
	JHS     SLOW; \
	ADDQ    40(SP)(AX*8), REG; \
BACK:

// PREOP is RESOLVE's slow path. It broadcasts the one warp-uniform special
// register the dispatcher reads, the warp id, into scratch row ROW, and
// rewrites a negated row there under its mode.
#define PREOP(SRC, REG, ROW, SLOW, BACK, SPECIAL, NEGATE, FLOAT) \
SLOW: \
	MOVBLZX (SRC+rowOperand_base)(R12), AX; \
	CMPL    AX, $const_rbSpecial; \
	JEQ     SPECIAL; \
	ADDQ    40(SP)(AX*8), REG; \
	JMP     NEGATE; \
SPECIAL: \
	MOVQ    72(SP), REG; \
	LEAQ    (ROW*const_rowBytes)(REG), REG; \
	MOVQ    warp_id(R10), AX; \
	BROADCAST(AX, REG); \
	CMPB    (SRC+rowOperand_neg)(R12), $const_fnNone; \
	JEQ     BACK; \
NEGATE: \
	MOVQ    72(SP), R8; \
	LEAQ    (ROW*const_rowBytes)(R8), R8; \
	CMPB    (SRC+rowOperand_neg)(R12), $const_fnInt; \
	JNE     FLOAT; \
	NEGINT(REG, R8); \
	MOVQ    R8, REG; \
	JMP     BACK; \
FLOAT: \
	NEGFLOAT(REG, R8); \
	MOVQ    R8, REG; \
	JMP     BACK

// PREDSRC leaves the lanes on which the op's predicate source reads true in
// OUT, using TMP.
#define PREDSRC(OUT, TMP, DONE) \
	MOVBLZX (rowOp_pred+rowPred_sel)(R12), TMP; \
	XORL    OUT, OUT; \
	CMPL    TMP, $const_rpFalse; \
	JEQ     DONE; \
	MOVL    $-1, OUT; \
	CMPL    TMP, $const_rpTrue; \
	JEQ     DONE; \
	MOVBLZX (rowOp_pred+rowPred_reg)(R12), OUT; \
	MOVL    warp_preds(R10)(OUT*4), OUT; \
	CMPL    TMP, $const_rpPred; \
	JEQ     DONE; \
	NOTL    OUT; \
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
	LEAQ  blockCtx_maskRow(AX), BX
	MOVQ  BX, 80(SP)
	TESTQ R13, R13
	JZ    bail

loop:
	// The guard: the lanes of atPC the op executes on, in DI.
	MOVL    atPC+32(FP), DI
	MOVBLZX rowOp_guard(R12), AX
	CMPL    AX, $const_rgNone
	JEQ     guarded
	MOVBLZX rowOp_gpred(R12), BX
	MOVL    warp_preds(R10)(BX*4), BX
	CMPL    AX, $const_rgPred
	JEQ     narrow
	NOTL    BX
	CMPL    AX, $const_rgNotPred
	JEQ     narrow
	XORL    BX, BX // rgOff

narrow:
	ANDL BX, DI

guarded:
	TESTL DI, DI
	JZ    empty

	// The operands, in SI, DX and CX; an unused one is the arena's zero row.
	RESOLVE(rowOp_src, SI, xslow, xback)
	RESOLVE(rowOp_src+rowOperand__size, DX, yslow, yback)
	RESOLVE(rowOp_src+2*rowOperand__size, CX, zslow, zback)

	// The select words of the lanes, in BX: the ones row, or the slot's
	// expansion, refreshed unless it already holds these lanes.
	LEAQ ·onesRow(SB), BX
	CMPL DI, $-1
	JEQ  selected
	MOVQ 80(SP), BX
	MOVQ blk+0(FP), AX
	CMPL DI, blockCtx_maskFor(AX)
	JEQ  selected
	MOVL DI, blockCtx_maskFor(AX)
	EXPANDMASK(DI, BX)

selected:
	MOVBLZX rowOp_hand(R12), R8
	CMPL    R8, $const_rhSin
	JHS     checked

counted:
	POPCNTL DI, AX
	ADDQ    AX, R9
	TESTQ   R11, R11
	JZ      call
	ADDQ    AX, SiteTally_Threads(R11)
	INCQ    SiteTally_Issues(R11)
	ADDQ    $SiteTally__size, R11

call:
	LEAQ rowHandlers<>(SB), AX
	MOVQ (AX)(R8*8), R8
	MOVL DI, AX
	MOVL rowOp_dst(R12), DI
	ADDQ 40(SP), DI
	CALL R8

next:
	ADDQ $rowOp__size, R12
	DECQ R13
	JNZ  loop

bail:
	// The one exit. The ops left, the current one first, go back to Go
	// uncounted.
	MOVQ R9, threads+80(FP)
	MOVQ n+24(FP), AX
	SUBQ R13, AX
	MOVQ AX, done+88(FP)
	VZEROUPPER
	RET

checked:
	// SIN and COS run here only on arguments their handlers replay: a lane
	// whose x is NaN, ±Inf or of magnitude 2^29 or more leaves the op to Go,
	// uncounted, as a global access off its fast path is. A pair's two ops
	// read one source under one mask: one check covers both.
	CMPL   R8, $const_rhLd32
	JHS    global
	TRIGRANGE
	VPTEST Y5, Y5
	JNZ    bail
	CMPL   R8, $const_rhSinCos
	JLO    counted

	// A trig pair runs as one pass when its second op is in the stretch;
	// else the first op runs its own function.
	CMPQ R13, $2
	JHS  pair
	SUBL $const_rhPair, R8
	JMP  counted

pair:
	// Both ops count, each into its own tally entry, and the handler finds
	// the second op's destination row in DX.
	POPCNTL DI, AX
	LEAQ    (R9)(AX*2), R9
	TESTQ   R11, R11
	JZ      paired
	ADDQ    AX, SiteTally_Threads(R11)
	INCQ    SiteTally_Issues(R11)
	ADDQ    AX, (SiteTally__size+SiteTally_Threads)(R11)
	INCQ    (SiteTally__size+SiteTally_Issues)(R11)
	ADDQ    $(2*SiteTally__size), R11

paired:
	MOVL (rowOp__size+rowOp_dst)(R12), DX
	ADDQ 40(SP), DX
	LEAQ rowHandlers<>(SB), AX
	MOVQ (AX)(R8*8), R8
	MOVL DI, AX
	MOVL rowOp_dst(R12), DI
	ADDQ 40(SP), DI
	CALL R8
	ADDQ $rowOp__size, R12
	DECQ R13
	JMP  next

empty:
	// An op with no lane left still issues; a global access touches no memory.
	TESTQ R11, R11
	JZ    next
	INCQ  SiteTally_Issues(R11)
	ADDQ  $SiteTally__size, R11
	JMP   next

global:
	// A global access runs here only on its fast path, checked before the op
	// counts: the executing lanes' addresses run at unit stride from a
	// width-aligned first address — or, for a load, all are one aligned
	// address — and the span lies inside one page of one of the two
	// allocations the memo names: a page written before, and for a store one
	// no snapshot shares. Anything else is left to Go (bail), whose portable
	// executor runs the op: the lane loop, its traps, the memo refresh, the
	// zero page and the copy-on-write fault.
	MOVQ BX, 88(SP)
	MOVQ DX, 96(SP)
	MOVQ CX, 104(SP)
	MOVL $4, CX
	CMPL R8, $const_rhLd64
	JLO  sized
	MOVL $8, CX

sized:
	// Unit stride: each executing lane's address register holds what lane
	// 0's would hold (DX) plus the width per lane.
	MOVL  CX, 120(SP)
	BSFL  DI, R8
	MOVQ  R8, 112(SP)
	MOVL  (SI)(R8*4), AX
	IMULL CX, R8
	MOVL  AX, DX
	SUBL  R8, DX
	STRIDEDIFF(SI, BX, DX, CX)
	VPTEST Y5, Y5
	JZ    strided

	// Stride 0: a load whose executing lanes all hold the first one's
	// address (AX) reads it once. A store's lanes stay in order, in Go.
	MOVBLZX rowOp_hand(R12), R8
	CMPL    R8, $const_rhSt32
	JEQ     bail
	CMPL    R8, $const_rhSt64
	JEQ     bail
	XORL    CX, CX
	STRIDEDIFF(SI, BX, AX, CX)
	VPTEST  Y5, Y5
	JNZ     bail

strided:
	// A width-aligned first address (the stride aligns the rest).
	MOVL  CX, 124(SP)
	ADDL  rowOp_off(R12), AX
	MOVL  120(SP), DX
	DECL  DX
	TESTL DX, AX
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
	// first to last lane — the stride times their distance, plus one width —
	// ends inside the allocation and inside the page.
	BSRL  DI, CX
	SUBL  112(SP), CX
	IMULL 124(SP), CX
	ADDL  120(SP), CX
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
	MOVBLZX rowOp_hand(R12), R8
	CMPL    R8, $const_rhSt32
	JEQ     private
	CMPL    R8, $const_rhSt64
	JNE     window

private:
	MOVQ alloc_shared(BX), AX
	CMPB (AX)(CX*1), $0
	JNE  bail

window:
	// Lane 0's address: the first lane's bytes in the page, less its lane
	// times the stride. A load of stride 0 runs its broadcast handler.
	ANDL  $(const_memPageSize-1), DX
	ADDQ  DX, SI
	MOVQ  112(SP), AX
	IMULL 124(SP), AX
	SUBQ  AX, SI
	MOVQ  88(SP), BX
	MOVQ  96(SP), DX
	MOVQ  104(SP), CX
	CMPL  124(SP), $0
	JNE   counted
	MOVL  $const_rhLd32U, R8
	CMPL  120(SP), $4
	JEQ   counted
	MOVL  $const_rhLd64U, R8
	JMP   counted

	PREOP(rowOp_src, SI, const_rowA, xslow, xback, xspecial, xnegate, xfloat)
	PREOP(rowOp_src+rowOperand__size, DX, const_rowB, yslow, yback, yspecial, ynegate, yfloat)
	PREOP(rowOp_src+2*rowOperand__size, CX, const_rowC, zslow, zback, zspecial, znegate, zfloat)

// The handlers. Each is entered by the dispatcher's CALL with the registers of
// rowops_amd64.h's convention and the exec mask in AX, and returns with the
// upper vector halves as it left them.

// hMov: a move is the commit alone.
TEXT hMov<>(SB), NOSPLIT, $0-0
	LOADX
	COMMIT
	RET

TEXT hAdd<>(SB), NOSPLIT, $0-0
	BINROW(VPADDD)
	COMMIT
	RET

TEXT hMul<>(SB), NOSPLIT, $0-0
	BINROW(VPMULLD)
	COMMIT
	RET

TEXT hAnd<>(SB), NOSPLIT, $0-0
	BINROW(VPAND)
	COMMIT
	RET

TEXT hOr<>(SB), NOSPLIT, $0-0
	BINROW(VPOR)
	COMMIT
	RET

TEXT hXor<>(SB), NOSPLIT, $0-0
	BINROW(VPXOR)
	COMMIT
	RET

TEXT hShl<>(SB), NOSPLIT, $0-0
	BINROW(VPSLLVD)
	COMMIT
	RET

TEXT hShr<>(SB), NOSPLIT, $0-0
	BINROW(VPSRLVD)
	COMMIT
	RET

TEXT hSar<>(SB), NOSPLIT, $0-0
	BINROW(VPSRAVD)
	COMMIT
	RET

TEXT hFAdd<>(SB), NOSPLIT, $0-0
	BINROW(VADDPS)
	COMMIT
	RET

TEXT hFMul<>(SB), NOSPLIT, $0-0
	BINROW(VMULPS)
	COMMIT
	RET

TEXT hIMad<>(SB), NOSPLIT, $0-0
	TERNROW(VPMULLD, VPADDD)
	COMMIT
	RET

TEXT hIAdd3<>(SB), NOSPLIT, $0-0
	TERNROW(VPADDD, VPADDD)
	COMMIT
	RET

TEXT hLea<>(SB), NOSPLIT, $0-0
	LEA
	COMMIT
	RET

TEXT hFFma<>(SB), NOSPLIT, $0-0
	FFMA
	COMMIT
	RET

// hLop3 finds its truth table's select words in lop3Masks by the op's lut.
TEXT hLop3<>(SB), NOSPLIT, $0-0
	MOVBLZX rowOp_lut(R12), AX
	SHLQ    $5, AX
	LEAQ    ·lop3Masks(SB), R8
	ADDQ    R8, AX
	LOP3
	COMMIT
	RET

// The select-shaped handlers read the op's predicate source into AX.
TEXT hSel<>(SB), NOSPLIT, $0-0
	PREDSRC(AX, R8, picked)
	SEL
	COMMIT
	RET

TEXT hIMnMxS<>(SB), NOSPLIT, $0-0
	PREDSRC(AX, R8, picked)
	MNMX(VPMINSD, VPMAXSD)
	COMMIT
	RET

TEXT hIMnMxU<>(SB), NOSPLIT, $0-0
	PREDSRC(AX, R8, picked)
	MNMX(VPMINUD, VPMAXUD)
	COMMIT
	RET

TEXT hFMnMx<>(SB), NOSPLIT, $0-0
	PREDSRC(AX, R8, picked)
	FMNMX
	COMMIT
	RET

// The compare handlers derive the twenty comparisons from seven bodies —
// equality, signed and unsigned greater-than, and the ordered float EQ / LT /
// LE plus the ordered test — by operand swaps and complements, exact for the
// float ones too: Go's != is true on NaN (the complement of ordered ==), and
// >, >= are <, <= with the operands swapped. Each leaves the comparison in CX
// and finishes in setp.
TEXT hF<>(SB), NOSPLIT, $0-0
	XORL CX, CX
	JMP  setp<>(SB)

TEXT hT<>(SB), NOSPLIT, $0-0
	MOVL $-1, CX
	JMP  setp<>(SB)

TEXT hEQ<>(SB), NOSPLIT, $0-0
	CMPROW(VPCMPEQD)
	JMP setp<>(SB)

TEXT hNE<>(SB), NOSPLIT, $0-0
	CMPROW(VPCMPEQD)
	NOTL CX
	JMP  setp<>(SB)

TEXT hLTS<>(SB), NOSPLIT, $0-0
	XCHGQ SI, DX
	CMPROW(VPCMPGTD)
	JMP   setp<>(SB)

TEXT hLES<>(SB), NOSPLIT, $0-0
	CMPROW(VPCMPGTD)
	NOTL CX
	JMP  setp<>(SB)

TEXT hGTS<>(SB), NOSPLIT, $0-0
	CMPROW(VPCMPGTD)
	JMP setp<>(SB)

TEXT hGES<>(SB), NOSPLIT, $0-0
	XCHGQ SI, DX
	CMPROW(VPCMPGTD)
	NOTL  CX
	JMP   setp<>(SB)

TEXT hLTU<>(SB), NOSPLIT, $0-0
	XCHGQ SI, DX
	CMPGTU
	JMP   setp<>(SB)

TEXT hLEU<>(SB), NOSPLIT, $0-0
	CMPGTU
	NOTL CX
	JMP  setp<>(SB)

TEXT hGTU<>(SB), NOSPLIT, $0-0
	CMPGTU
	JMP setp<>(SB)

TEXT hGEU<>(SB), NOSPLIT, $0-0
	XCHGQ SI, DX
	CMPGTU
	NOTL  CX
	JMP   setp<>(SB)

TEXT hFEQ<>(SB), NOSPLIT, $0-0
	FCMP($0x00)
	JMP setp<>(SB)

TEXT hFNE<>(SB), NOSPLIT, $0-0
	FCMP($0x00)
	NOTL CX
	JMP  setp<>(SB)

TEXT hFLT<>(SB), NOSPLIT, $0-0
	FCMP($0x11)
	JMP setp<>(SB)

TEXT hFLE<>(SB), NOSPLIT, $0-0
	FCMP($0x12)
	JMP setp<>(SB)

TEXT hFGT<>(SB), NOSPLIT, $0-0
	XCHGQ SI, DX
	FCMP($0x11)
	JMP   setp<>(SB)

TEXT hFGE<>(SB), NOSPLIT, $0-0
	XCHGQ SI, DX
	FCMP($0x12)
	JMP   setp<>(SB)

TEXT hFNum<>(SB), NOSPLIT, $0-0
	FCMP($0x07)
	JMP setp<>(SB)

TEXT hFNan<>(SB), NOSPLIT, $0-0
	FCMP($0x07)
	NOTL CX
	JMP  setp<>(SB)

// setp combines the comparison in CX with the op's predicate source and
// writes it to the executing lanes (AX) of the destination predicate.
TEXT setp<>(SB), NOSPLIT, $0-0
	MOVBLZX rowOp_comb(R12), DX
	CMPL    DX, $const_rcNone
	JEQ     write
	PREDSRC(BX, SI, combine)
	CMPL    DX, $const_rcAnd
	JEQ     and
	CMPL    DX, $const_rcOr
	JEQ     or
	XORL    BX, CX
	JMP     write

and:
	ANDL BX, CX
	JMP  write

or:
	ORL BX, CX

write:
	MOVL rowOp_dst(R12), DX
	MOVL warp_preds(R10)(DX*1), BX
	XORL BX, CX
	ANDL AX, CX
	XORL CX, BX
	MOVL BX, warp_preds(R10)(DX*1)
	RET

// The MUFU handlers. SIN and COS find their arguments checked (TRIGRANGE).
TEXT hRcp<>(SB), NOSPLIT, $0-0
	MUFUROW(RCP4)
	COMMIT
	RET

TEXT hRsq<>(SB), NOSPLIT, $0-0
	MUFUROW(RSQ4)
	COMMIT
	RET

TEXT hSqrt<>(SB), NOSPLIT, $0-0
	MUFUROW(SQRT4)
	COMMIT
	RET

TEXT hSin<>(SB), NOSPLIT, $0-0
	MUFUROW(SIN4)
	COMMIT
	RET

TEXT hCos<>(SB), NOSPLIT, $0-0
	MUFUROW(COS4)
	COMMIT
	RET

// The trig pairs: the first op's destination row in DI, the second's in DX.
// Each stores its own results: whole under the full mask (BX is onesRow),
// else blended, as COMMIT does.
TEXT hSinCos<>(SB), NOSPLIT, $0-0
	LEAQ ·onesRow(SB), R8
	CMPQ BX, R8
	JEQ  whole
	SINCOS(Y0, Y1, COMMITV)
	RET

whole:
	SINCOS(Y0, Y1, WHOLEV)
	RET

TEXT hCosSin<>(SB), NOSPLIT, $0-0
	LEAQ ·onesRow(SB), R8
	CMPQ BX, R8
	JEQ  whole
	SINCOS(Y1, Y0, COMMITV)
	RET

whole:
	SINCOS(Y1, Y0, WHOLEV)
	RET

// The conversions.
TEXT hI2F<>(SB), NOSPLIT, $0-0
	I2F
	COMMIT
	RET

TEXT hI2FU<>(SB), NOSPLIT, $0-0
	I2FU
	COMMIT
	RET

TEXT hF2I<>(SB), NOSPLIT, $0-0
	F2I
	COMMIT
	RET

TEXT hF2IU<>(SB), NOSPLIT, $0-0
	F2IU
	COMMIT
	RET

// The global accesses: the dispatcher checked the fast path and left lane 0's
// address in SI — for a broadcast load, the one address all lanes read. A
// load blends itself under the select words.
TEXT hLd32<>(SB), NOSPLIT, $0-0
	LOAD32
	RET

TEXT hSt32<>(SB), NOSPLIT, $0-0
	STORE32
	RET

TEXT hLd64<>(SB), NOSPLIT, $0-0
	LEAQ const_rowBytes(DI), R8
	LOAD64
	RET

TEXT hSt64<>(SB), NOSPLIT, $0-0
	STORE64
	RET

TEXT hLd32U<>(SB), NOSPLIT, $0-0
	LOADU32
	RET

TEXT hLd64U<>(SB), NOSPLIT, $0-0
	LEAQ const_rowBytes(DI), R8
	LOADU64
	RET
