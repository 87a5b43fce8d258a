package gpu

import (
	"encoding/binary"
	"math/bits"

	"repro/internal/sass"
)

// Row programs (DESIGN.md section 3.11, "Row programs"). The row tier's
// instructions are data: translation encodes each as one fixed-size rowOp in
// xplan.ops, indexed by pc, and a straight-line stretch of them executes
// inside one routine — runRows — that walks ops[pc:pc+n] and per op evaluates
// the guard, counts the executing lanes (into the launch's thread count and,
// when it tallies, the instruction's SiteTally), resolves the operands to
// rows, runs the row kernel and merges the result under a partial mask. On
// amd64 with AVX2 that routine is the assembly dispatcher of rowprog_amd64.s,
// which CALLs each op's handler with its operands in registers, the handler
// running a kernel body of rowops_amd64.h and blending its own result; a
// single issue of a dispatchable op (rowStep) enters it too, as a one-op
// stretch. This file holds the encoding and the portable executor of the same
// ops, written over the portable row loops (rowBin, rowTern, rowSel, cmpMask,
// rowCvt of rowops_generic.go). The portable executor is the whole path where
// there are no vector kernels; on amd64 it runs the ops without a handler —
// MUFU LG2 and EX2, F2F, LDS/STS, RED/ATOM, the ALU ops without a vector
// kernel — a global access the dispatcher leaves to Go (its fast path does
// not cover it, or it may trap) and a MUFU SIN or COS of an argument its
// handler does not cover; and it is the oracle the dispatcher is held to, bit
// for bit (rowprog_test.go, rowglobal_test.go). It runs a SIN/COS pair op by
// op. With the control kinds of xlate.go and the interpreter thunk, row ops
// are all a plan holds.
//
// An op never holds a pointer: an operand is a base selector and a byte
// offset, resolved against the warp, the block slot and the plan that are
// executing it. That keeps a plan a pure function of kernel content, shared
// across devices, and lets the dispatcher resolve an operand with one load
// and one add.

// rowBytes is the size of one regRow, the unit of every operand offset.
const rowBytes = 4 * WarpSize

// Operand bases: what a rowOperand's byte offset is relative to. The first
// four index the dispatcher's base table.
const (
	rbRegs    uint8 = iota // warp.regs: a register's own row, read in place
	rbTid                  // warp.tid: a thread-index row
	rbUniform              // blockCtx.urows: a constant-bank word or block-uniform special
	rbArena                // xplan.arena: an immediate or lane-pattern row
	rbSpecial              // a warp-uniform special register (off is the sass.SpecialReg), broadcast into scratch
)

// rowOperand is one 32-bit source of a row op. neg (fnInt, fnFloat) is applied
// per execution, into the operand's scratch row; immediates, lane patterns
// and uniform operands fold their negation at translation and carry fnNone.
type rowOperand struct {
	off  uint32
	base uint8
	neg  uint8
}

// Op shapes: which kernel signature an op calls and what it writes. Shapes
// rsTern and rsLop3 read a third source. The memory shapes — rsLd32 to rsSt64
// over global memory, rsLdS32 and rsStS32 over the block's shared window,
// rsRed and rsAtom the atomics over global memory — read their address row
// from src[0] and add the byte offset off; a store's value is src[1], with
// src[2] the high words of a .64 store; an atomic's value is src[1], with
// src[2] CAS's swap operand; a load's unused sources read the zero row. The
// shared shapes, the atomics, and rsCvt's F2F and MUFU LG2 and EX2 have no
// handler: only the portable executor runs them.
const (
	rsNone  uint8 = iota // not a row op
	rsMov                // dst = src[0] (MOV, S2R, LOP.PASS_B)
	rsBin                // dst = kern(src[0], src[1])
	rsSel                // dst = kern(src[0], src[1], pred source): SEL, FSEL, IMNMX, FMNMX
	rsSetP               // predicate dst = cmp(src[0], src[1]) combined with the pred source
	rsTern               // dst = kern(src[0], src[1], src[2])
	rsLop3               // rsTern with LOP3's truth table
	rsLd32               // dst = the word at src[0]+off
	rsSt32               // the word at src[0]+off = src[1]
	rsLd64               // dst, dst+1 = the double word at src[0]+off (the high half dropped on RZ)
	rsSt64               // the double word at src[0]+off = src[1], src[2]
	rsCvt                // dst = cvt(src[0], src[1]), and dst+1 for cvF2FWiden: MUFU and the conversions
	rsLdS32              // dst = the shared word at src[0]+off
	rsStS32              // the shared word at src[0]+off = src[1]
	rsRed                // the word at src[0]+off = atomApply(kern, lut, the word, src[1], src[2])
	rsAtom               // rsRed, and dst = the word it found
)

// Conversions, rsCvt's kernels (rowOp.kern).
const (
	cvMufu      uint8 = iota // MUFU, its function in rowOp.lut
	cvI2F                    // I2F of a signed word
	cvI2FU                   // I2F.U32
	cvF2I                    // F2I to a signed word
	cvF2IU                   // F2I.U32
	cvF2FNarrow              // F2F: the double src[0] (low word), src[1] (high word) to a float
	cvF2FWiden               // F2F.64: the float src[0] to a double in dst, dst+1 (the high half dropped on RZ)
)

// Guards, as the op's own copy of xinstr's classification.
const (
	rgNone    uint8 = iota // @PT
	rgPred                 // @P
	rgNotPred              // @!P
	rgOff                  // @!PT: never executes, still issues
)

// Predicate sources (SEL's selector, SETP's combine operand).
const (
	rpFalse uint8 = iota
	rpTrue
	rpPred
	rpNotPred
)

// SETP combines; rcNone passes the comparison through, as the interpreter
// does for a SETP without a third predicate source.
const (
	rcNone uint8 = iota
	rcAnd
	rcOr
	rcXor
)

// Handlers: what the dispatcher runs for an op, recorded at encoding
// (rowOp.hand) and indexing the handler table of rowprog_amd64.s: one per
// shape and kernel the dispatcher runs, so it branches once per op. rhNone
// marks an op it does not run. From rhSin up the dispatcher checks an op's
// operands before it counts the op, and leaves it to Go when they are off its
// path: SIN and COS for arguments the replay of math.Sin / math.Cos does not
// cover, the global accesses for addresses off the fast path. Three are no
// single op's handler. A trig pair's (rhSinCos, rhCosSin) is given at plan
// time to a SIN or COS whose next op is the other function of the same source
// (trigPair): the dispatcher runs the two ops as one pass when both lie in
// the stretch, and the first op's own function (the pair's handler less
// rhPair) when the stretch ends between them. The two broadcast loads the
// dispatcher picks at run time for an LDG whose executing lanes all read one
// address.
const (
	rhNone uint8 = iota
	rhMov
	rhKern                                      // + fastOp: rsBin, rsSel, rsTern, rsLop3 with a vector kernel
	rhCmp          = rhKern + uint8(numFastOps) // + fastCmp: rsSetP
	rhRcp          = rhCmp + uint8(numFastCmps) // MUFU: RCP, RSQ, SQRT
	rhRsq          = rhRcp + 1
	rhSqrt         = rhRcp + 2
	rhI2F          = rhRcp + 3 // the conversions: I2F, I2F.U32, F2I, F2I.U32
	rhI2FU         = rhRcp + 4
	rhF2I          = rhRcp + 5
	rhF2IU         = rhRcp + 6
	rhSin          = rhRcp + 7 // MUFU SIN and COS, then their pairs in the same order
	rhCos          = rhSin + 1
	rhSinCos       = rhSin + 2 // SIN, then COS of the same source
	rhCosSin       = rhSin + 3 // COS, then SIN of the same source
	rhLd32         = rhSin + 4 // the global accesses, in shape order
	rhSt32         = rhLd32 + 1
	rhLd64         = rhLd32 + 2
	rhSt64         = rhLd32 + 3
	rhLd32U        = rhLd32 + 4 // the broadcast loads
	rhLd64U        = rhLd32 + 5
	numRowHandlers = rhLd32 + 6

	rhPair = rhSinCos - rhSin // a pair's handler less its first op's own
)

// rowOp is one row-tier instruction.
type rowOp struct {
	shape uint8
	kern  uint8 // a fastOp; a fastCmp for rsSetP; a conversion (cv*) for rsCvt; the sass.AtomOp of rsRed and rsAtom
	guard uint8
	gpred uint8  // guard predicate, rgPred / rgNotPred
	hand  uint8  // the dispatcher's handler, rhNone when it does not run the op
	dst   uint32 // byte offset of the destination row in warp.regs; of the predicate word in warp.preds for rsSetP
	src   [3]rowOperand
	pred  rowPred
	comb  uint8  // rsSetP
	lut   uint8  // rsLop3's truth table; the sass.MufuFn of cvMufu; 1 for an atomic's .F32
	off   uint32 // memory shapes: the memory operand's byte offset
}

// rowPred is a pre-resolved predicate source: a constant or a predicate
// register's lane mask, possibly complemented.
type rowPred struct {
	sel uint8 // rp*
	reg uint8 // rpPred, rpNotPred
}

// rowVectorOps lists the fastOps with a handler in the dispatcher's table
// (TestRowAsmHygiene holds the two to each other). AVX2 has no 32-bit
// multiply-high, popcount, bit reverse or leading-zero count; no shipped
// kernel issues one on the row tier.
var rowVectorOps = [numFastOps]bool{
	fopAdd: true, fopMul: true, fopAnd: true, fopOr: true, fopXor: true,
	fopShl: true, fopShrU: true, fopShrS: true, fopFAdd: true, fopFMul: true,
	fopImadLo: true, fopIAdd3: true, fopLea: true, fopFFma: true, fopLop3: true,
	fopSel: true, fopIMnMxS: true, fopIMnMxU: true, fopFMnMx: true,
}

// dispatchable reports whether the op may sit inside a stretch handed to
// runRows: whether it has a handler.
func (op *rowOp) dispatchable() bool { return op.hand != rhNone }

// rowMufuHandlers maps the MUFU functions the dispatcher runs to their
// handlers; the others map to rhNone. LG2 and EX2 stay Go kernels: math.Log
// is assembly of its own on amd64 and math.Exp2 ends in Ldexp, neither a
// sequence of IEEE operations a handler could replay bit for bit.
var rowMufuHandlers = [...]uint8{
	sass.MufuRcp: rhRcp, sass.MufuRsq: rhRsq, sass.MufuSqrt: rhSqrt,
	sass.MufuSin: rhSin, sass.MufuCos: rhCos,
}

// rowCvtHandlers maps the conversions (rsCvt's kernels) the dispatcher runs
// to their handlers: the integer-float conversions, each exact against
// rowCvt. MUFU takes rowMufuHandlers; F2F stays a Go kernel.
var rowCvtHandlers = [...]uint8{cvI2F: rhI2F, cvI2FU: rhI2FU, cvF2I: rhF2I, cvF2IU: rhF2IU}

// handler picks the op's handler. It is a property of the op alone, so a
// plan's rowLen does not depend on where it was built; trigPair may then
// trade a SIN's or COS's for its pair's, which changes no op's
// dispatchability. What gets none runs through the op's step: ops without a
// vector kernel (F2F, MUFU LG2 and EX2, the shared shapes and the atomics),
// an SM clock read (which issues alone anyway, see readsClock), and a .64
// load whose high half lands on RZ (it drops into scratch, which only the
// portable executor does).
func (op *rowOp) handler() uint8 {
	for i := range op.src {
		if o := &op.src[i]; o.base == rbSpecial && sass.SpecialReg(o.off) != sass.SRWarpID {
			return rhNone
		}
	}
	switch op.shape {
	case rsMov:
		return rhMov
	case rsSetP:
		return rhCmp + op.kern
	case rsLd64:
		if op.dst/rowBytes+1 == uint32(sass.RZ) {
			return rhNone
		}
		fallthrough
	case rsLd32, rsSt32, rsSt64:
		return rhLd32 + op.shape - rsLd32
	case rsBin, rsSel, rsTern, rsLop3:
		if rowVectorOps[op.kern] {
			return rhKern + op.kern
		}
	case rsCvt:
		if op.kern == cvMufu && int(op.lut) < len(rowMufuHandlers) {
			return rowMufuHandlers[op.lut]
		}
		if int(op.kern) < len(rowCvtHandlers) {
			return rowCvtHandlers[op.kern]
		}
	}
	return rhNone
}

// pairHandler returns the trig pair's handler for op followed by next: when
// op is a SIN or COS the dispatcher runs, next the other function, both read
// one source row without negation under one guard, and op does not write
// that source — so the pass that computes both reads what next would have
// read. Else rhNone.
func (op *rowOp) pairHandler(next *rowOp) uint8 {
	if op.hand != rhSin && op.hand != rhCos || next.hand != rhSin+rhCos-op.hand {
		return rhNone
	}
	x := op.src[0]
	if x != next.src[0] || x.neg != fnNone || op.guard != next.guard || op.gpred != next.gpred ||
		x.base == rbRegs && x.off == op.dst {
		return rhNone
	}
	return op.hand + rhPair
}

// setGuard copies the instruction guard into the op.
func (op *rowOp) setGuard(g sass.PredRef) {
	switch {
	case g.True():
		op.guard = rgNone
	case g.Pred == sass.PT:
		op.guard = rgOff
	case g.Neg:
		op.guard, op.gpred = rgNotPred, uint8(g.Pred&7)
	default:
		op.guard, op.gpred = rgPred, uint8(g.Pred&7)
	}
}

// guardMask returns the lanes of atPC the op executes on.
func (op *rowOp) guardMask(w *warp, atPC uint32) uint32 {
	switch op.guard {
	case rgNone:
		return atPC
	case rgPred:
		return atPC & w.preds[op.gpred]
	case rgNotPred:
		return atPC &^ w.preds[op.gpred]
	}
	return 0
}

// mask returns the lanes on which the predicate source reads true.
func (p rowPred) mask(w *warp) uint32 {
	switch p.sel {
	case rpTrue:
		return fullMask
	case rpPred:
		return w.preds[p.reg]
	case rpNotPred:
		return ^w.preds[p.reg]
	}
	return 0
}

// row returns the operand as a row for this execution. Registers, thread
// indices, uniform operands and arena rows are read in place; a warp-uniform
// special is broadcast into scratch, and a negated row is rewritten into
// scratch. The caller must treat the result as read-only.
func (o *rowOperand) row(blk *blockCtx, w *warp, scratch *regRow) *regRow {
	var r *regRow
	switch o.base {
	case rbRegs:
		r = &w.regs[o.off/rowBytes]
	case rbTid:
		r = &w.tid[o.off/rowBytes]
	case rbUniform:
		r = &blk.urows[o.off/rowBytes]
	case rbArena:
		r = &blk.plan.arena[o.off/rowBytes]
	default:
		return broadcast(scratch, negate(specialVal(blk, w, 0, sass.SpecialReg(o.off)), o.neg))
	}
	if o.neg != fnNone {
		rowNeg(o.neg, scratch, r)
		return scratch
	}
	return r
}

// execRow executes one op for the lanes in m (not empty), the guard already
// applied, and returns the trap of a memory access that faults. Destination /
// source aliasing needs no care: lane l's result depends only on lane l's
// operands, every row kernel reads a lane before it writes it, and negated or
// broadcast operands were copied to scratch before the kernel runs.
func (blk *blockCtx) execRow(w *warp, op *rowOp, m uint32) (TrapKind, uint32) {
	switch op.shape {
	case rsLd32, rsSt32, rsLd64, rsSt64:
		return blk.execGlobal(w, op, m)
	case rsLdS32, rsStS32:
		return blk.execShared(w, op, m)
	case rsRed, rsAtom:
		return blk.execAtomic(w, op, m)
	}
	rows := &blk.rows
	x := op.src[0].row(blk, w, &rows[rowA])
	if op.shape == rsMov {
		blk.storeRow(&w.regs[op.dst/rowBytes], x, m)
		return 0, 0
	}
	y := op.src[1].row(blk, w, &rows[rowB])
	if op.shape == rsSetP {
		r := cmpMask(fastCmp(op.kern), x, y)
		switch op.comb {
		case rcAnd:
			r &= op.pred.mask(w)
		case rcOr:
			r |= op.pred.mask(w)
		case rcXor:
			r ^= op.pred.mask(w)
		}
		pd := &w.preds[op.dst/4]
		*pd ^= (*pd ^ r) & m
		return 0, 0
	}
	dst := &w.regs[op.dst/rowBytes]
	out := blk.outRow(dst, m)
	switch op.shape {
	case rsBin:
		rowBin(fastOp(op.kern), out, x, y)
	case rsSel:
		rowSel(fastOp(op.kern), out, x, y, op.pred.mask(w))
	case rsCvt:
		hi := &rows[rowOut+1]
		rowCvt(op.kern, sass.MufuFn(op.lut), out, hi, x, y)
		if d := op.dst / rowBytes; op.kern == cvF2FWiden && d+1 != uint32(sass.RZ) {
			blk.storeRow(&w.regs[d+1], hi, m)
		}
	default:
		rowTern(fastOp(op.kern), out, x, y, op.src[2].row(blk, w, &rows[rowC]), op.lut)
	}
	blk.commit(dst, out, m)
	return 0, 0
}

// execShared executes LDS / STS .32: the active lanes in ascending order, each
// through the interpreter's sliceLoad / sliceStore over the block's shared
// window, so trap kinds, fault addresses and the first faulting lane are the
// interpreter's, and the lanes below a faulting one have completed.
func (blk *blockCtx) execShared(w *warp, op *rowOp, m uint32) (TrapKind, uint32) {
	addr := op.src[0].row(blk, w, nil) // a register or the zero row: read in place
	if op.shape == rsStS32 {
		v := op.src[1].row(blk, w, &blk.rows[rowA])
		for ; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			a := addr[l] + op.off
			if kind := sliceStore(blk.shared, a, 4, uint64(v[l]), TrapSharedBounds); kind != 0 {
				return kind, a
			}
		}
		return 0, 0
	}
	dst := &w.regs[op.dst/rowBytes]
	for ; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		a := addr[l] + op.off
		v, kind := sliceLoad(blk.shared, a, 4, TrapSharedBounds)
		if kind != 0 {
			return kind, a
		}
		dst[l] = uint32(v)
	}
	return 0, 0
}

// execGlobal executes a global load or store. A unit-stride warp whose span
// lies inside one page of one allocation moves as one masked row copy
// (unitStride, spanWindow). Everything else walks the active lanes in
// ascending order over a window on the last page touched; a miss goes through
// the same Memory.check the interpreter's Load and Store use, so trap kinds,
// fault addresses, and ascending-lane fault ordering are identical, and so is
// the refresh of the allocation memo. Store windows come from writePage, so
// the first touch of each page pays the copy-on-write fault exactly like
// Memory.Store; a never-written page is read through the zero page and stays
// unmaterialized. Unit-stride lanes hit distinct addresses, so the whole-warp
// path cannot reorder an intra-warp write conflict.
func (blk *blockCtx) execGlobal(w *warp, op *rowOp, m uint32) (TrapKind, uint32) {
	store := op.shape == rsSt32 || op.shape == rsSt64
	wide := op.shape == rsLd64 || op.shape == rsSt64
	width := uint32(4)
	if wide {
		width = 8
	}
	mem := blk.dev.Mem
	addr := op.src[0].row(blk, w, nil) // a register or the zero row: read in place
	var lo, hi *regRow
	switch op.shape {
	case rsLd32, rsLd64:
		// A pair whose high half lands on RZ drops it, like evalCtx.wrPair.
		d := op.dst / rowBytes
		lo, hi = &w.regs[d], &blk.rows[rowOut]
		if wide && d+1 != uint32(sass.RZ) {
			hi = &w.regs[d+1]
		}
	default:
		lo, hi = op.src[1].row(blk, w, &blk.rows[rowA]), op.src[2].row(blk, w, &blk.rows[rowB])
	}
	if a0, n, k := blk.unitStride(addr, op.off, m, width); k != nil {
		if win := mem.spanWindow(a0, n, width, store); win != nil {
			switch op.shape {
			case rsLd32:
				rowLoad32(lo, win, m, k)
			case rsSt32:
				rowStore32(win, lo, m, k)
			case rsLd64:
				rowLoad64(lo, hi, win, m, k)
			default:
				rowStore64(win, lo, hi, m, k)
			}
			return 0, 0
		}
	}
	var winBase uint32 // device address of win[0]
	var win []byte     // valid bytes of the cached page
	for l, last := bits.TrailingZeros32(m), 31-bits.LeadingZeros32(m); l <= last; l++ {
		if m>>uint(l)&1 == 0 {
			continue
		}
		a := addr[l&31] + op.off
		i := a - winBase
		if a&(width-1) != 0 || uint64(i)+uint64(width) > uint64(len(win)) {
			var kind TrapKind
			if winBase, win, kind = mem.pageWindow(a, width, store); kind != 0 {
				return kind, a
			}
			i = a - winBase
		}
		moveLane(win[i:], lo, hi, l, wide, store)
	}
	return 0, 0
}

// execAtomic executes RED / ATOM over global memory: the active lanes in
// ascending order, so lanes on one word serialise in lane order (F32 addition
// does not associate), each reading its word, writing atomApply's result and,
// for ATOM, its destination — after the lane's address and values were read,
// so a destination aliasing a source behaves as in the interpreter. Lanes
// reuse the window on the last page touched; a miss goes through
// Memory.pageWindow, whose check is the one the interpreter's Load and Store
// make, so trap kinds, fault addresses, the first faulting lane and the
// allocation memo are the interpreter's, and the lanes below a faulting one
// have committed. The window is writePage's: the first lane on a page pays the
// copy-on-write fault the interpreter's Store pays. .ADD.F32 calls atomApply's
// kernel for it, fadd32bits, in-line.
func (blk *blockCtx) execAtomic(w *warp, op *rowOp, m uint32) (TrapKind, uint32) {
	mem := blk.dev.Mem
	atom, float := sass.AtomOp(op.kern), op.lut != 0
	addF32 := atom == sass.AtomAdd && float
	addr := op.src[0].row(blk, w, nil) // a register or the zero row: read in place
	val, swap := op.src[1].row(blk, w, &blk.rows[rowA]), op.src[2].row(blk, w, &blk.rows[rowB])
	dst := &blk.rows[rowOut]
	if op.shape == rsAtom {
		dst = &w.regs[op.dst/rowBytes]
	}
	var winBase uint32 // device address of win[0]
	var win []byte     // valid bytes of the cached page
	for ; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		a := addr[l] + op.off
		i := a - winBase
		if a&3 != 0 || uint64(i)+4 > uint64(len(win)) {
			var kind TrapKind
			if winBase, win, kind = mem.pageWindow(a, 4, true); kind != 0 {
				return kind, a
			}
			i = a - winBase
		}
		p := win[i : i+4]
		cur := binary.LittleEndian.Uint32(p)
		var v uint32
		if addF32 {
			v = fadd32bits(cur, val[l]) // atomApply's .ADD.F32, in-line
		} else {
			v = atomApply(atom, float, cur, val[l], swap[l])
		}
		binary.LittleEndian.PutUint32(p, v)
		dst[l] = cur
	}
	return 0, 0
}

// runRowsPortable is runRows in Go: the row ops of instructions [pc, pc+n) for
// the lanes in atPC, each issue counted into tally[pc:] when tally is not nil.
// It returns the thread-level executions and where the stretch stopped: pc+n,
// or the op whose global access trapped, with the trap. A trapping op's lanes
// are counted into threads but not into the tally, as the batch loops count a
// trapping step. An op whose guard leaves no lane still issues.
func (blk *blockCtx) runRowsPortable(w *warp, pc, n int32, atPC uint32, tally []SiteTally) (threads uint64, at int32, kind TrapKind, faultAddr uint32) {
	for end := pc + n; pc < end; pc++ {
		var lanes uint64
		lanes, kind, faultAddr = blk.issueRow(w, pc, atPC, tally)
		threads += lanes
		if kind != 0 {
			return threads, pc, kind, faultAddr
		}
	}
	return threads, pc, 0, 0
}

// issueRow issues the row op of instruction pc for the lanes in atPC, as one
// step of runRowsPortable.
func (blk *blockCtx) issueRow(w *warp, pc int32, atPC uint32, tally []SiteTally) (lanes uint64, kind TrapKind, faultAddr uint32) {
	op := &blk.plan.ops[pc]
	m := op.guardMask(w, atPC)
	lanes = uint64(popcount(m))
	if m != 0 {
		if kind, faultAddr = blk.execRow(w, op, m); kind != 0 {
			return lanes, kind, faultAddr
		}
	}
	if tally != nil {
		tally[pc].add(lanes)
	}
	return lanes, 0, 0
}

// rowStep is the one-op step of a row instruction, for whatever issues it
// outside a runRows stretch: a callback site, a corruption's live site, an
// instruction issued alone. Its caller has applied the guard — before any
// Before callback ran, which may rewrite the guard's predicate — so the step
// runs a copy of the op without one, made here, once.
//
//go:noinline
func rowStep(op *rowOp) planStep {
	one := *op
	one.guard = rgNone
	return func(blk *blockCtx, w *warp, m uint32) (bool, TrapKind, uint32) {
		if m == 0 {
			return false, 0, 0
		}
		kind, faultAddr := blk.execOne(w, &one, m)
		return false, kind, faultAddr
	}
}
