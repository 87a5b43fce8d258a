package gpu

import "repro/internal/sass"

// Row programs (DESIGN.md section 3.11, "Row programs"). The row tier's
// instructions are data: translation encodes each as one fixed-size rowOp in
// xplan.ops, indexed by pc, and a straight-line stretch of them executes
// inside one routine — runRows — that walks ops[pc:pc+n] and per op evaluates
// the guard, counts the executing lanes (into the launch's thread count and,
// when it tallies, the instruction's SiteTally), resolves the operands to
// rows, runs the row kernel and merges the result under a partial mask. On
// amd64 with AVX2 that routine is the assembly dispatcher of rowprog_amd64.s,
// which CALLs the kernels of rowops_amd64.s; this file holds the encoding and
// the portable executor of the same ops, written over the row primitives
// (rowBin, rowTern, rowSel, cmpMask: the portable loops wherever there are no
// vector kernels). The portable executor is the whole path there, the one-op
// step behind xinstr.step everywhere (single issue, an instruction at a
// callback site, a row op no vector kernel covers), and the oracle the
// dispatcher is held to, bit for bit (rowprog_test.go).
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

// Op shapes: which kernel signature an op calls and what it writes. The order
// matters to the dispatcher: shapes from rsTern on read a third source.
const (
	rsNone uint8 = iota // not a row op
	rsMov               // dst = src[0] (MOV, S2R, LOP.PASS_B)
	rsBin               // dst = kern(src[0], src[1])
	rsSel               // dst = kern(src[0], src[1], pred source): SEL, FSEL, IMNMX, FMNMX
	rsSetP              // predicate dst = cmp(src[0], src[1]) combined with the pred source
	rsTern              // dst = kern(src[0], src[1], src[2])
	rsLop3              // rsTern with LOP3's truth table
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

// SETP combines; rcNone passes the comparison through like boolQualify.
const (
	rcNone uint8 = iota
	rcAnd
	rcOr
	rcXor
)

// rowOp is one row-tier instruction.
type rowOp struct {
	shape uint8
	kern  uint8 // a fastOp; a fastCmp for rsSetP
	guard uint8
	gpred uint8  // guard predicate, rgPred / rgNotPred
	dst   uint32 // byte offset of the destination row in warp.regs; of the predicate word in warp.preds for rsSetP
	src   [3]rowOperand
	pred  rowPred
	comb  uint8 // rsSetP
	lut   uint8 // rsLop3
}

// rowPred is a pre-resolved predicate source: a constant or a predicate
// register's lane mask, possibly complemented.
type rowPred struct {
	sel uint8 // rp*
	reg uint8 // rpPred, rpNotPred
}

// rowVectorOps lists the fastOps with an entry in the dispatcher's kernel
// table (TestRowAsmHygiene holds the two to each other). AVX2 has no 32-bit
// multiply-high, popcount, bit reverse or leading-zero count; no shipped
// kernel issues one on the row tier.
var rowVectorOps = [numFastOps]bool{
	fopAdd: true, fopMul: true, fopAnd: true, fopOr: true, fopXor: true,
	fopShl: true, fopShrU: true, fopShrS: true, fopFAdd: true, fopFMul: true,
	fopImadLo: true, fopIAdd3: true, fopLea: true, fopFFma: true, fopLop3: true,
	fopSel: true, fopIMnMxS: true, fopIMnMxU: true, fopFMnMx: true,
}

// dispatchable reports whether the op may sit inside a stretch handed to
// runRows. It is a property of the op alone, the same on every platform, so a
// plan's rowLen does not depend on where it was built. What it excludes runs
// through the op's step: ops without a vector kernel, and an SM clock read
// (which issues alone anyway, see readsClock).
func (op *rowOp) dispatchable() bool {
	for i := range op.src {
		if o := &op.src[i]; o.base == rbSpecial && sass.SpecialReg(o.off) != sass.SRWarpID {
			return false
		}
	}
	switch op.shape {
	case rsNone:
		return false
	case rsMov, rsSetP:
		return true
	}
	return rowVectorOps[op.kern]
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
// applied. Destination/source aliasing needs no care: lane l's result depends
// only on lane l's operands, every row kernel reads a lane before it writes
// it, and negated or broadcast operands were copied to scratch before the
// kernel runs.
func (blk *blockCtx) execRow(w *warp, op *rowOp, m uint32) {
	rows := &blk.rows
	x := op.src[0].row(blk, w, &rows[rowA])
	if op.shape == rsMov {
		blk.storeRow(&w.regs[op.dst/rowBytes], x, m)
		return
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
		return
	}
	dst := &w.regs[op.dst/rowBytes]
	out := blk.outRow(dst, m)
	switch op.shape {
	case rsBin:
		rowBin(fastOp(op.kern), out, x, y)
	case rsSel:
		rowSel(fastOp(op.kern), out, x, y, op.pred.mask(w))
	default:
		rowTern(fastOp(op.kern), out, x, y, op.src[2].row(blk, w, &rows[rowC]), op.lut)
	}
	blk.commit(dst, out, m)
}

// runRowsPortable is runRows in Go: the row ops of instructions [pc, pc+n) for
// the lanes in atPC, each issue counted into tally[pc:] when tally is not nil.
// It returns the thread-level executions. An op whose guard leaves no lane
// still issues.
func (blk *blockCtx) runRowsPortable(w *warp, pc, n int32, atPC uint32, tally []SiteTally) (threads uint64) {
	ops := blk.plan.ops[pc : pc+n]
	for i := range ops {
		op := &ops[i]
		m := op.guardMask(w, atPC)
		lanes := uint64(popcount(m))
		threads += lanes
		if m != 0 {
			blk.execRow(w, op, m)
		}
		if tally != nil {
			tally[int(pc)+i].add(lanes)
		}
	}
	return threads
}

// rowStep is the one-op step of a row instruction, for whatever issues it
// outside a runRows stretch.
//
//go:noinline
func rowStep(op *rowOp) planStep {
	return func(blk *blockCtx, w *warp, m uint32) (bool, TrapKind, uint32) {
		if m != 0 {
			blk.execRow(w, op, m)
		}
		return false, 0, 0
	}
}
