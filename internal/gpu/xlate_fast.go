package gpu

import (
	"math"
	"slices"

	"repro/internal/sass"
)

// This file is the row tier of the instruction translator (DESIGN.md
// section 3.11). For the operand shapes that account for nearly all dynamic
// instructions — a destination register plus register / immediate /
// constant-bank / special-register sources — fastStep encodes the instruction
// as a row op (rowprog.go): a kernel index, a guard, a destination and up to
// three operands, each a base selector and a byte offset. A warp instruction
// is then a vector operation over register rows: every source resolves to a
// *regRow once per execution, and the op is one row kernel (rowops_*.go: AVX2
// assembly where the platform has it, a branch-free Go loop elsewhere) over
// all 32 lanes with no per-lane mask, shape, or bounds test. A straight-line
// stretch of row ops executes inside one routine (blockCtx.runRows), not
// through one closure per instruction; the ops without a handler (MUFU LG2
// and EX2, F2F, shared-memory accesses, RED and ATOM) run one at a time
// through the portable executor, and only the FP64 pair ops (fastDStep) are
// still closures, their lane loops being scalar Go either way.
//
// Compute-and-merge rule: under a partial exec mask the kernel still computes
// all 32 lanes and only the active ones reach the destination — blended in
// the kernel's own epilogue in the assembly dispatcher, through a scratch row
// and mergeRow everywhere else. That is sound only because every op in this file is pure:
// no side effect, and no host panic whatever an inactive lane's (possibly
// fault-corrupted) operands hold. Memory, atomics, and anything that can
// divide or index by a lane value never take this path: the memory accesses
// and atomics that are row ops (xlate_mem.go, memRowOp and atomRowOp) touch
// only the active lanes' bytes and registers.
//
// Any shape the row tier does not cover runs on the interpreter thunk, so
// translation preserves exact interpreted behavior. No shipped kernel reaches
// it (TestShippedKernelsNeverThunk).

// Scratch-row assignment within blockCtx.rows. 32-bit ops use one row per
// source; FP64 ops use a lo/hi pair per source.
const (
	rowA   = 0
	rowB   = 2
	rowC   = 4
	rowOut = 6

	numScratchRows = 8
)

// Read-only rows shared by every plan and warp.
var (
	onesRow   = laneRow(func(uint) uint32 { return fullMask }) // fullMask's select words
	laneIDRow = laneRow(func(l uint) uint32 { return uint32(l) })
	eqMaskRow = laneRow(func(l uint) uint32 { return 1 << l })
	ltMaskRow = laneRow(func(l uint) uint32 { return 1<<l - 1 })
)

func laneRow(f func(lane uint) uint32) (r regRow) {
	for l := range r {
		r[l] = f(uint(l))
	}
	return r
}

func broadcast(r *regRow, v uint32) *regRow {
	rowBroadcast(r, v)
	return r
}

// laneMasks expands an exec mask into a row of per-lane select words: all
// ones on the lanes in m, zero elsewhere. Consecutive warp instructions
// nearly always run under the same mask, so the row is cached per block.
func (blk *blockCtx) laneMasks(m uint32) *regRow {
	if blk.maskFor != m {
		blk.maskFor = m
		rowExpandMask(&blk.maskRow, m)
	}
	return &blk.maskRow
}

// mergeRow copies src's lanes in m into dst, leaving the rest untouched.
func (blk *blockCtx) mergeRow(dst, src *regRow, m uint32) {
	rowMerge(dst, src, blk.laneMasks(m))
}

// storeRow commits a source row to a destination under the exec mask.
func (blk *blockCtx) storeRow(dst, src *regRow, m uint32) {
	if m == fullMask {
		*dst = *src
	} else {
		blk.mergeRow(dst, src, m)
	}
}

// rowTable collects, while one plan is translated, the read-only rows its
// ops will resolve to: the arena of folded immediates and lane patterns
// (xplan.arena), one row per distinct value, immutable after translation and
// shared by every execution of the plan; and the plan's uniform operands
// (xplan.uniforms), numbered here and broadcast by whichever block slot runs
// the plan. Operands hold byte offsets into either, never a pointer: the arena
// grows while the plan is translated.
type rowTable struct {
	arena    []regRow
	uniforms []uniformSrc
}

// newRowTable starts the arena with the zero row, at offset 0: what an unused
// operand of an op reads.
func newRowTable() *rowTable {
	return &rowTable{arena: make([]regRow, 1, 4)}
}

// row returns the arena offset of a row with r's contents, adding it on first
// use. A kernel has a handful of distinct rows: a scan finds one.
func (rt *rowTable) row(r *regRow) uint32 {
	i := slices.Index(rt.arena, *r)
	if i < 0 {
		i = len(rt.arena)
		rt.arena = append(rt.arena, *r)
	}
	return uint32(i) * rowBytes
}

// imm returns the operand reading v in every lane.
func (rt *rowTable) imm(v uint32) rowOperand {
	var r regRow
	return rowOperand{base: rbArena, off: rt.row(broadcast(&r, v))}
}

// uniform returns the operand of a uniform source, numbering its slot on
// first use.
func (rt *rowTable) uniform(u uniformSrc) rowOperand {
	for i := range rt.uniforms {
		if rt.uniforms[i] == u {
			return rowOperand{base: rbUniform, off: uint32(i) * rowBytes}
		}
	}
	rt.uniforms = append(rt.uniforms, u)
	return rowOperand{base: rbUniform, off: uint32(len(rt.uniforms)-1) * rowBytes}
}

// Negation modes, mirroring the interpreter's operand reads: fnInt is
// evalCtx.isrc's two's complement, fnFloat is evalCtx.fbits' sign-bit flip.
// Immediates fold their negation at classification time and always carry
// fnNone.
const (
	fnNone uint8 = iota
	fnInt
	fnFloat
)

func negate(v uint32, mode uint8) uint32 {
	switch mode {
	case fnInt:
		return -v
	case fnFloat:
		return v ^ 0x80000000
	}
	return v
}

// rowOperandFor classifies one source under the given negation mode. The bool
// result is false when the row tier cannot encode the operand: missing
// operands, or shapes the interpreter would reject.
func rowOperandFor(in *sass.Instr, idx int, neg uint8, rt *rowTable) (rowOperand, bool) {
	if idx >= len(in.Src) {
		return rowOperand{}, false
	}
	o := &in.Src[idx]
	m := fnNone
	if o.Neg {
		m = neg
	}
	switch o.Kind {
	case sass.OpdReg:
		if o.Reg == sass.RZ {
			return rt.imm(negate(0, m)), true
		}
		return rowOperand{base: rbRegs, off: uint32(o.Reg) * rowBytes, neg: m}, true
	case sass.OpdImm:
		return rt.imm(negate(o.Imm, m)), true
	case sass.OpdLabel:
		return rt.imm(negate(uint32(o.Target), m)), true
	case sass.OpdConst:
		return rt.uniform(uniformSrc{off: o.Off, neg: m}), true
	case sass.OpdSpecial:
		return specialOperand(o.SReg, m, rt), true
	}
	return rowOperand{}, false
}

// specialOperand classifies a special-register source: thread indices are
// rows of the warp, block-uniform ones rows of the slot, lane patterns (and
// the unknown registers, which read zero) rows of the arena with the negation
// folded in; the warp id and the clock are warp-invariant within one step and
// broadcast per execution.
func specialOperand(sr sass.SpecialReg, neg uint8, rt *rowTable) rowOperand {
	lanes := func(r *regRow) rowOperand {
		n := *r
		rowNegGeneric(neg, &n, r)
		return rowOperand{base: rbArena, off: rt.row(&n)}
	}
	if blockUniform(sr) {
		return rt.uniform(uniformSrc{sreg: sr, neg: neg})
	}
	switch sr {
	case sass.SRTidX, sass.SRTidY, sass.SRTidZ:
		return rowOperand{base: rbTid, off: uint32(sr-sass.SRTidX) * rowBytes, neg: neg}
	case sass.SRLaneID:
		return lanes(&laneIDRow)
	case sass.SREqMask:
		return lanes(&eqMaskRow)
	case sass.SRLtMask:
		return lanes(&ltMaskRow)
	case sass.SRWarpID, sass.SRClock:
		return rowOperand{base: rbSpecial, off: uint32(sr), neg: neg}
	}
	return rt.imm(negate(0, neg))
}

// rowPredFor classifies a predicate source: PT, a missing operand and a
// non-predicate operand read true.
func rowPredFor(in *sass.Instr, idx int) rowPred {
	if idx >= len(in.Src) || in.Src[idx].Kind != sass.OpdPred {
		return rowPred{sel: rpTrue}
	}
	switch pr := in.Src[idx].Pred; {
	case pr.Pred != sass.PT && pr.Neg:
		return rowPred{sel: rpNotPred, reg: uint8(pr.Pred & 7)}
	case pr.Pred != sass.PT:
		return rowPred{sel: rpPred, reg: uint8(pr.Pred & 7)}
	case pr.Neg:
		return rowPred{sel: rpFalse}
	}
	return rowPred{sel: rpTrue}
}

// fastDst accepts only a plain non-RZ destination register; RZ and predicate
// destinations keep the interpreter's drop/write-through behavior.
func fastDst(in *sass.Instr) (sass.RegID, bool) {
	if len(in.Dst) == 0 || in.Dst[0].Kind != sass.OpdReg || in.Dst[0].Reg == sass.RZ {
		return 0, false
	}
	return in.Dst[0].Reg, true
}

// fastDstP accepts only a real predicate destination (writes to PT drop).
func fastDstP(in *sass.Instr) (sass.PredID, bool) {
	if len(in.Dst) == 0 || in.Dst[0].Kind != sass.OpdPred || in.Dst[0].Pred.Pred == sass.PT {
		return 0, false
	}
	return in.Dst[0].Pred.Pred, true
}

// fastOp tags the operation of a row op (rowOp.kern) or an FP64 closure. It
// selects the row kernel once per execution, outside the lane loop.
type fastOp uint8

const (
	// two-source (or fewer) register-result ops
	fopAdd fastOp = iota
	fopMul
	fopMulHiS
	fopMulHiU
	fopAnd
	fopOr
	fopXor
	fopShl
	fopShrU
	fopShrS
	fopFAdd
	fopFMul
	fopPopc
	fopBrev
	fopFlo

	// three-source register-result ops
	fopImadLo
	fopImadHiS
	fopImadHiU
	fopIAdd3
	fopLea
	fopFFma
	fopLop3

	// predicate-selected register-result ops
	fopSel
	fopIMnMxS
	fopIMnMxU
	fopFMnMx

	// FP64 pair-result ops
	fopDAdd
	fopDMul
	fopDFma
	fopDMnMx

	numFastOps
)

// outRow picks where a step computes: the destination row itself under a
// full mask, the scratch result row otherwise (merged by commit).
func (blk *blockCtx) outRow(dst *regRow, m uint32) *regRow {
	if m == fullMask {
		return dst
	}
	return &blk.rows[rowOut]
}

// commit folds a scratch result into the destination; a result computed in
// place needs nothing.
func (blk *blockCtx) commit(dst, out *regRow, m uint32) {
	if out != dst {
		blk.mergeRow(dst, out, m)
	}
}

// fastDSrcFor classifies one FP64 source as its low and high word rows,
// mirroring evalCtx.dsrc's quirks exactly: a register pair reads under
// readPairReg's RZ rules and negates by flipping the high word's sign bit, a
// constant-bank double is a pair of uniform slots (the high word's carries the
// sign flip), a float immediate widens with negation ignored, and any other
// shape reads ±0.0. dsrc accepts every operand kind, so the only rejection is
// a missing operand.
func fastDSrcFor(in *sass.Instr, idx int, rt *rowTable) (lo, hi rowOperand, ok bool) {
	if idx >= len(in.Src) {
		return lo, hi, false
	}
	o := &in.Src[idx]
	neg := fnNone
	if o.Neg {
		neg = fnFloat
	}
	switch {
	case o.Kind == sass.OpdReg && o.Reg != sass.RZ:
		lo = rowOperand{base: rbRegs, off: uint32(o.Reg) * rowBytes}
		if o.Reg+1 == sass.RZ {
			return lo, rt.imm(negate(0, neg)), true
		}
		return lo, rowOperand{base: rbRegs, off: uint32(o.Reg+1) * rowBytes, neg: neg}, true
	case o.Kind == sass.OpdConst:
		return rt.uniform(uniformSrc{off: o.Off}), rt.uniform(uniformSrc{off: o.Off + 4, neg: neg}), true
	case o.Kind == sass.OpdImm:
		// dsrc's quirk: a float immediate in a double context widens with
		// negation ignored.
		b := math.Float64bits(float64(math.Float32frombits(o.Imm)))
		return rt.imm(uint32(b)), rt.imm(uint32(b >> 32)), true
	}
	return rt.imm(0), rt.imm(negate(0, neg)), true
}

func pairF64(lo, hi *regRow, l int) float64 {
	return math.Float64frombits(uint64(hi[l])<<32 | uint64(lo[l]))
}

// fastDStep fuses the FP64 pair ops (DADD, DMUL, DFMA, DMNMX); src holds each
// source's low and high word operands. The destination write mirrors
// evalCtx.wrPair: writeHi is false when the high half lands on RZ, and the high
// words are then computed into scratch and dropped.
//
//go:noinline
func fastDStep(op fastOp, d sass.RegID, writeHi bool, src [3][2]rowOperand, p rowPred) planStep {
	return func(blk *blockCtx, w *warp, m uint32) (bool, TrapKind, uint32) {
		if m == 0 {
			return false, 0, 0
		}
		rows := &blk.rows
		alo, ahi := src[0][0].row(blk, w, &rows[rowA]), src[0][1].row(blk, w, &rows[rowA+1])
		blo, bhi := src[1][0].row(blk, w, &rows[rowB]), src[1][1].row(blk, w, &rows[rowB+1])
		dlo, dhi := &w.regs[d], &rows[rowOut+1]
		if writeHi {
			dhi = &w.regs[d+1]
		}
		olo, ohi := dlo, dhi
		if m != fullMask {
			olo, ohi = &rows[rowOut], &rows[rowOut+1]
		}
		put := func(l int, v float64) {
			b := math.Float64bits(v)
			olo[l], ohi[l] = uint32(b), uint32(b>>32)
		}
		switch op {
		case fopDAdd:
			for l := range olo {
				put(l, pairF64(alo, ahi, l)+pairF64(blo, bhi, l))
			}
		case fopDMul:
			for l := range olo {
				put(l, pairF64(alo, ahi, l)*pairF64(blo, bhi, l))
			}
		case fopDFma:
			clo, chi := src[2][0].row(blk, w, &rows[rowC]), src[2][1].row(blk, w, &rows[rowC+1])
			for l := range olo {
				put(l, math.FMA(pairF64(alo, ahi, l), pairF64(blo, bhi, l), pairF64(clo, chi, l)))
			}
		case fopDMnMx:
			pm := p.mask(w)
			for l := range olo {
				x, y := pairF64(alo, ahi, l), pairF64(blo, bhi, l)
				if pm>>uint(l)&1 != 0 {
					put(l, math.Min(x, y))
				} else {
					put(l, math.Max(x, y))
				}
			}
		}
		if m != fullMask {
			blk.mergeRow(dlo, olo, m)
			if writeHi {
				blk.mergeRow(dhi, ohi, m)
			}
		}
		return false, 0, 0
	}
}

// fastCmp is the comparison pre-resolved from (float, unsigned, CmpOp) at
// translation time, so each setp loop is one compare per lane instead of a
// call into icompare/fcompare's full switches.
type fastCmp uint8

const (
	fcF  fastCmp = iota // constant false: CmpF and every unhandled op
	fcT                 // constant true
	fcEQ                // integer compares (EQ/NE are sign-agnostic)
	fcNE
	fcLTS
	fcLES
	fcGTS
	fcGES
	fcLTU
	fcLEU
	fcGTU
	fcGEU
	fcFEQ // float compares: IEEE semantics, NaN compares false
	fcFNE
	fcFLT
	fcFLE
	fcFGT
	fcFGE
	fcFNum
	fcFNan

	numFastCmps
)

// fastCmpFor mirrors the interpreter's icompare/fcompare dispatch exactly:
// ops either switch table leaves at "default: return false" resolve to fcF.
func fastCmpFor(float, unsigned bool, c sass.CmpOp) fastCmp {
	if float {
		switch c {
		case sass.CmpEQ:
			return fcFEQ
		case sass.CmpNE:
			return fcFNE
		case sass.CmpLT:
			return fcFLT
		case sass.CmpLE:
			return fcFLE
		case sass.CmpGT:
			return fcFGT
		case sass.CmpGE:
			return fcFGE
		case sass.CmpNum:
			return fcFNum
		case sass.CmpNan:
			return fcFNan
		case sass.CmpT:
			return fcT
		}
		return fcF
	}
	switch c {
	case sass.CmpEQ:
		return fcEQ
	case sass.CmpNE:
		return fcNE
	case sass.CmpT:
		return fcT
	case sass.CmpLT, sass.CmpLE, sass.CmpGT, sass.CmpGE:
		if unsigned {
			switch c {
			case sass.CmpLT:
				return fcLTU
			case sass.CmpLE:
				return fcLEU
			case sass.CmpGT:
				return fcGTU
			}
			return fcGEU
		}
		switch c {
		case sass.CmpLT:
			return fcLTS
		case sass.CmpLE:
			return fcLES
		case sass.CmpGT:
			return fcGTS
		}
		return fcGES
	}
	return fcF
}

// fastStep tries the row tier for one instruction: it encodes the row op, with
// the dispatcher's handler for it, in *op and returns the op's one-op step, or
// returns an FP64 closure (leaving *op zero), or nil when the shape falls to
// the interpreter thunk.
func fastStep(in *sass.Instr, rt *rowTable, op *rowOp) planStep {
	if enc, ok := rowOpFor(in, rt); ok {
		enc.setGuard(in.Guard)
		enc.hand = enc.handler()
		*op = enc
		return rowStep(op)
	}
	return fastDFor(in, rt)
}

// trigPair gives each SIN or COS whose next op is the other function of the
// same source the pair's handler (rowOp.pairHandler): 314.omriq's k-loop and
// 352.ep's gauss_pairs take COS and SIN of one angle, which the dispatcher
// then reduces and evaluates once. Each op keeps its own row op, so what is
// per pc — stretch cuts, sites, tallies, budgets — does not change; the op
// steps built before (rowStep) keep the single function.
func trigPair(ops []rowOp) {
	for i := 0; i+1 < len(ops); i++ {
		if h := ops[i].pairHandler(&ops[i+1]); h != rhNone {
			ops[i].hand = h
		}
	}
}

// rowOpFor encodes one instruction as a row op, guard aside.
func rowOpFor(in *sass.Instr, rt *rowTable) (op rowOp, _ bool) {
	mods := &in.Mods
	sem := in.Op.Info().Sem
	switch sem {
	case sass.SemLd, sass.SemSt:
		return memRowOp(in, rt)
	case sass.SemAtom, sass.SemRed:
		return atomRowOp(in, rt)
	}
	// srcs classifies the first n sources under one negation mode; the op's
	// unused operands read the arena's zero row.
	srcs := func(n int, neg uint8) bool {
		for i := range op.src {
			op.src[i] = rowOperand{base: rbArena}
			if i < n {
				o, ok := rowOperandFor(in, i, neg, rt)
				if !ok {
					return false
				}
				op.src[i] = o
			}
		}
		return true
	}
	if sem == sass.SemISetP || sem == sass.SemFSetP {
		d, ok := fastDstP(in)
		if !ok {
			return op, false
		}
		float := sem == sass.SemFSetP
		neg := fnNone
		if float {
			neg = fnFloat
		}
		if !srcs(2, neg) {
			return op, false
		}
		op.shape, op.dst = rsSetP, uint32(d&7)*4
		op.kern = uint8(fastCmpFor(float, mods.Unsigned, mods.Cmp))
		if len(in.Src) > 2 {
			switch mods.Bool {
			case sass.BoolAnd:
				op.comb = rcAnd
			case sass.BoolOr:
				op.comb = rcOr
			case sass.BoolXor:
				op.comb = rcXor
			}
			op.pred = rowPredFor(in, 2)
		}
		return op, true
	}

	d, ok := fastDst(in)
	if !ok {
		return op, false
	}
	op.dst = uint32(d) * rowBytes
	var kern fastOp
	neg, nsrc := fnNone, 2
	switch sem {
	case sass.SemMov:
		op.shape = rsMov
		return op, srcs(1, fnInt)
	case sass.SemMufu:
		op.shape, op.kern, op.lut = rsCvt, cvMufu, uint8(mods.Mufu)
		return op, srcs(1, fnFloat)
	case sass.SemI2F:
		op.shape, op.kern = rsCvt, cvI2F
		if mods.Unsigned {
			op.kern = cvI2FU
		}
		return op, srcs(1, fnNone)
	case sass.SemF2I:
		op.shape, op.kern = rsCvt, cvF2I
		if mods.Unsigned {
			op.kern = cvF2IU
		}
		return op, srcs(1, fnFloat)
	case sass.SemF2F:
		op.shape, op.kern = rsCvt, cvF2FWiden
		if mods.Width == 8 {
			return op, srcs(1, fnFloat)
		}
		op.kern = cvF2FNarrow
		srcs(0, fnNone)
		var ok bool
		op.src[0], op.src[1], ok = fastDSrcFor(in, 0, rt)
		return op, ok
	case sass.SemS2R:
		// S2R reads Src[0].SReg whatever the operand's kind, with no
		// negation: a pass-through of the special register's row.
		if len(in.Src) == 0 {
			return op, false
		}
		srcs(0, fnNone)
		op.shape, op.src[0] = rsMov, specialOperand(in.Src[0].SReg, fnNone, rt)
		return op, true

	case sass.SemIAdd:
		op.shape, kern, neg = rsBin, fopAdd, fnInt
	case sass.SemIMul:
		op.shape, kern, neg = rsBin, fopMul, fnInt
		if mods.High {
			kern = fopMulHiS
			if mods.Unsigned {
				kern = fopMulHiU
			}
		}
	case sass.SemLop:
		op.shape = rsBin
		switch mods.Logic {
		case sass.LogicOr:
			kern = fopOr
		case sass.LogicXor:
			kern = fopXor
		case sass.LogicPassB:
			// The second source passes through; the first is classified (a
			// shape the interpreter rejects still falls back) and dropped.
			if !srcs(2, fnNone) {
				return op, false
			}
			op.shape, op.src[0], op.src[1] = rsMov, op.src[1], rowOperand{base: rbArena}
			return op, true
		default:
			kern = fopAnd
		}
	case sass.SemShl:
		op.shape, kern = rsBin, fopShl
	case sass.SemShr:
		op.shape, kern = rsBin, fopShrS
		if mods.Unsigned {
			kern = fopShrU
		}
	case sass.SemFAdd:
		op.shape, kern, neg = rsBin, fopFAdd, fnFloat
	case sass.SemFMul:
		op.shape, kern, neg = rsBin, fopFMul, fnFloat
	// Unary: the second source stays the zero row.
	case sass.SemPopc:
		op.shape, kern, nsrc = rsBin, fopPopc, 1
	case sass.SemBrev:
		op.shape, kern, nsrc = rsBin, fopBrev, 1
	case sass.SemFlo:
		op.shape, kern, nsrc = rsBin, fopFlo, 1

	case sass.SemIMad:
		op.shape, kern, neg = rsTern, fopImadLo, fnInt
		if mods.High {
			kern = fopImadHiS
			if mods.Unsigned {
				kern = fopImadHiU
			}
		}
	case sass.SemIAdd3:
		op.shape, kern, neg = rsTern, fopIAdd3, fnInt
	case sass.SemISCAdd, sass.SemLea:
		op.shape, kern = rsTern, fopLea
	case sass.SemFFma:
		op.shape, kern, neg = rsTern, fopFFma, fnFloat
	case sass.SemLop3:
		// The truth table must be a plain immediate; anything else (the
		// interpreter reads it per lane) falls to the next tier.
		if len(in.Src) < 4 || in.Src[3].Kind != sass.OpdImm || in.Src[3].Neg {
			return op, false
		}
		op.shape, kern, op.lut = rsLop3, fopLop3, uint8(in.Src[3].Imm)

	case sass.SemSel:
		op.shape, kern = rsSel, fopSel
	case sass.SemFSel:
		op.shape, kern, neg = rsSel, fopSel, fnFloat
	case sass.SemIMnMx:
		op.shape, kern = rsSel, fopIMnMxS
		if mods.Unsigned {
			kern = fopIMnMxU
		}
	case sass.SemFMnMx:
		op.shape, kern, neg = rsSel, fopFMnMx, fnFloat
	default:
		return op, false
	}
	op.kern = uint8(kern)
	switch op.shape {
	case rsTern, rsLop3:
		nsrc = 3
	case rsSel:
		op.pred = rowPredFor(in, 2)
	}
	return op, srcs(nsrc, neg)
}

// fastDFor builds the closure of an FP64 pair op.
func fastDFor(in *sass.Instr, rt *rowTable) planStep {
	var op fastOp
	sem := in.Op.Info().Sem
	switch sem {
	case sass.SemDAdd:
		op = fopDAdd
	case sass.SemDMul:
		op = fopDMul
	case sass.SemDFma:
		op = fopDFma
	case sass.SemDMnMx:
		op = fopDMnMx
	default:
		return nil
	}
	d, ok := fastDst(in)
	if !ok {
		return nil
	}
	var src [3][2]rowOperand
	n := 2
	if sem == sass.SemDFma {
		n = 3
	}
	for i := range n {
		if src[i][0], src[i][1], ok = fastDSrcFor(in, i, rt); !ok {
			return nil
		}
	}
	return fastDStep(op, d, d+1 != sass.RZ, src, rowPredFor(in, 2))
}
