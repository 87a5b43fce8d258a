package gpu

import (
	"math"

	"repro/internal/sass"
)

// This file is the row tier of the instruction specializer (DESIGN.md
// section 3.11). The accessor tier in xlate_ops.go is fully general but pays
// several indirect calls per lane. For the operand shapes that account for
// nearly all dynamic instructions — a destination register plus register /
// immediate / constant-bank / special-register sources — fastStep emits one
// closure that executes the warp instruction as a vector operation over
// register rows: every source resolves to a *regRow once per execution, and
// the op is one row kernel (rowops_*.go: AVX2 assembly where the platform has
// it, a branch-free Go loop elsewhere) over all 32 lanes with no per-lane
// mask, shape, or bounds test.
//
// Compute-and-merge rule: under a partial exec mask the kernel still computes
// all 32 lanes, into a scratch row, and mergeRow folds the active lanes into
// the destination. That is sound only because every op in this file is pure:
// no side effect, and no host panic whatever an inactive lane's (possibly
// fault-corrupted) operands hold. Memory, atomics, and anything that can
// divide or index by a lane value never take this path.
//
// Any shape the row tier does not cover falls back to the accessor tier, and
// from there to the interpreter thunk, so every tier preserves exact
// interpreted behavior.

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
	zeroRow   regRow
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
// steps will resolve to: the interned broadcast rows of folded immediates,
// which exist once per repeated constant, are immutable after translation and
// shared by every execution of the plan; and the plan's uniform operands
// (xplan.uniforms), numbered here and broadcast by whichever block slot runs
// the plan.
type rowTable struct {
	imms     map[uint32]*regRow
	uniforms []uniformSrc
}

func newRowTable() *rowTable { return &rowTable{imms: make(map[uint32]*regRow)} }

func (rt *rowTable) row(v uint32) *regRow {
	if v == 0 {
		return &zeroRow
	}
	r := rt.imms[v]
	if r == nil {
		r = broadcast(new(regRow), v)
		rt.imms[v] = r
	}
	return r
}

// uniform returns the slot of a uniform operand, numbering it on first use.
func (rt *rowTable) uniform(u uniformSrc) int32 {
	for i := range rt.uniforms {
		if rt.uniforms[i] == u {
			return int32(i)
		}
	}
	rt.uniforms = append(rt.uniforms, u)
	return int32(len(rt.uniforms) - 1)
}

// Source kinds after fast classification.
const (
	fsFixed   uint8 = iota // translation-time broadcast row (immediates, labels, RZ)
	fsReg                  // the register's own row, read in place
	fsUniform              // constant-bank word or block-uniform special: the slot's row
	fsSpecial              // other special register: a thread-index or lane row, or a broadcast
)

// Negation modes, mirroring the accessor compilers: fnInt is srcI's two's
// complement, fnFloat is srcFBits' sign-bit flip. Immediates fold their
// negation at classification time and always carry fnNone.
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

// fastSrc is one pre-resolved 32-bit source operand.
type fastSrc struct {
	kind uint8
	neg  uint8
	reg  sass.RegID
	sreg sass.SpecialReg
	slot int32   // fsUniform: index into blockCtx.urows, negation folded in
	row  *regRow // fsFixed
}

// resolve returns the operand as a row for this execution. Registers,
// per-lane specials and uniform operands are read in place; warp-uniform
// values are broadcast into scratch, and a negated row is rewritten into
// scratch. The caller must treat the result as read-only.
func (s *fastSrc) resolve(blk *blockCtx, w *warp, scratch *regRow) *regRow {
	var r *regRow
	switch s.kind {
	case fsReg:
		r = &w.regs[s.reg]
	case fsUniform:
		return &blk.urows[s.slot]
	case fsSpecial:
		switch s.sreg {
		case sass.SRTidX:
			r = &w.tid[0]
		case sass.SRTidY:
			r = &w.tid[1]
		case sass.SRTidZ:
			r = &w.tid[2]
		case sass.SRLaneID:
			r = &laneIDRow
		case sass.SREqMask:
			r = &eqMaskRow
		case sass.SRLtMask:
			r = &ltMaskRow
		default:
			// The warp id, the clock, and unknown registers (which read zero)
			// are warp-invariant within one step.
			return broadcast(scratch, negate(specialVal(blk, w, 0, s.sreg), s.neg))
		}
	default:
		return s.row
	}
	if s.neg != fnNone {
		rowNeg(s.neg, scratch, r)
		return scratch
	}
	return r
}

// fastSrcFor classifies one source under the given negation mode. The bool
// result is false when the operand needs the accessor tier: missing
// operands, or shapes the interpreter would reject.
func fastSrcFor(in *sass.Instr, idx int, neg uint8, rt *rowTable) (fastSrc, bool) {
	if idx >= len(in.Src) {
		return fastSrc{}, false
	}
	o := &in.Src[idx]
	m := fnNone
	if o.Neg {
		m = neg
	}
	switch o.Kind {
	case sass.OpdReg:
		if o.Reg == sass.RZ {
			return fastSrc{row: rt.row(negate(0, m))}, true
		}
		return fastSrc{kind: fsReg, neg: m, reg: o.Reg}, true
	case sass.OpdImm:
		return fastSrc{row: rt.row(negate(o.Imm, m))}, true
	case sass.OpdLabel:
		return fastSrc{row: rt.row(negate(uint32(o.Target), m))}, true
	case sass.OpdConst:
		return fastSrc{kind: fsUniform, slot: rt.uniform(uniformSrc{off: o.Off, neg: m})}, true
	case sass.OpdSpecial:
		return specialSrc(o.SReg, m, rt), true
	}
	return fastSrc{}, false
}

// specialSrc classifies a special-register source: block-uniform ones read
// their slot's row, the rest resolve per execution.
func specialSrc(sr sass.SpecialReg, neg uint8, rt *rowTable) fastSrc {
	if blockUniform(sr) {
		return fastSrc{kind: fsUniform, slot: rt.uniform(uniformSrc{sreg: sr, neg: neg})}
	}
	return fastSrc{kind: fsSpecial, neg: neg, sreg: sr}
}

// fastPred is a pre-resolved predicate source: a constant (PT, missing, or
// non-predicate operands) or a predicate register's lane mask.
type fastPred struct {
	p     sass.PredID
	neg   bool
	fixed int8 // 0 or 1: constant; -1: read p
}

func fastPredFor(in *sass.Instr, idx int) fastPred {
	if idx >= len(in.Src) || in.Src[idx].Kind != sass.OpdPred {
		return fastPred{fixed: 1}
	}
	pr := in.Src[idx].Pred
	if pr.Pred == sass.PT {
		if pr.Neg {
			return fastPred{fixed: 0}
		}
		return fastPred{fixed: 1}
	}
	return fastPred{p: pr.Pred, neg: pr.Neg, fixed: -1}
}

// mask returns the lanes on which the predicate source reads true.
func (p *fastPred) mask(w *warp) uint32 {
	switch p.fixed {
	case 0:
		return 0
	case 1:
		return fullMask
	}
	v := w.preds[p.p&7]
	if p.neg {
		v = ^v
	}
	return v
}

// fastDst accepts only a plain non-RZ destination register; RZ and predicate
// destinations keep the accessor tier's drop/write-through behavior.
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

// fastOp tags the operation a fused closure performs. The tag is switched
// once per execution, outside the lane loop.
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
	fopPassB
	fopShl
	fopShrU
	fopShrS
	fopFAdd
	fopFMul
	fopPassA
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

// fastBinStep fuses a one- or two-source ALU op. Destination/source aliasing
// needs no care: lane l's result depends only on lane l's operands, every row
// kernel reads a lane before it writes it, and negated or broadcast operands
// were copied to scratch before the kernel runs.
//
//go:noinline
func fastBinStep(op fastOp, d sass.RegID, a, b fastSrc) planStep {
	return func(blk *blockCtx, w *warp, m uint32) (bool, TrapKind, uint32) {
		if m == 0 {
			return false, 0, 0
		}
		dst := &w.regs[d]
		x := a.resolve(blk, w, &blk.rows[rowA])
		switch op {
		case fopPassA:
			blk.storeRow(dst, x, m)
			return false, 0, 0
		case fopPassB:
			blk.storeRow(dst, b.resolve(blk, w, &blk.rows[rowB]), m)
			return false, 0, 0
		}
		y := b.resolve(blk, w, &blk.rows[rowB])
		out := blk.outRow(dst, m)
		rowBin(op, out, x, y)
		blk.commit(dst, out, m)
		return false, 0, 0
	}
}

// fastTernStep fuses a three-source ALU op; lut carries LOP3's immediate
// truth table.
//
//go:noinline
func fastTernStep(op fastOp, d sass.RegID, a, b, c fastSrc, lut uint8) planStep {
	return func(blk *blockCtx, w *warp, m uint32) (bool, TrapKind, uint32) {
		if m == 0 {
			return false, 0, 0
		}
		dst := &w.regs[d]
		x := a.resolve(blk, w, &blk.rows[rowA])
		y := b.resolve(blk, w, &blk.rows[rowB])
		z := c.resolve(blk, w, &blk.rows[rowC])
		out := blk.outRow(dst, m)
		rowTern(op, out, x, y, z, lut)
		blk.commit(dst, out, m)
		return false, 0, 0
	}
}

// fastSelStep fuses the predicate-selected ops (SEL, FSEL, IMNMX, FMNMX).
//
//go:noinline
func fastSelStep(op fastOp, d sass.RegID, a, b fastSrc, p fastPred) planStep {
	return func(blk *blockCtx, w *warp, m uint32) (bool, TrapKind, uint32) {
		if m == 0 {
			return false, 0, 0
		}
		dst := &w.regs[d]
		x := a.resolve(blk, w, &blk.rows[rowA])
		y := b.resolve(blk, w, &blk.rows[rowB])
		out := blk.outRow(dst, m)
		rowSel(op, out, x, y, p.mask(w))
		blk.commit(dst, out, m)
		return false, 0, 0
	}
}

// fastDSrc is one pre-resolved FP64 source, mirroring srcD's quirks exactly:
// register pairs negate by flipping the high word's sign bit, constant-bank
// doubles are a pair of uniform slots (the high word's carries the sign
// flip), float immediates widen with negation ignored, and any other shape
// reads ±0.0 as the accessor tier does.
type fastDSrc struct {
	kind           uint8 // fsFixed, fsReg, fsUniform
	neg            bool  // fsReg
	reg            sass.RegID
	loSlot, hiSlot int32   // fsUniform
	lo, hi         *regRow // fsFixed
}

// resolve returns the operand's low and high word rows. Register pairs go
// through the same RZ rules as readPairReg: RZ and the register adjacent to
// RZ contribute zero halves.
func (s *fastDSrc) resolve(blk *blockCtx, w *warp, scratch *[2]regRow) (lo, hi *regRow) {
	switch s.kind {
	case fsReg:
		lo, hi = &zeroRow, &zeroRow
		if s.reg != sass.RZ {
			lo = &w.regs[s.reg]
			if s.reg+1 != sass.RZ {
				hi = &w.regs[s.reg+1]
			}
		}
		if s.neg {
			rowNeg(fnFloat, &scratch[1], hi)
			hi = &scratch[1]
		}
		return lo, hi
	case fsUniform:
		return &blk.urows[s.loSlot], &blk.urows[s.hiSlot]
	}
	return s.lo, s.hi
}

// fastDSrcFor classifies one FP64 source. srcD accepts every operand kind
// (unknown shapes read ±0.0), so the only rejection is a missing operand.
func fastDSrcFor(in *sass.Instr, idx int, rt *rowTable) (fastDSrc, bool) {
	if idx >= len(in.Src) {
		return fastDSrc{}, false
	}
	fixed := func(v float64) (fastDSrc, bool) {
		b := math.Float64bits(v)
		return fastDSrc{lo: rt.row(uint32(b)), hi: rt.row(uint32(b >> 32))}, true
	}
	o := &in.Src[idx]
	switch o.Kind {
	case sass.OpdReg:
		return fastDSrc{kind: fsReg, reg: o.Reg, neg: o.Neg}, true
	case sass.OpdConst:
		hi := uniformSrc{off: o.Off + 4}
		if o.Neg {
			hi.neg = fnFloat
		}
		return fastDSrc{kind: fsUniform, loSlot: rt.uniform(uniformSrc{off: o.Off}), hiSlot: rt.uniform(hi)}, true
	case sass.OpdImm:
		// srcD's quirk: a float immediate in a double context widens with
		// negation ignored.
		return fixed(float64(math.Float32frombits(o.Imm)))
	default:
		if o.Neg {
			return fixed(math.Copysign(0, -1))
		}
		return fixed(0)
	}
}

func pairF64(lo, hi *regRow, l int) float64 {
	return math.Float64frombits(uint64(hi[l])<<32 | uint64(lo[l]))
}

// fastDStep fuses the FP64 pair ops (DADD, DMUL, DFMA, DMNMX). The
// destination write mirrors dstWrPair: writeHi is false when the high half
// lands on RZ, and the high words are then computed into scratch and dropped.
//
//go:noinline
func fastDStep(op fastOp, d sass.RegID, writeHi bool, a, b, c fastDSrc, p fastPred) planStep {
	return func(blk *blockCtx, w *warp, m uint32) (bool, TrapKind, uint32) {
		if m == 0 {
			return false, 0, 0
		}
		rows := &blk.rows
		alo, ahi := a.resolve(blk, w, (*[2]regRow)(rows[rowA:]))
		blo, bhi := b.resolve(blk, w, (*[2]regRow)(rows[rowB:]))
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
			clo, chi := c.resolve(blk, w, (*[2]regRow)(rows[rowC:]))
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

// fastSetPStep fuses ISETP/FSETP: the comparison builds a result mask, the
// optional .AND/.OR/.XOR combine against a predicate source is one word op,
// and the destination predicate takes the result on the executing lanes.
// When the instruction has no combine source, boolOp is BoolNone, which
// passes the comparison through exactly like boolQualify.
//
//go:noinline
func fastSetPStep(cmp fastCmp, boolOp sass.BoolOp,
	d sass.PredID, a, b fastSrc, q fastPred) planStep {
	return func(blk *blockCtx, w *warp, m uint32) (bool, TrapKind, uint32) {
		if m == 0 {
			return false, 0, 0
		}
		var r uint32
		if cmp != fcF {
			r = cmpMask(cmp, a.resolve(blk, w, &blk.rows[rowA]), b.resolve(blk, w, &blk.rows[rowB]))
		}
		switch boolOp {
		case sass.BoolAnd:
			r &= q.mask(w)
		case sass.BoolOr:
			r |= q.mask(w)
		case sass.BoolXor:
			r ^= q.mask(w)
		}
		pd := &w.preds[d&7]
		*pd ^= (*pd ^ r) & m
		return false, 0, 0
	}
}

// fastStep tries the row tier for one instruction; nil means the shape needs
// the accessor tier.
func fastStep(in *sass.Instr, rt *rowTable) planStep {
	mods := &in.Mods
	sem := in.Op.Info().Sem
	switch sem {
	case sass.SemIAdd, sass.SemIMul, sass.SemLop, sass.SemShl, sass.SemShr,
		sass.SemMov, sass.SemPopc, sass.SemBrev, sass.SemFlo,
		sass.SemFAdd, sass.SemFMul:
		d, ok := fastDst(in)
		if !ok {
			return nil
		}
		neg := fnNone
		var op fastOp
		switch sem {
		case sass.SemIAdd:
			op, neg = fopAdd, fnInt
		case sass.SemIMul:
			op, neg = fopMul, fnInt
			if mods.High {
				op = fopMulHiS
				if mods.Unsigned {
					op = fopMulHiU
				}
			}
		case sass.SemLop:
			switch mods.Logic {
			case sass.LogicOr:
				op = fopOr
			case sass.LogicXor:
				op = fopXor
			case sass.LogicPassB:
				op = fopPassB
			default:
				op = fopAnd
			}
		case sass.SemShl:
			op = fopShl
		case sass.SemShr:
			op = fopShrS
			if mods.Unsigned {
				op = fopShrU
			}
		case sass.SemMov:
			op, neg = fopPassA, fnInt
		case sass.SemPopc:
			op = fopPopc
		case sass.SemBrev:
			op = fopBrev
		case sass.SemFlo:
			op = fopFlo
		case sass.SemFAdd:
			op, neg = fopFAdd, fnFloat
		case sass.SemFMul:
			op, neg = fopFMul, fnFloat
		}
		a, ok := fastSrcFor(in, 0, neg, rt)
		if !ok {
			return nil
		}
		b := fastSrc{row: &zeroRow} // unary ops ignore the second source
		switch op {
		case fopPassA, fopPopc, fopBrev, fopFlo:
		default:
			if b, ok = fastSrcFor(in, 1, neg, rt); !ok {
				return nil
			}
		}
		return fastBinStep(op, d, a, b)

	case sass.SemIMad, sass.SemIAdd3, sass.SemISCAdd, sass.SemLea, sass.SemFFma, sass.SemLop3:
		d, ok := fastDst(in)
		if !ok {
			return nil
		}
		var op fastOp
		neg := fnNone
		lut := uint8(0)
		switch sem {
		case sass.SemIMad:
			op, neg = fopImadLo, fnInt
			if mods.High {
				op = fopImadHiS
				if mods.Unsigned {
					op = fopImadHiU
				}
			}
		case sass.SemIAdd3:
			op, neg = fopIAdd3, fnInt
		case sass.SemISCAdd, sass.SemLea:
			op = fopLea
		case sass.SemFFma:
			op, neg = fopFFma, fnFloat
		case sass.SemLop3:
			op = fopLop3
			// The truth table must be a plain immediate; anything else (the
			// interpreter reads it per lane) keeps the accessor tier.
			if len(in.Src) < 4 || in.Src[3].Kind != sass.OpdImm || in.Src[3].Neg {
				return nil
			}
			lut = uint8(in.Src[3].Imm)
		}
		a, ok := fastSrcFor(in, 0, neg, rt)
		if !ok {
			return nil
		}
		b, ok := fastSrcFor(in, 1, neg, rt)
		if !ok {
			return nil
		}
		c, ok := fastSrcFor(in, 2, neg, rt)
		if !ok {
			return nil
		}
		return fastTernStep(op, d, a, b, c, lut)

	case sass.SemSel, sass.SemFSel, sass.SemIMnMx, sass.SemFMnMx:
		d, ok := fastDst(in)
		if !ok {
			return nil
		}
		var op fastOp
		neg := fnNone
		switch sem {
		case sass.SemSel:
			op = fopSel
		case sass.SemFSel:
			op, neg = fopSel, fnFloat
		case sass.SemIMnMx:
			op = fopIMnMxS
			if mods.Unsigned {
				op = fopIMnMxU
			}
		case sass.SemFMnMx:
			op, neg = fopFMnMx, fnFloat
		}
		a, ok := fastSrcFor(in, 0, neg, rt)
		if !ok {
			return nil
		}
		b, ok := fastSrcFor(in, 1, neg, rt)
		if !ok {
			return nil
		}
		return fastSelStep(op, d, a, b, fastPredFor(in, 2))

	case sass.SemISetP, sass.SemFSetP:
		d, ok := fastDstP(in)
		if !ok {
			return nil
		}
		float := sem == sass.SemFSetP
		neg := fnNone
		if float {
			neg = fnFloat
		}
		a, ok := fastSrcFor(in, 0, neg, rt)
		if !ok {
			return nil
		}
		b, ok := fastSrcFor(in, 1, neg, rt)
		if !ok {
			return nil
		}
		boolOp, q := sass.BoolNone, fastPred{fixed: 1}
		if len(in.Src) > 2 {
			boolOp, q = mods.Bool, fastPredFor(in, 2)
		}
		return fastSetPStep(fastCmpFor(float, mods.Unsigned, mods.Cmp), boolOp, d, a, b, q)

	case sass.SemS2R:
		// S2R reads Src[0].SReg whatever the operand's kind, with no
		// negation: a pass-through of the special register's row.
		d, ok := fastDst(in)
		if !ok || len(in.Src) == 0 {
			return nil
		}
		return fastBinStep(fopPassA, d, specialSrc(in.Src[0].SReg, fnNone, rt), fastSrc{row: &zeroRow})

	case sass.SemDAdd, sass.SemDMul, sass.SemDFma, sass.SemDMnMx:
		d, ok := fastDst(in)
		if !ok {
			return nil
		}
		var op fastOp
		switch sem {
		case sass.SemDAdd:
			op = fopDAdd
		case sass.SemDMul:
			op = fopDMul
		case sass.SemDFma:
			op = fopDFma
		case sass.SemDMnMx:
			op = fopDMnMx
		}
		a, ok := fastDSrcFor(in, 0, rt)
		if !ok {
			return nil
		}
		b, ok := fastDSrcFor(in, 1, rt)
		if !ok {
			return nil
		}
		c := fastDSrc{}
		if sem == sass.SemDFma {
			if c, ok = fastDSrcFor(in, 2, rt); !ok {
				return nil
			}
		}
		p := fastPred{fixed: 1}
		if sem == sass.SemDMnMx {
			p = fastPredFor(in, 2)
		}
		return fastDStep(op, d, d+1 != sass.RZ, a, b, c, p)
	}
	return nil
}
