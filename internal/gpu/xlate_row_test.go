package gpu

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/sass"
)

// The row tier's differential tests: one instruction at a time through the
// fused step and through the interpreter, on identical randomized warp
// state, comparing the whole register file and every predicate mask. The
// campaign-level differentials prove the tiers agree on the workloads; these
// prove it on every op × operand shape × exec mask × aliasing the tier
// accepts, including the ones no shipped kernel happens to use.

// rowMasks are the exec masks every case runs under: full, one lane, the
// interior-of-a-row pattern a boundary exit leaves, a partial last warp, and
// empty.
var rowMasks = []uint32{fullMask, 1 << 13, 0x7ffe7ffe, 0x000fffff, 0}

// rowHarness holds two block contexts over one device and constant bank, and
// the randomized warp state each case starts from.
type rowHarness struct {
	t          *testing.T
	blkX, blkI *blockCtx
	base       warp
	rt         *rowTable
}

func newRowHarness(t *testing.T, seed int64) *rowHarness {
	p := newProgHarness(t, seed)
	return &rowHarness{t: t, blkX: p.block(nil), blkI: p.block(nil), base: p.base, rt: newRowTable()}
}

// bindRows fills blk's uniform operand rows for every slot the harness's
// translations have numbered so far, as claimBlock and bind do for a plan.
func (h *rowHarness) bindRows(blk *blockCtx) {
	blk.setPlan(&xplan{uniforms: h.rt.uniforms, arena: h.rt.arena})
	blk.fillUniforms(true)
}

// check runs one instruction through the row tier and the interpreter under
// every mask and requires identical architectural state.
func (h *rowHarness) check(in *sass.Instr) {
	h.t.Helper()
	step := fastStep(in, h.rt, new(rowOp))
	if step == nil {
		h.t.Fatalf("%v: the row tier refused a shape it is documented to cover", in)
	}
	h.bindRows(h.blkX)
	for _, m := range rowMasks {
		wx, wi := h.base, h.base
		_, kx, ax := step(h.blkX, &wx, m)
		_, ki, ai := h.blkI.exec(&wi, in, 0, m)
		if kx != ki || ax != ai {
			h.t.Fatalf("%v mask %#x: row tier (%v, %#x), interpreter (%v, %#x)", in, m, kx, ax, ki, ai)
		}
		canonNaN(in, &wx)
		canonNaN(in, &wi)
		if wx.regs != wi.regs {
			for r := range wx.regs {
				for l := range wx.regs[r] {
					if wx.regs[r][l] != wi.regs[r][l] {
						h.t.Fatalf("%v mask %#x: R%d lane %d = %#x, interpreter %#x (was %#x)",
							in, m, r, l, wx.regs[r][l], wi.regs[r][l], h.base.regs[r][l])
					}
				}
			}
		}
		if wx.preds != wi.preds {
			h.t.Fatalf("%v mask %#x: predicate masks %#x, interpreter %#x (were %#x)",
				in, m, wx.preds, wi.preds, h.base.preds)
		}
	}
}

// canonNaN rewrites NaN results of the commutative float arithmetic ops to
// one canonical NaN. When two operands of an x86 ADDSS/MULSS/FMA are both
// NaN the result carries the payload of whichever the compiler made the
// instruction's destination, so the same Go expression compiled at two sites
// (the interpreter and any translated tier, in this engine and its
// predecessor alike) may differ in the NaN's sign and payload — never in
// whether the result is NaN. Golden runs never hold two distinct NaNs in one
// lane's operands; randomized state does.
func canonNaN(in *sass.Instr, w *warp) {
	d := in.Dst[0].Reg
	switch in.Op.Info().Sem {
	case sass.SemFAdd, sass.SemFMul, sass.SemFFma:
		for l, v := range w.regs[d] {
			if isNaN32(math.Float32frombits(v)) {
				w.regs[d][l] = 0x7fc00000
			}
		}
	case sass.SemDAdd, sass.SemDMul, sass.SemDFma:
		for l := range w.regs[d] {
			if math.IsNaN(math.Float64frombits(readPairReg(w, l, d))) {
				w.regs[d][l] = 0
				if d+1 != sass.RZ {
					w.regs[d+1][l] = 0x7ff80000
				}
			}
		}
	}
}

// srcShapes returns the operand shapes of one 32-bit source read from
// register r: the register and its negation, immediates, a launch parameter,
// RZ, and a per-lane and a warp-uniform special register.
func srcShapes(r sass.RegID) []sass.Operand {
	neg := func(o sass.Operand) sass.Operand { o.Neg = true; return o }
	return []sass.Operand{
		sass.R(r), sass.NegReg(r),
		sass.Imm(0x80000003), neg(sass.Imm(5)),
		sass.C0(sass.ParamBase + 4), neg(sass.C0(sass.ParamBase)),
		sass.R(sass.RZ), sass.NegReg(sass.RZ),
		sass.SR(sass.SRLaneID), neg(sass.SR(sass.SRCtaidY)),
	}
}

// rowALUOp is one fused register-result op: the opcode, its modifiers, how many
// 32-bit sources it reads, and any fixed trailing operands.
type rowALUOp struct {
	op   string
	mods sass.Mods
	nsrc int
	tail []sass.Operand
}

func (o rowALUOp) String() string {
	in := sass.NewInstr(sass.MustOp(o.op))
	in.Mods = o.mods
	return in.String()
}

func rowALUOps() []rowALUOp {
	var ops []rowALUOp
	add := func(op string, nsrc int, mods sass.Mods, tail ...sass.Operand) {
		ops = append(ops, rowALUOp{op: op, mods: mods, nsrc: nsrc, tail: tail})
	}
	add("IADD", 2, sass.Mods{})
	add("IMUL", 2, sass.Mods{})
	add("IMUL", 2, sass.Mods{High: true})
	add("IMUL", 2, sass.Mods{High: true, Unsigned: true})
	for _, lg := range []sass.LogicOp{sass.LogicAnd, sass.LogicOr, sass.LogicXor, sass.LogicPassB} {
		add("LOP", 2, sass.Mods{Logic: lg})
	}
	add("SHL", 2, sass.Mods{})
	add("SHR", 2, sass.Mods{})
	add("SHR", 2, sass.Mods{Unsigned: true})
	add("FADD", 2, sass.Mods{})
	add("FMUL", 2, sass.Mods{})
	add("MOV", 1, sass.Mods{})
	add("POPC", 1, sass.Mods{})
	add("BREV", 1, sass.Mods{})
	add("FLO", 1, sass.Mods{})
	add("IMAD", 3, sass.Mods{})
	add("IMAD", 3, sass.Mods{High: true})
	add("IMAD", 3, sass.Mods{High: true, Unsigned: true})
	add("IADD3", 3, sass.Mods{})
	add("ISCADD", 3, sass.Mods{})
	add("LEA", 3, sass.Mods{})
	add("FFMA", 3, sass.Mods{})
	add("LOP3", 3, sass.Mods{}, sass.Imm(0x96))
	add("LOP3", 3, sass.Mods{}, sass.Imm(0xe8))
	for _, p := range []sass.Operand{sass.P(sass.PT), sass.NotP(sass.PT), sass.P(2), sass.NotP(2)} {
		add("SEL", 2, sass.Mods{}, p)
		add("FSEL", 2, sass.Mods{}, p)
		add("IMNMX", 2, sass.Mods{}, p)
		add("IMNMX", 2, sass.Mods{Unsigned: true}, p)
		add("FMNMX", 2, sass.Mods{}, p)
	}
	add("SEL", 2, sass.Mods{}) // missing predicate reads true
	return ops
}

// TestRowTierALU covers every fused register-result op across operand shape
// (full cross product for one- and two-source ops, each position against
// every shape for three-source ops), exec mask, and destination aliasing.
func TestRowTierALU(t *testing.T) {
	h := newRowHarness(t, 1)
	const ra, rb, rc, rd = 4, 6, 8, 10
	for _, op := range rowALUOps() {
		t.Run(op.String(), func(t *testing.T) {
			h.t = t
			// Destinations: distinct, aliasing each source, and (with every
			// source the same register) aliasing all of them at once.
			dsts := []sass.RegID{rd, ra, rb, rc}[:op.nsrc+1]
			emit := func(d sass.RegID, srcs ...sass.Operand) {
				operands := append([]sass.Operand{sass.R(d)}, srcs...)
				in := sass.NewInstr(sass.MustOp(op.op), append(operands, op.tail...)...)
				in.Mods = op.mods
				h.check(&in)
			}
			as, bs, cs := srcShapes(ra), srcShapes(rb), srcShapes(rc)
			for _, d := range dsts {
				switch op.nsrc {
				case 1:
					for _, a := range as {
						emit(d, a)
					}
				case 2:
					for i, a := range as {
						for j, b := range bs {
							// Full cross on the distinct destination; the
							// aliased ones take two diagonals of it.
							if d == rd || j == i || j == (i+3)%len(bs) {
								emit(d, a, b)
							}
						}
					}
					emit(d, sass.R(d), sass.NegReg(d))
				case 3:
					for i := range as {
						emit(d, as[i], bs[0], cs[0])
						emit(d, as[0], bs[i], cs[1])
						emit(d, as[1], bs[(i+3)%len(bs)], cs[i])
					}
					emit(d, sass.R(d), sass.NegReg(d), sass.R(d))
				}
			}
		})
	}
}

// TestRowTierS2R covers S2R for every special register, the unknown ones
// (which read zero) included.
func TestRowTierS2R(t *testing.T) {
	h := newRowHarness(t, 2)
	for sr := sass.SRInvalid; sr <= sass.SRClock+1; sr++ {
		in := sass.NewInstr(sass.MustOp("S2R"), sass.R(10), sass.SR(sr))
		h.check(&in)
	}
}

// TestRowTierSetP covers ISETP/FSETP: every compare × signedness × combine ×
// combine-source shape (PT, !PT, a register, its negation, and the
// destination itself) × source shape.
func TestRowTierSetP(t *testing.T) {
	h := newRowHarness(t, 3)
	const ra, rb = 4, 6
	// Make a few lanes compare equal so EQ/LE/GE see both outcomes.
	for l := 0; l < WarpSize; l += 5 {
		h.base.regs[rb][l] = h.base.regs[ra][l]
	}
	qs := []sass.Operand{sass.P(sass.PT), sass.NotP(sass.PT), sass.P(2), sass.NotP(2), sass.P(1), sass.NotP(1)}
	as, bs := srcShapes(ra), srcShapes(rb)
	for _, opName := range []string{"ISETP", "FSETP"} {
		for cmp := sass.CmpF; cmp <= sass.CmpT; cmp++ {
			for _, unsigned := range []bool{false, true} {
				if unsigned && opName == "FSETP" {
					continue
				}
				mods := sass.Mods{Cmp: cmp, Unsigned: unsigned}
				t.Run(fmt.Sprintf("%s.%v.u=%v", opName, cmp, unsigned), func(t *testing.T) {
					h.t = t
					emit := func(bo sass.BoolOp, srcs ...sass.Operand) {
						in := sass.NewInstr(sass.MustOp(opName), append([]sass.Operand{sass.P(1)}, srcs...)...)
						in.Mods = mods
						in.Mods.Bool = bo
						h.check(&in)
					}
					// Every combine and combine source on three source shapes...
					for i := 0; i < 3; i++ {
						a, b := as[i], bs[(2*i)%len(bs)]
						emit(sass.BoolNone, a, b) // no combine source
						for _, bo := range []sass.BoolOp{sass.BoolAnd, sass.BoolOr, sass.BoolXor, sass.BoolNone} {
							for _, q := range qs {
								emit(bo, a, b, q)
							}
						}
					}
					// ...and every source shape pair on one combine.
					for _, a := range as {
						for _, b := range bs {
							emit(sass.BoolAnd, a, b, sass.NotP(2))
						}
					}
				})
			}
		}
	}
}

// TestRowTierFP64 covers the pair ops: register pairs and their negation,
// constant-bank doubles, widened float immediates, RZ and the pair adjacent
// to RZ as sources; a destination pair that overlaps a source pair in every
// way, and one whose high half lands on RZ.
func TestRowTierFP64(t *testing.T) {
	h := newRowHarness(t, 4)
	const ra, rb, rc, rd = 4, 8, 12, 16
	// Give the operand pairs a spread of real doubles as well as random bits.
	vals := []float64{0, math.Copysign(0, -1), 1.5, -2.25, math.Inf(1), math.Inf(-1), math.NaN(), 1e-310, 3e300, -3e300}
	for l := 0; l < WarpSize; l += 2 {
		for i, r := range []sass.RegID{ra, rb, rc} {
			b := math.Float64bits(vals[(l/2+i)%len(vals)])
			h.base.regs[r][l], h.base.regs[r+1][l] = uint32(b), uint32(b>>32)
		}
	}
	neg := func(o sass.Operand) sass.Operand { o.Neg = true; return o }
	shapes := func(r sass.RegID) []sass.Operand {
		return []sass.Operand{
			sass.R(r), sass.NegReg(r),
			sass.C0(sass.ParamBase + 8), neg(sass.C0(sass.ParamBase + 8)),
			sass.ImmF(2.5), neg(sass.ImmF(2.5)),
			sass.R(sass.RZ), sass.NegReg(sass.RZ), sass.R(sass.RZ - 1),
			sass.P(3), neg(sass.P(3)), // any other kind reads ±0.0
		}
	}
	type dop struct {
		op   string
		nsrc int
		tail []sass.Operand
	}
	ops := []dop{{"DADD", 2, nil}, {"DMUL", 2, nil}, {"DFMA", 3, nil}}
	for _, p := range []sass.Operand{sass.P(sass.PT), sass.NotP(sass.PT), sass.P(2), sass.NotP(2)} {
		ops = append(ops, dop{"DMNMX", 2, []sass.Operand{p}})
	}
	for _, op := range ops {
		t.Run(op.op, func(t *testing.T) {
			h.t = t
			emit := func(d sass.RegID, srcs ...sass.Operand) {
				operands := append([]sass.Operand{sass.R(d)}, srcs...)
				in := sass.NewInstr(sass.MustOp(op.op), append(operands, op.tail...)...)
				h.check(&in)
			}
			as, bs, cs := shapes(ra), shapes(rb), shapes(rc)
			// d == a, d == a+1 (low half on a's high half), d+1 == a, d == b,
			// and d+1 == RZ.
			for _, d := range []sass.RegID{rd, ra, ra + 1, ra - 1, rb, sass.RZ - 1} {
				for i, a := range as {
					for _, b := range bs {
						if op.nsrc == 3 {
							emit(d, a, b, cs[i])
						} else {
							emit(d, a, b)
						}
					}
				}
			}
		})
	}
}

// TestRowTierFusedShapes pins which tier the dominant shapes land on, so a
// refactor cannot silently drop them to a slower tier while every
// differential stays green.
func TestRowTierFusedShapes(t *testing.T) {
	k := mustKernel(t, `
.kernel shapes
.param p
    S2R R0, SR_TID.X
    IADD R1, R0, SR_LANEID
    IMAD R2, R0, c0[p], -R1
    ISETP.GE.AND P0, R2, 0x4, !P1
    FSEL R3, R1, -R2, P0
    DFMA R4, R6, c0[p], -R8
    EXIT
`, "shapes")
	rt := newRowTable()
	for i := range k.Instrs[:6] {
		if fastStep(&k.Instrs[i], rt, new(rowOp)) == nil {
			t.Errorf("%v: not on the row tier", &k.Instrs[i])
		}
	}
}
