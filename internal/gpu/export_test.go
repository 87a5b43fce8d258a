package gpu

import "repro/internal/sass"

// TierCounts is a kernel's instructions by the tier compileStep gave them.
// RowOps are the fast-tier instructions encoded as row ops (the rest of Fast
// are the FP64 pair closures), Dispatchable those of them runRows executes.
// GlobalAccesses are the LDG/STG .32/.64 instructions with a `[Rx+off]` or
// `[off]` address, MemOps those of them that are dispatchable row ops.
// ControlOps, ThunkOps and PortableOps count by opcode the control kinds, the
// thunked instructions and the row ops without a handler; a MUFU counts under
// its function ("MUFU.LG2"), which decides whether it has one.
type TierCounts struct {
	Fast, Control, Thunk              int
	RowOps, Dispatchable              int
	GlobalAccesses, MemOps            int
	ControlOps, ThunkOps, PortableOps map[string]int
}

// censusKey is an instruction's opcode, with MUFU's function.
func censusKey(in *sass.Instr) string {
	if in.Op.Info().Sem == sass.SemMufu {
		return in.Op.String() + "." + in.Mods.Mufu.String()
	}
	return in.Op.String()
}

// Translation tiers: what compileStep made of an instruction.
const (
	tierFast    = iota // fastStep's row ops and FP64 closures
	tierControl        // a control kind, run in-line by the single-issue path
	tierThunk          // the interpreter, through thunkStep: every other instruction
)

// tierOf returns the tier of the plan's instruction at pc. The plan keeps no
// record of it: a control kind is its ctl, and a thunk is an instruction
// fastStep refuses.
func tierOf(plan *xplan, in *sass.Instr, pc int) int {
	switch {
	case plan.steps[pc].ctl != ctlNone:
		return tierControl
	case fastStep(in, newRowTable(), new(rowOp)) == nil:
		return tierThunk
	}
	return tierFast
}

// TierCensus translates k and counts its instructions by tier — for the
// external tests, which can reach the shipped programs (internal/specaccel
// imports this package).
func TierCensus(k *sass.Kernel) (c TierCounts, err error) {
	plan, err := translate(k)
	if err != nil {
		return c, err
	}
	c.ControlOps, c.ThunkOps, c.PortableOps = map[string]int{}, map[string]int{}, map[string]int{}
	for i := range plan.steps {
		in := &k.Instrs[i]
		switch tierOf(plan, in, i) {
		case tierFast:
			c.Fast++
		case tierControl:
			c.Control++
			c.ControlOps[censusKey(in)]++
		default:
			c.Thunk++
			c.ThunkOps[censusKey(in)]++
		}
		op := &plan.ops[i]
		if op.shape != rsNone {
			c.RowOps++
			if op.dispatchable() {
				c.Dispatchable++
			} else {
				c.PortableOps[censusKey(in)]++
			}
		}
		info := in.Op.Info()
		if _, _, _, mem := fastMemOperand(in); mem && info.Space == sass.SpaceGlobal &&
			(info.Sem == sass.SemLd || info.Sem == sass.SemSt) && (in.Mods.MemWidth() == 4 || in.Mods.MemWidth() == 8) {
			c.GlobalAccesses++
			if op.shape >= rsLd32 && op.shape <= rsSt64 && op.dispatchable() {
				c.MemOps++
			}
		}
	}
	return c, nil
}

// SpecTargets applies a Corruption that complements every bit it may touch
// to in, for lane 0 of a zeroed warp, and reports the registers and
// predicates that changed — the destinations the engine's in-line fault
// corrupts, observed rather than asked for.
func SpecTargets(in *sass.Instr) (regs []sass.RegID, preds []sass.PredID) {
	c := &Corruption{Value: func(_ sass.Op, old uint32) uint32 { return ^old }, PredFlip: true}
	c.Ops.Add(in.Op)
	k := &sass.Kernel{Instrs: []sass.Instr{*in}}
	ek := &ExecKernel{K: k, Corrupt: c, CorruptSites: NewCorruptionSites(k, 1<<in.Op.Info().Cat, &c.Ops)}
	blk := &blockCtx{ek: ek, spec: c}
	w := new(warp)
	blk.corrupt(w, 0, 1)
	for r := range w.regs {
		if w.regs[r][0] != 0 {
			regs = append(regs, sass.RegID(r))
		}
	}
	for p := range w.preds {
		if w.preds[p] != 0 {
			preds = append(preds, sass.PredID(p))
		}
	}
	return regs, preds
}
