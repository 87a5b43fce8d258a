package gpu

import "repro/internal/sass"

// TierCounts is a kernel's instructions by the tier compileStep gave them.
// RowOps are the fast-tier instructions encoded as row ops (the rest of Fast
// are the FP64 pair closures), Dispatchable those of them runRows executes.
type TierCounts struct {
	Fast, Accessor, Thunk int
	RowOps, Dispatchable  int
}

// TierCensus translates k and counts its instructions by tier — for the
// external tests, which can reach the shipped programs (internal/specaccel
// imports this package).
func TierCensus(k *sass.Kernel) (c TierCounts, err error) {
	plan, err := translate(k)
	if err != nil {
		return c, err
	}
	for i := range plan.steps {
		switch plan.steps[i].tier {
		case tierFast:
			c.Fast++
		case tierAccessor:
			c.Accessor++
		default:
			c.Thunk++
		}
		if op := &plan.ops[i]; op.shape != rsNone {
			c.RowOps++
			if op.dispatchable() {
				c.Dispatchable++
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
