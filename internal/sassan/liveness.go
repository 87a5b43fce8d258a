package sassan

import "repro/internal/sass"

// Analysis bundles the static analyses of one kernel: def/use per
// instruction, the CFG, and per-instruction backward liveness. LiveOut at
// instruction i is the set of registers whose value may still be read on
// some path after i executes — exactly the set a destination-register
// fault must intersect to have any chance of propagating, since the
// injector corrupts registers immediately after the instruction's
// write-back.
type Analysis struct {
	Kernel *sass.Kernel
	CFG    *CFG
	DU     []DefUse

	LiveInGP, LiveOutGP []RegSet
	LiveInPR, LiveOutPR []PredSet
}

// Analyze runs def/use extraction, CFG construction, and the liveness
// fixpoint over one kernel.
func Analyze(k *sass.Kernel) *Analysis {
	a := &Analysis{
		Kernel: k,
		CFG:    BuildCFG(k),
		DU:     make([]DefUse, len(k.Instrs)),
	}
	for i := range k.Instrs {
		a.DU[i] = DefsUses(&k.Instrs[i])
	}
	a.computeLiveness()
	return a
}

// computeLiveness iterates the backward dataflow to fixpoint. Guarded
// instructions never kill: their writes are conditional on the guard
// predicate, so a register live after them stays live before them. The
// transfer function is monotone over finite bitsets, so iteration
// terminates.
func (a *Analysis) computeLiveness() {
	n := a.CFG.N
	a.LiveInGP = make([]RegSet, n)
	a.LiveOutGP = make([]RegSet, n)
	a.LiveInPR = make([]PredSet, n)
	a.LiveOutPR = make([]PredSet, n)

	anyIndirect := false
	for _, ind := range a.CFG.Indirect {
		if ind {
			anyIndirect = true
			break
		}
	}

	for changed := true; changed; {
		changed = false
		// For indirect branches the successor set is every instruction;
		// fold their live-in union once per pass. Using the pass-start
		// snapshot preserves monotone convergence.
		var allGP RegSet
		var allPR PredSet
		if anyIndirect {
			for i := 0; i < n; i++ {
				allGP.Union(a.LiveInGP[i])
				allPR |= a.LiveInPR[i]
			}
		}
		for i := n - 1; i >= 0; i-- {
			var outGP RegSet
			var outPR PredSet
			if a.CFG.Indirect[i] {
				outGP = allGP
				outPR = allPR
			} else {
				for _, s := range a.CFG.Succs[i] {
					if s < n {
						outGP.Union(a.LiveInGP[s])
						outPR |= a.LiveInPR[s]
					}
				}
			}
			du := &a.DU[i]
			inGP := outGP
			inPR := outPR
			if !du.Guarded {
				inGP = inGP.Minus(du.GPWrites)
				inPR = inPR.Minus(du.PRWrites)
			}
			inGP.Union(du.GPReads)
			inPR |= du.PRReads
			if outGP != a.LiveOutGP[i] || outPR != a.LiveOutPR[i] ||
				inGP != a.LiveInGP[i] || inPR != a.LiveInPR[i] {
				changed = true
				a.LiveOutGP[i] = outGP
				a.LiveOutPR[i] = outPR
				a.LiveInGP[i] = inGP
				a.LiveInPR[i] = inPR
			}
		}
	}
}

// DeadDests reports whether instruction i has at least one corruptible
// destination register and every one of them is dead after the
// instruction. Corrupting a dead register cannot alter control flow,
// memory, traps, or program output on any path — the injection is Masked
// by construction. The check uses the injector's fault-target expansion
// (CorruptTargets), which can diverge from the execution write set (LDC
// width, a SETP's second predicate destination), so it proves dead
// exactly the registers a fault could touch.
func (a *Analysis) DeadDests(i int) bool {
	gp, pr := CorruptTargets(&a.Kernel.Instrs[i])
	if gp.Empty() && pr.Empty() {
		return false
	}
	return !gp.Intersects(a.LiveOutGP[i]) && !pr.Intersects(a.LiveOutPR[i])
}
