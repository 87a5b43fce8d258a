package sassan

import "repro/internal/sass"

// DefUse is the register-level effect of one instruction: the GP registers
// and predicates it reads and the ones it writes, mirroring the simulator's
// execution semantics. Guarded marks instructions whose guard is not the
// constant-true @PT: their writes are conditional and must not kill
// liveness.
type DefUse struct {
	GPReads  RegSet
	GPWrites RegSet
	PRReads  PredSet
	PRWrites PredSet
	Guarded  bool
}

// allPreds is P0..P6: what P2R reads.
const allPreds PredSet = (1 << (sass.NumPreds - 1)) - 1

// pairSrcSem reports whether the semantic reads its register sources as
// 64-bit even/odd pairs (the FP64 dsrc path).
func pairSrcSem(in *sass.Instr) bool {
	switch in.Op.Info().Sem {
	case sass.SemDAdd, sass.SemDMul, sass.SemDFma, sass.SemDMnMx, sass.SemDSetP:
		return true
	case sass.SemF2F:
		// F2F.64 widens a 32-bit source; every other F2F narrows a pair.
		return in.Mods.Width != 8
	}
	return false
}

// addReg inserts r unless it is RZ.
func (s *RegSet) addReg(r sass.RegID) {
	if r != sass.RZ {
		s.Add(r)
	}
}

// addPred inserts p unless it is PT.
func (s *PredSet) addPred(p sass.PredID) {
	if p != sass.PT {
		s.Add(p)
	}
}

// readPairRegs mirrors evalCtx.readPair: RZ reads nothing, and the high
// half is skipped when it lands on RZ.
func (s *RegSet) readPairRegs(r sass.RegID) {
	if r == sass.RZ {
		return
	}
	s.Add(r)
	if r+1 != sass.RZ {
		s.Add(r + 1)
	}
}

// addSpan inserts the n-register span starting at base, skipping RZ. The
// index arithmetic wraps exactly like the executor's d.Reg + RegID(i), so
// a 128-bit access based at R253 touches R253, R254, and R0.
func (s *RegSet) addSpan(base sass.RegID, n int) {
	for i := 0; i < n; i++ {
		r := base + sass.RegID(i)
		if r != sass.RZ {
			s.Add(r)
		}
	}
}

// destSpan returns how many consecutive registers a register destination of
// this instruction occupies under the execution semantics: FlagPair and
// CS2R and F2F.64 write pairs, and 64/128-bit loads write two or four
// registers. LDC is the one divergence from core's fault-target expansion:
// the executor always writes a single register for LDC regardless of the
// width modifier.
func destSpan(in *sass.Instr) int {
	info := in.Op.Info()
	if info.Flags&sass.FlagPair != 0 {
		return 2
	}
	switch info.Sem {
	case sass.SemCS2R:
		return 2
	case sass.SemF2F:
		if in.Mods.Width == 8 {
			return 2
		}
	case sass.SemLd:
		switch in.Mods.MemWidth() {
		case 8:
			return 2
		case 16:
			return 4
		}
	}
	return 1
}

// DefsUses extracts the instruction's register-level reads and writes. The
// extraction mirrors internal/gpu's execution semantics, not just the
// operand list: FP64 sources read register pairs, 64/128-bit stores read
// the value span, P2R reads every predicate, absent optional predicate
// operands are defaults rather than uses, and a non-@PT guard is a
// predicate read whose presence makes all writes conditional.
func DefsUses(in *sass.Instr) DefUse {
	var du DefUse
	info := in.Op.Info()
	sem := info.Sem

	if !in.Guard.True() {
		du.Guarded = true
		du.PRReads.addPred(in.Guard.Pred)
	}

	// Source reads.
	pairSrc := pairSrcSem(in)
	valueIdx := -1
	if sem == sass.SemSt || sem == sass.SemAtom || sem == sass.SemRed {
		for i := range in.Src {
			if in.Src[i].Kind != sass.OpdMem {
				valueIdx = i
				break
			}
		}
	}
	for i := range in.Src {
		o := &in.Src[i]
		switch o.Kind {
		case sass.OpdReg:
			switch {
			case pairSrc:
				du.GPReads.readPairRegs(o.Reg)
			case sem == sass.SemSt && i == valueIdx && in.Mods.MemWidth() == 8:
				du.GPReads.readPairRegs(o.Reg)
			case sem == sass.SemSt && i == valueIdx && in.Mods.MemWidth() == 16:
				du.GPReads.addSpan(o.Reg, 4)
			default:
				du.GPReads.addReg(o.Reg)
			}
		case sass.OpdPred:
			du.PRReads.addPred(o.Pred.Pred)
		case sass.OpdMem:
			// The base register of an address operand.
			du.GPReads.addReg(o.Reg)
		}
	}
	if sem == sass.SemP2R {
		du.PRReads |= allPreds
	}

	// Destination writes. The executor's write helpers (wr, wrP, wrPair)
	// only ever touch Dst[0]; trailing destination operands such as a
	// SETP's second predicate are never written.
	if len(in.Dst) > 0 {
		d := &in.Dst[0]
		switch d.Kind {
		case sass.OpdPred:
			du.PRWrites.addPred(d.Pred.Pred)
		case sass.OpdReg:
			if d.Reg != sass.RZ {
				switch span := destSpan(in); {
				case span == 2:
					// wrPair never wraps: the high half is simply skipped
					// when it lands on RZ.
					du.GPWrites.readPairRegs(d.Reg)
				case span > 2:
					du.GPWrites.addSpan(d.Reg, span)
				default:
					du.GPWrites.Add(d.Reg)
				}
			}
		}
	}
	return du
}

// CorruptTargets returns the registers the fault injectors consider
// corruptible destinations for this instruction: sass.Instr.FaultTargets as
// sets. That expansion differs from the execution write set in one place:
// LDC's width modifier widens the fault-target span even though the executor
// writes a single register. Pruning must therefore prove this set dead, while
// liveness kills use the execution-accurate write set from DefsUses.
func CorruptTargets(in *sass.Instr) (RegSet, PredSet) {
	var gp RegSet
	var pr PredSet
	var buf sass.FaultTargetBuf
	for _, t := range in.FaultTargets(buf[:0]) {
		if t.IsPred {
			pr.Add(t.Pred)
		} else {
			gp.Add(t.Reg)
		}
	}
	return gp, pr
}
