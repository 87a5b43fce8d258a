package sassan

import "repro/internal/sass"

// Fault-propagation shadows: the forward def-use closure of one injection
// site's corrupt-target set. The pass follows the tainted registers along
// forward CFG edges only — instruction index order is a topological order
// of the forward edges, so a single left-to-right sweep is a complete
// propagation — and records every instruction that touches the taint. The
// closure is cut at anything the scalar register analysis cannot follow
// soundly: a back edge or indirect branch carrying live taint (loop-carried
// corruption mixes dynamic occurrences), and a tainted guard or
// control-transfer input escalates the whole shadow to a control shadow,
// because from that point the executed path itself depends on the fault.
//
// Shadows feed two consumers. Masked() is a soundness claim, which makes a
// class a certain stratum of adaptive sampling: taint that provably dies
// inside the register file — no store, no address use, no control input,
// no cut — cannot alter output, traps, or timing, generalizing a dead
// destination (whose shadow is simply empty). Classable() additionally admits shadows whose
// taint escapes through plain unguarded global stores with every
// intermediate reader difference-preserving; those sites share dynamic
// behavior shape and are grouped into equivalence classes by equiv.go.

// Role is a bitmask describing how one shadow member touches the taint.
type Role uint8

// Roles.
const (
	// RoleRead: reads a tainted register or predicate as data.
	RoleRead Role = 1 << iota
	// RoleGen: its destination writes become tainted.
	RoleGen
	// RoleStore: writes a tainted value to memory.
	RoleStore
	// RoleAddress: uses a tainted register as a memory address.
	RoleAddress
	// RoleControl: tainted guard predicate or control-transfer input.
	RoleControl
)

func (r Role) String() string {
	s := ""
	add := func(bit Role, name string) {
		if r&bit != 0 {
			if s != "" {
				s += "+"
			}
			s += name
		}
	}
	add(RoleRead, "read")
	add(RoleGen, "gen")
	add(RoleStore, "store")
	add(RoleAddress, "address")
	add(RoleControl, "control")
	if s == "" {
		s = "none"
	}
	return s
}

// ShadowKind is the overall shape of a shadow.
type ShadowKind uint8

// Shadow kinds.
const (
	// ShadowEmpty: the taint is never read — the corrupt targets are dead.
	ShadowEmpty ShadowKind = iota + 1
	// ShadowData: the taint flows through data instructions only.
	ShadowData
	// ShadowControl: the taint reaches a guard predicate or a control
	// transfer's input; the executed path depends on the fault.
	ShadowControl
)

func (k ShadowKind) String() string {
	switch k {
	case ShadowEmpty:
		return "empty"
	case ShadowData:
		return "data"
	case ShadowControl:
		return "control"
	default:
		return "invalid"
	}
}

// ShadowEvent is one instruction touching the taint, identified by its
// distance from the site so that shadows at different sites compare.
type ShadowEvent struct {
	// Delta is the member's instruction index minus the site's.
	Delta int
	// Op is the member's opcode.
	Op sass.Op
	// Role describes how the member touches the taint.
	Role Role
}

// Shadow is the fault-propagation closure of one injection site.
type Shadow struct {
	// Site is the injection site's instruction index.
	Site int
	// Kind classifies the shadow's shape.
	Kind ShadowKind
	// TargetGP and TargetPR are the site's corrupt-target sets (the
	// injector's fault model, CorruptTargets).
	TargetGP RegSet
	TargetPR PredSet
	// Events lists the members in instruction order. After a control
	// escalation the list is truncated: propagation stops at the
	// escalating member.
	Events []ShadowEvent
	// Stores counts members with RoleStore; AddrSinks counts members with
	// RoleAddress.
	Stores    int
	AddrSinks int
	// Cut reports that propagation hit a back edge or an indirect branch
	// while taint was live: the closure is incomplete and no soundness
	// claim holds.
	Cut bool
	// Opaque reports a chain reader that is not difference-preserving — an
	// opcode outside the faithful set, a guarded or cross-lane reader, or
	// one reading the taint through several operands (self-cancelation).
	// Opaque shadows with sinks cannot be classed; it is irrelevant to
	// Masked, which needs no value reasoning.
	Opaque bool
	// DirtySink reports a memory sink other than a plain unguarded global
	// store: an atomic, a shared/local store, or a guarded store. The
	// taint escapes, but through a path whose dynamic behavior is not
	// shared across sites, so the shadow cannot be classed.
	DirtySink bool
	// ControlAt is the escalating member's instruction index for control
	// shadows, -1 otherwise.
	ControlAt int
}

// Masked reports that an injection at this site is provably masked: the
// taint dies inside the register file on every path, touching no memory, no
// address, and no control input. This holds for any corrupted bit, lane,
// and dynamic occurrence — the architectural difference never escapes.
func (s *Shadow) Masked() bool {
	return s.Kind != ShadowControl && !s.Cut && s.Stores == 0 && s.AddrSinks == 0
}

// Classable reports that the site may join an equivalence class: either
// provably masked, or a data shadow whose only escape is plain unguarded
// global stores reached through difference-preserving readers. Sites with
// equal class keys (see equiv.go) then share dynamic classification shape,
// so the class is a natural sampling stratum.
func (s *Shadow) Classable() bool {
	if s.Masked() {
		return true
	}
	return s.Kind == ShadowData && !s.Cut &&
		s.AddrSinks == 0 && !s.Opaque && !s.DirtySink && s.Stores > 0
}

// faithfulReader reports whether a chain reader preserves any single-bit
// difference in its tainted input through to its output: flipping bit k of
// one source always changes the written value. MOV copies; IADD/IADD3 add
// a nonzero ±2^k modulo 2^32. Everything else (logic ops can absorb,
// shifts and converts drop bits, multiplies can cancel modulo 2^32,
// floating point rounds) is treated as opaque.
func faithfulReader(sem sass.SemKind) bool {
	switch sem {
	case sass.SemMov, sass.SemIAdd, sass.SemIAdd3:
		return true
	}
	return false
}

// controlSem reports semantics whose data inputs steer control flow.
func controlSem(sem sass.SemKind) bool {
	switch sem {
	case sass.SemBra, sass.SemJmp, sass.SemBrx, sass.SemCall,
		sass.SemRet, sass.SemExit, sass.SemKill, sass.SemBpt:
		return true
	}
	return false
}

// crossLaneSem reports semantics that exchange values between lanes; the
// scalar analysis still covers them (register names are lane-uniform) but
// the value a reader observes is another lane's, so they are opaque.
func crossLaneSem(sem sass.SemKind) bool {
	switch sem {
	case sass.SemShfl, sass.SemVote, sass.SemMatch:
		return true
	}
	return false
}

// addrBases collects the base registers of the instruction's memory
// operands.
func addrBases(in *sass.Instr) RegSet {
	var s RegSet
	for i := range in.Src {
		if in.Src[i].Kind == sass.OpdMem {
			s.addReg(in.Src[i].Reg)
		}
	}
	return s
}

// taintedSrcSlots counts source operand slots reading a register in gp —
// the multi-operand read check behind the self-cancelation rule (IADD3
// R0, R4, R4 with bit 31 of R4 flipped adds 2^32 ≡ 0).
func taintedSrcSlots(in *sass.Instr, gp RegSet) int {
	n := 0
	for i := range in.Src {
		if in.Src[i].Kind == sass.OpdReg && in.Src[i].Reg != sass.RZ && gp.Has(in.Src[i].Reg) {
			n++
		}
	}
	return n
}

// ShadowOf computes the fault-propagation shadow of injection site i.
func (a *Analysis) ShadowOf(i int) *Shadow {
	n := a.CFG.N
	sh := &Shadow{Site: i, Kind: ShadowEmpty, ControlAt: -1}
	sh.TargetGP, sh.TargetPR = CorruptTargets(&a.Kernel.Instrs[i])
	if sh.TargetGP.Empty() && sh.TargetPR.Empty() {
		return sh
	}

	// Per-instruction taint on entry, seeded at the site's successors.
	tinGP := make([]RegSet, n)
	tinPR := make([]PredSet, n)
	seed := func(s int) {
		if s >= n {
			return
		}
		if s <= i {
			sh.Cut = true
			return
		}
		tinGP[s].Union(sh.TargetGP)
		tinPR[s] |= sh.TargetPR
	}
	if a.CFG.Indirect[i] {
		sh.Cut = true
	} else {
		for _, s := range a.CFG.Succs[i] {
			seed(s)
		}
	}

	for j := i + 1; j < n; j++ {
		gpT := tinGP[j]
		prT := tinPR[j]
		if gpT.Empty() && prT.Empty() {
			continue
		}
		in := &a.Kernel.Instrs[j]
		du := &a.DU[j]
		sem := in.Op.Info().Sem

		// A tainted guard predicate decides whether this member executes
		// at all: control escalation, propagation stops here.
		if !in.Guard.True() && prT.Has(in.Guard.Pred) {
			sh.Kind = ShadowControl
			sh.ControlAt = j
			sh.Events = append(sh.Events, ShadowEvent{Delta: j - i, Op: in.Op, Role: RoleControl})
			return sh
		}

		// Split the reads into address bases and data values; the guard
		// predicate is clean here, so du.PRReads minus the guard bit is
		// exactly the data predicate reads.
		addrGP := addrBases(in)
		dataGP := du.GPReads
		addrT := RegSet{}
		if !addrGP.Empty() {
			dataGP = dataGP.Minus(addrGP)
			addrT = addrGP
			addrT[0] &= gpT[0]
			addrT[1] &= gpT[1]
			addrT[2] &= gpT[2]
			addrT[3] &= gpT[3]
		}
		dataPR := du.PRReads
		if !in.Guard.True() {
			dataPR = dataPR.Minus(1 << in.Guard.Pred)
		}
		readGP := dataGP
		readGP[0] &= gpT[0]
		readGP[1] &= gpT[1]
		readGP[2] &= gpT[2]
		readGP[3] &= gpT[3]
		readPR := dataPR & prT
		reads := !readGP.Empty() || !readPR.Empty()

		if controlSem(sem) {
			if reads {
				sh.Kind = ShadowControl
				sh.ControlAt = j
				sh.Events = append(sh.Events, ShadowEvent{Delta: j - i, Op: in.Op, Role: RoleControl})
				return sh
			}
		}

		var role Role
		if reads {
			role |= RoleRead
		}
		if !addrT.Empty() {
			role |= RoleAddress
			sh.AddrSinks++
		}

		// Memory sinks and the taint transfer function.
		genWrites := false
		killWrites := !du.Guarded
		switch sem {
		case sass.SemSt, sass.SemAtom, sass.SemRed:
			if reads { // tainted value flows to memory
				role |= RoleStore
				sh.Stores++
				if sem != sass.SemSt || du.Guarded {
					sh.DirtySink = true
				} else if sp := in.Op.Info().Space; sp != sass.SpaceGlobal && sp != sass.SpaceGeneric {
					sh.DirtySink = true
				}
			}
			// An atomic's register result is the clean old memory value;
			// a store writes no registers. Either way no gen.
		case sass.SemLd, sass.SemLdc:
			// A load's destination is clean data unless the address is
			// corrupted, in which case the loaded value is unknown.
			if !addrT.Empty() {
				genWrites = true
				killWrites = false
			}
		default:
			if reads {
				genWrites = true
				if du.Guarded || crossLaneSem(sem) || !faithfulReader(sem) ||
					taintedSrcSlots(in, gpT) > 1 {
					sh.Opaque = true
				}
			}
		}

		if role != 0 {
			if genWrites && (!du.GPWrites.Empty() || !du.PRWrites.Empty()) {
				role |= RoleGen
			}
			sh.Events = append(sh.Events, ShadowEvent{Delta: j - i, Op: in.Op, Role: role})
		}

		// Transfer: kill definite clean overwrites, then gen tainted ones.
		toutGP := gpT
		toutPR := prT
		if killWrites {
			toutGP = toutGP.Minus(du.GPWrites)
			toutPR = toutPR.Minus(du.PRWrites)
		}
		if genWrites {
			toutGP.Union(du.GPWrites)
			toutPR |= du.PRWrites
		}

		if toutGP.Empty() && toutPR.Empty() {
			continue
		}
		if a.CFG.Indirect[j] {
			sh.Cut = true
			continue
		}
		for _, s := range a.CFG.Succs[j] {
			if s >= n {
				continue
			}
			if s <= j {
				sh.Cut = true
				continue
			}
			tinGP[s].Union(toutGP)
			tinPR[s] |= toutPR
		}
	}

	if len(sh.Events) > 0 {
		sh.Kind = ShadowData
	}
	return sh
}
