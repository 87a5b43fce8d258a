package gpu

import (
	"crypto/sha256"
	"encoding/binary"

	"repro/internal/modcache"
	"repro/internal/sass"
	"repro/internal/sassan"
)

// This file is the block-level translation engine: it compiles a kernel's
// instruction stream into an execution plan, so the warp hot loop neither
// re-walks operand lists, re-switches on operand kinds, nor re-evaluates
// guards from scratch on every dynamic execution. compileStep makes one of
// three things of an instruction: a row op (rowprog.go, xlate_fast.go), data
// that runs inside the row dispatcher or through its portable executor (the
// FP64 pair ops of the same tier are still closures); a control kind — EXIT,
// a direct branch, BAR — which the warp loop runs in-line; or the
// interpreter thunk, for everything else.
//
// Design rules (see DESIGN.md section 3.6):
//
//   - The interpreter (blockCtx.exec) stays the semantic oracle. Row ops are
//     built from the same shared helpers the interpreter calls (specialVal,
//     mufu, f2i, sliceLoad, ...), and any instruction whose operand shape does
//     not match the encoder's expectations falls back to a thunk that simply
//     calls blk.exec — so translated execution is behaviorally identical by
//     construction, including interpreter panics on malformed instructions.
//   - Plans are pure functions of kernel *content*: they capture register
//     ids, immediates, const-bank offsets and guard predicates, but never a
//     Device, Launch, warp, or constant bank. One plan is therefore shared
//     read-only across blocks, devices, and experiments, cached
//     process-wide in modcache keyed by the kernel content hash. What a row
//     op reads of the launch — a constant-bank word, the block index — it
//     reads through a slot number (uniforms); the block slot holds the rows.
//   - Straight-line runs never run past a branch target: runLen is computed
//     within the CFG blocks internal/sassan builds, and the one boundary a
//     run crosses is a guarded EXIT's, into a block that nothing but the
//     EXIT's fall-through enters. An EXIT that retires a lane ends its
//     batch, so a batch issues every step for the same lanes.
type xplan struct {
	steps []xinstr

	// ops holds the row tier's instructions as data, indexed by pc like steps
	// (rowprog.go); every other instruction's entry is the zero op. arena is
	// the read-only rows their immediate and lane-pattern operands resolve
	// to.
	ops   []rowOp
	arena []regRow

	// uniforms are the distinct launch- and block-uniform operands the row
	// steps read, numbered by slot: blockCtx.urows[i] holds uniforms[i]
	// broadcast for the block that is running.
	uniforms []uniformSrc

	// The engine's static facts about the kernel, derived here so that every
	// ExecKernel over the same content — each attachment's instrumented build
	// of it — shares them: regHi is writtenRegHi's register bound, and
	// tallySites is the trampoline-site prefix of an instrumentation that only
	// tallies (ExecKernel.trampSites), which is the identity: one After site
	// per instruction.
	regHi      int32
	tallySites []uint32
}

// uniformSrc is one operand whose 32 lanes read the same value for a whole
// launch (a constant-bank word) or a whole block (CTAID, SMID), with its
// negation folded in: broadcast once per launch or block, not per execution.
type uniformSrc struct {
	sreg sass.SpecialReg // SRInvalid: the constant-bank word at off
	off  int32
	neg  uint8
}

// perBlock reports whether the value changes from block to block.
func (u *uniformSrc) perBlock() bool { return u.sreg != sass.SRInvalid }

// value reads the operand for blk's launch and block. Block-uniform special
// registers depend on no warp.
func (u *uniformSrc) value(blk *blockCtx) uint32 {
	if u.sreg == sass.SRInvalid {
		return negate(blk.constRead(u.off), u.neg)
	}
	return negate(specialVal(blk, nil, 0, u.sreg), u.neg)
}

// blockUniform reports whether a special register reads one value in every
// lane of every warp of a block.
func blockUniform(sr sass.SpecialReg) bool {
	switch sr {
	case sass.SRCtaidX, sass.SRCtaidY, sass.SRCtaidZ, sass.SRSMID:
		return true
	}
	return false
}

// Control kinds: the control instructions a plan holds as data. An EXIT
// batches: it ends a straight-line run, or stands inside one when guarded
// (translate), and runWarp's batch loop issues it in line. A branch or BAR
// never batches (semSimple), so only the single-issue path (blockCtx.stepX)
// meets them; it meets an EXIT too when a diverged warp cannot batch.
const (
	ctlNone uint8 = iota
	ctlExit       // EXIT, KILL: the executing lanes exit
	ctlBra        // BRA, JMP with a target: the executing lanes move to braTarget
	ctlBar        // BAR: the warp reaches a barrier
)

// controlOf returns an instruction's control kind. A branch without a target
// operand is none: the interpreter panics on it.
func controlOf(in *sass.Instr) uint8 {
	switch in.Op.Info().Sem {
	case sass.SemExit, sass.SemKill:
		return ctlExit
	case sass.SemBar:
		return ctlBar
	case sass.SemBra, sass.SemJmp:
		if len(in.Src) > 0 {
			return ctlBra
		}
	}
	return ctlNone
}

// planStep executes one translated instruction for the lanes in execMask,
// with the same contract as blockCtx.exec.
type planStep func(blk *blockCtx, w *warp, execMask uint32) (barrier bool, kind TrapKind, faultAddr uint32)

// guardKind classifies the instruction guard at translation time so the hot
// loop pays nothing for the overwhelmingly common @PT case.
type guardKind uint8

const (
	guardOn   guardKind = iota // @PT: every scheduled lane executes
	guardOff                   // @!PT: statically suppressed
	guardCond                  // real predicate, evaluated per lane
)

// xinstr is one translated instruction: its step or control kind plus the
// pre-resolved guard and scheduling classification.
type xinstr struct {
	step       planStep // nil for a control kind
	guardKind  guardKind
	guardPred  sass.PredID
	guardNeg   bool
	altersFlow bool  // pre-computed semAltersFlow
	ctl        uint8 // control kind, ctlNone for a step
	flow       uint8 // pre-computed flowOf class for split maintenance
	runLen     int32 // consecutive batchable steps from here: to its CFG block's end, or on past a guarded EXIT (translate)
	rowLen     int32 // consecutive dispatchable row ops from here, within runLen: one runRows call
	braTarget  int32 // branch target when flow == flowBranch (BRA/JMP/CALL)
}

// guard evaluates the instruction guard for the lanes in atPC, mirroring
// guardMask with the predicate classification already resolved.
func (xi *xinstr) guard(w *warp, atPC uint32) uint32 {
	switch xi.guardKind {
	case guardOn:
		return atPC
	case guardOff:
		return 0
	}
	return predMask(w, atPC, xi.guardPred&7, xi.guardNeg)
}

// unguardedRow reports whether the step is a row op without a guard: inside a
// stretch it issues for the batch's lanes, whatever the predicates hold.
func (xi *xinstr) unguardedRow() bool { return xi.rowLen > 0 && xi.guardKind == guardOn }

// semSimple reports whether a semantic is straight-line safe: it never
// writes per-lane PCs, never changes lane liveness, never reaches a barrier,
// and never traps unconditionally. Simple steps may still fault (memory),
// which the translated loop handles; what they cannot do is invalidate the
// scheduling state the loop batched over.
func semSimple(sem sass.SemKind) bool {
	switch sem {
	case sass.SemBar, sass.SemBra, sass.SemJmp, sass.SemBrx, sass.SemCall, sass.SemRet,
		sass.SemExit, sass.SemKill, sass.SemBpt, sass.SemNone:
		return false
	}
	return true
}

// xlateEngine names and versions the translation scheme in the plan cache
// key: bumping it invalidates every cached plan without touching the module
// entries.
const xlateEngine = "gpu.xplan/v9"

// planFor returns the translated execution plan for a kernel, building and
// caching it process-wide on first use. Content-identical kernels — e.g.
// independent decodes of the same module binary across a campaign's contexts
// — share one plan. Returns nil (interpret everything) when translation is
// disabled on the device.
func (d *Device) planFor(k *sass.Kernel) *xplan {
	if d.NoXlate || k == nil {
		return nil
	}
	if p, ok := d.planMemo[k]; ok {
		return p
	}
	key := modcache.PlanKey{Engine: xlateEngine, Hash: d.kernelHash(k)}
	v, _, err := modcache.Shared.Plan(key, func() (any, error) { return translate(k) })
	if err != nil {
		return nil
	}
	p := v.(*xplan)
	if d.planMemo == nil {
		d.planMemo = make(map[*sass.Kernel]*xplan)
	}
	d.planMemo[k] = p
	return p
}

// kernelHashSlot names the memoized content hash in modcache.Derive.
type kernelHashSlot struct{}

// kernelHash is the content hash that keys the plan cache, computed once per
// kernel for the kernels the module cache shares: they are immutable and
// every experiment's fresh device meets the same pointers, so their hash is
// looked up by identity. Any other kernel (a private decode, one built by
// hand) is hashed on the spot, as its content is all that identifies it.
func (d *Device) kernelHash(k *sass.Kernel) [sha256.Size]byte {
	v, _ := modcache.Shared.Derive(k, kernelHashSlot{}, func() any {
		d.hashBuf = appendKernelFields(d.hashBuf[:0], k)
		return sha256.Sum256(d.hashBuf)
	})
	return v.([sha256.Size]byte)
}

// appendKernelFields serialises what the content hash covers — exactly the
// state translation reads: opcode, guard, modifiers, and every operand field
// with architectural meaning. Symbol names and the kernel name are
// deliberately excluded: two decodes that differ only cosmetically execute
// identically and may share a plan. The hash is taken over the whole buffer
// in one write; the byte sequence is part of the PlanKey contract and must
// not change without bumping xlateEngine.
func appendKernelFields(buf []byte, k *sass.Kernel) []byte {
	u32 := func(v uint32) { buf = binary.LittleEndian.AppendUint32(buf, v) }
	b := func(v bool) {
		if v {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	u32(uint32(len(k.Instrs)))
	for i := range k.Instrs {
		in := &k.Instrs[i]
		u32(uint32(in.Op))
		u32(uint32(in.Guard.Pred))
		b(in.Guard.Neg)
		m := &in.Mods
		u32(uint32(m.Width))
		b(m.Signed)
		b(m.Unsigned)
		u32(uint32(m.Cmp))
		u32(uint32(m.Bool))
		u32(uint32(m.Logic))
		u32(uint32(m.Mufu))
		u32(uint32(m.Atom))
		u32(uint32(m.Shfl))
		b(m.High)
		b(m.Right)
		b(m.FtoI.Trunc)
		b(m.Float)
		b(m.Sync)
		u32(uint32(len(in.Dst)))
		u32(uint32(len(in.Src)))
		for _, ops := range [2][]sass.Operand{in.Dst, in.Src} {
			for j := range ops {
				o := &ops[j]
				u32(uint32(o.Kind))
				b(o.Neg)
				u32(uint32(o.Reg))
				u32(uint32(o.Pred.Pred))
				b(o.Pred.Neg)
				u32(o.Imm)
				u32(uint32(o.Off))
				u32(uint32(o.Bank))
				u32(uint32(o.SReg))
				u32(uint32(o.Target))
			}
		}
	}
	return buf
}

// translate compiles a kernel into its execution plan. It cannot fail: any
// instruction the encoder does not understand compiles to an interpreter
// thunk. The error return exists for the modcache signature and future
// schemes that may want to reject kernels.
func translate(k *sass.Kernel) (*xplan, error) {
	steps := make([]xinstr, len(k.Instrs))
	ops := make([]rowOp, len(k.Instrs))
	rt := newRowTable()
	for i := range k.Instrs {
		in := &k.Instrs[i]
		xi := &steps[i]
		sem := in.Op.Info().Sem
		xi.altersFlow = semAltersFlow(sem)
		switch {
		case in.Guard.True():
			xi.guardKind = guardOn
		case in.Guard.Pred == sass.PT:
			xi.guardKind = guardOff
		default:
			xi.guardKind = guardCond
			xi.guardPred = in.Guard.Pred
			xi.guardNeg = in.Guard.Neg
		}
		xi.flow, xi.braTarget = flowOf(in)
		compileStep(xi, in, i, rt, &ops[i])
	}
	trigPair(ops)
	// Straight-line run lengths, computed backwards. A step is batchable
	// when it is simple or an EXIT and does not read the SM clock: the
	// batched loop charges the whole run's clock advance up front, which only
	// a CS2R/SR_CLOCK read could observe — those issue one at a time. A run
	// stays within its CFG basic block, so it can never span a branch target,
	// with one exception: past a guarded EXIT it goes on into the next block
	// when that block is entered only by falling through from the EXIT. An
	// EXIT ends its block, so it is the last step of a run that stops there.
	// Within a run, rowLen counts the row ops one runRows call may execute;
	// it cannot leave the run, because a dispatchable op is batchable (row
	// ops are simple, and dispatchable excludes the clock read) and never an
	// EXIT.
	cfg := sassan.BuildCFG(k)
	run, rows := int32(0), int32(0)
	for i := len(k.Instrs) - 1; i >= 0; i-- {
		if i+1 < len(k.Instrs) && cfg.BlockOf[i+1] != cfg.BlockOf[i] && !exitFallsInto(cfg, steps, i) {
			run, rows = 0, 0
		}
		xi := &steps[i]
		if (semSimple(k.Instrs[i].Op.Info().Sem) || xi.ctl == ctlExit) && !readsClock(&k.Instrs[i]) {
			run++
		} else {
			run = 0
		}
		if ops[i].dispatchable() {
			rows++
		} else {
			rows = 0
		}
		xi.runLen, xi.rowLen = run, rows
	}
	tallySites := make([]uint32, len(k.Instrs)+1)
	for pc := range tallySites {
		tallySites[pc] = uint32(pc)
	}
	return &xplan{steps: steps, ops: ops, arena: rt.arena, uniforms: rt.uniforms,
		regHi: writtenRegHi(k), tallySites: tallySites}, nil
}

// exitFallsInto reports whether the run through instruction i goes on into
// the next CFG block: i is a guarded EXIT, whose spared lanes fall through,
// and the next block has no other way in — no branch, return or indirect
// jump names it.
func exitFallsInto(cfg *sassan.CFG, steps []xinstr, i int) bool {
	return steps[i].ctl == ctlExit && steps[i].guardKind != guardOn &&
		len(cfg.BlockPreds[cfg.BlockOf[i+1]]) == 1
}

// readsClock reports whether executing the instruction can observe the SM
// clock: CS2R (always a clock read here) or any special-register source
// resolving to SR_CLOCK. Everything else specialVal computes from per-lane
// or per-block state that batching does not disturb.
func readsClock(in *sass.Instr) bool {
	if in.Op.Info().Sem == sass.SemCS2R {
		return true
	}
	for i := range in.Src {
		if in.Src[i].Kind == sass.OpdSpecial && in.Src[i].SReg == sass.SRClock {
			return true
		}
	}
	return false
}

// compileStep fills in how xi executes: as a control kind, as the row tier's
// step (fastStep, which also leaves the instruction's row op in *op), or
// through the interpreter thunk.
func compileStep(xi *xinstr, in *sass.Instr, pc int, rt *rowTable, op *rowOp) {
	if xi.ctl = controlOf(in); xi.ctl != ctlNone {
		return
	}
	if xi.step = fastStep(in, rt, op); xi.step == nil {
		xi.step = thunkStep(in, pc)
	}
}

// thunkStep is the universal fallback: execute through the interpreter. The
// captured instruction pointer refers into the translated kernel's (shared,
// immutable) instruction slice; pc is needed because SemCall pushes pc+1.
func thunkStep(in *sass.Instr, pc int) planStep {
	return func(blk *blockCtx, w *warp, execMask uint32) (bool, TrapKind, uint32) {
		return blk.exec(w, in, pc, execMask)
	}
}
