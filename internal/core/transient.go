package core

import (
	"fmt"

	"repro/internal/gpu"
	"repro/internal/nvbit"
	"repro/internal/sass"
)

// InjectionRecord reports what a transient injection actually did — the
// per-run log NVBitFI writes for later analysis. A campaign result keeps one
// per experiment for as long as it lives, so the fields are packed: the
// indices are 32-bit, as the simulated GPU's are, and the one-byte fields sit
// together (72 bytes, not 104).
type InjectionRecord struct {
	// Activated is true when the targeted dynamic instruction was reached
	// and the corruption applied. With approximate profiles the selected
	// site may not exist in the real execution; the fault then never
	// activates.
	Activated bool
	// NoDestination is true when the target instruction writes no register
	// (a G_NODEST selection): the fault model has nothing to corrupt.
	NoDestination bool
	PredValue     bool // post-corruption value for predicate targets
	Opcode        sass.Op

	InstrIdx int32
	SMID     int32
	BlockLin int32
	WarpID   int32
	Lane     int32
	Before   uint32
	After    uint32
	Mask     uint32
	Kernel   string
	Target   string // corrupted register name
}

// HitRecord is the record of a single-site fault that landed on the
// instruction c describes: the fields every single-site model fills the same
// way. The landing lane is the model's to report.
func HitRecord(c *gpu.InstrCtx) InjectionRecord {
	return InjectionRecord{
		Activated: true,
		Kernel:    c.Kernel.Name,
		InstrIdx:  int32(c.InstrIdx),
		Opcode:    c.Instr.Op,
		SMID:      int32(c.SMID),
		BlockLin:  int32(c.BlockLin),
		WarpID:    int32(c.WarpID),
	}
}

// SingleSite is the nvbit.Tool every single-site fault model is: NVBitFI's
// injector.so shape. Only the target dynamic kernel instance is
// instrumented, and with no callback: a one-shot spec (gpu.Shot) on the armed
// sites, which the engine counts down to the chosen thread-level execution,
// where it calls the model's hit function once — the selectivity the paper
// credits for NVBitFI's low injection overhead. A model embeds it (built by
// NewSingleSite), keeps only its hit function, and records the outcome in Rec.
type SingleSite struct {
	P TransientParams
	// Rec is what the injection did, for Record; the hit function fills it.
	Rec InjectionRecord

	name, key string
	ops       sass.OpSet // the armed opcodes
	pc        int        // the one armed instruction, -1 for every one of ops
	base      uint64     // the count the target launch starts from
	spec      gpu.Shot
}

// NewSingleSite arms a single-site fault for p, named name, whose target
// launch builds under JIT key key: its spec is armed on the instructions of
// ops — on p's static instruction only, when p is site-resolved — and hit
// (with pre, optional, just before the target issues) runs at the landing.
func NewSingleSite(p TransientParams, name, key string, ops sass.OpSet, pre, hit func(*gpu.InstrCtx, int)) SingleSite {
	s := SingleSite{P: p, name: name, key: key, ops: ops, pc: -1}
	if p.SiteResolved {
		s.pc = p.StaticInstrIdx
	}
	s.spec = gpu.Shot{Target: p.InstrCount, Pre: pre, Hit: hit}
	return s
}

// Name implements nvbit.Tool.
func (s *SingleSite) Name() string { return s.name }

// Record returns the injection outcome after the run.
func (s *SingleSite) Record() InjectionRecord { return s.Rec }

// Activations is zero: the fault is single-shot, and Record says whether it
// fired.
func (s *SingleSite) Activations() uint64 { return 0 }

// OnLaunch implements nvbit.Tool: only the targeted dynamic kernel instance
// is instrumented, and its countdown starts there.
func (s *SingleSite) OnLaunch(info *nvbit.LaunchInfo) nvbit.Decision {
	if info.Kernel.Name != s.P.KernelName || info.LaunchIndex != s.P.KernelCount {
		return nvbit.RunOriginal
	}
	s.spec.Count = s.base
	return nvbit.Decision{Instrument: true, Key: s.key}
}

// Instrument implements nvbit.Tool: the spec goes on the armed sites.
func (s *SingleSite) Instrument(_ *sass.Kernel, _ string, ins *nvbit.Inserter) {
	ins.Shot(&s.spec, &s.ops, s.pc)
}

// OnLaunchDone implements nvbit.Tool.
func (s *SingleSite) OnLaunchDone(*nvbit.LaunchInfo, gpu.LaunchStats, *gpu.Trap, bool) {}

// TransientInjector is the injector.so analog: it corrupts the destination
// register of exactly one dynamic, thread-level instruction execution,
// selected by the parameter tuple.
type TransientInjector struct {
	SingleSite
}

var _ nvbit.Tool = (*TransientInjector)(nil)

// NewTransientInjector validates params and builds the injector. An
// injector is single-use: one experiment, one context.
func NewTransientInjector(p TransientParams) (*TransientInjector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	// The key deliberately omits InstrCount: the instrumentation is identical
	// for every count (the countdown is the spec's, not the build's), so
	// keying on it would only defeat JIT-cache reuse across repeat launches
	// of the target kernel. A site-resolved experiment instruments a single
	// instruction, so its key carries the static index instead.
	key := fmt.Sprintf("inject:%v", p.Group)
	if p.SiteResolved {
		key = fmt.Sprintf("inject:%v@%d", p.Group, p.StaticInstrIdx)
	}
	var ops sass.OpSet
	for op := sass.Op(1); int(op) <= sass.NumOpcodes(); op++ {
		if sass.GroupContains(p.Group, op) {
			ops.Add(op)
		}
	}
	t := &TransientInjector{}
	t.SingleSite = NewSingleSite(p, "injector", key, ops, nil, t.hit)
	if sel := p.Thread; sel != nil {
		// Thread-targeted mode (extension): only the selected thread's
		// executions are eligible.
		t.spec.Thread, t.spec.Block, t.spec.Warp, t.spec.Lane = true, sel.BlockLinear, sel.WarpID, sel.Lane
	}
	return t, nil
}

// SetCounterBase primes the eligible-execution counter for a run restored
// from a mid-launch checkpoint: n is the number of eligible executions the
// golden prefix already performed, so the countdown to InstrCount continues
// where the snapshot left off. It must be called before the target launch.
func (t *TransientInjector) SetCounterBase(n uint64) { t.base = n }

// hit applies the bit-flip model to the selected destination register(s) of
// the landing lane, immediately after the instruction wrote them.
func (t *TransientInjector) hit(c *gpu.InstrCtx, lane int) {
	CorruptDestN(&t.Rec, c, c.InstrIdx, lane, t.P.BitFlip, t.P.DestRegSelect,
		t.P.BitPatternValue, t.P.MultiRegCount)
}

// CorruptDest applies the Table II destination-register corruption to one
// lane of the instruction the context points at, filling rec with what
// happened. It is shared by NVBitFI's injector and the baseline tools so
// that overhead comparisons use identical fault semantics.
func CorruptDest(rec *InjectionRecord, c *gpu.InstrCtx, instrIdx, lane int,
	bf BitFlipModel, destSel, patVal float64) {
	CorruptDestN(rec, c, instrIdx, lane, bf, destSel, patVal, 1)
}

// CorruptDestN is CorruptDest with the Section V multi-register extension:
// count consecutive destination registers (starting at the selected one)
// receive the same corruption. count values below one mean one.
func CorruptDestN(rec *InjectionRecord, c *gpu.InstrCtx, instrIdx, lane int,
	bf BitFlipModel, destSel, patVal float64, count int) {
	*rec = HitRecord(c)
	rec.InstrIdx, rec.Lane = int32(instrIdx), int32(lane)
	var buf sass.FaultTargetBuf
	targets := c.Instr.FaultTargets(buf[:0])
	if len(targets) == 0 {
		// A G_NODEST selection: the register fault model has no
		// architectural state to corrupt (stores, branches, barriers).
		rec.NoDestination = true
		return
	}
	if count < 1 {
		count = 1
	}
	first := int(destSel * float64(len(targets)))
	for k := 0; k < count && first+k < len(targets); k++ {
		tg := targets[first+k]
		if k == 0 {
			rec.Target = tg.String()
		} else {
			rec.Target += "," + tg.String()
		}
		if tg.IsPred {
			before := c.ReadPred(lane, tg.Pred)
			after := bf.FlipPred(patVal, before)
			c.WritePred(lane, tg.Pred, after)
			if k == 0 {
				rec.PredValue = after
				if before {
					rec.Before = 1
				}
				if after {
					rec.After = 1
				}
			}
			continue
		}
		before := c.ReadReg(lane, tg.Reg)
		mask := bf.Mask(patVal, before)
		after := before ^ mask
		c.WriteReg(lane, tg.Reg, after)
		if k == 0 {
			rec.Before = before
			rec.After = after
			rec.Mask = mask
		}
	}
}
