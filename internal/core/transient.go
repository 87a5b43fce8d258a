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

// TransientInjector is the injector.so analog: it corrupts the destination
// register of exactly one dynamic, thread-level instruction execution,
// selected by the parameter tuple. Only the targeted dynamic kernel
// instance is instrumented; every other launch runs unmodified — the
// selectivity the paper credits for NVBitFI's low injection overhead.
type TransientInjector struct {
	P TransientParams

	counter uint64 // eligible thread-level executions seen in the target launch
	// counterBase primes counter when the target launch begins. The
	// checkpoint engine sets it to the eligible executions that happened
	// before the restore point, which a restored run never re-executes.
	counterBase uint64
	active      bool // the in-flight launch is the target
	rec         InjectionRecord
}

var _ nvbit.Tool = (*TransientInjector)(nil)

// NewTransientInjector validates params and builds the injector. An
// injector is single-use: one experiment, one context.
func NewTransientInjector(p TransientParams) (*TransientInjector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &TransientInjector{P: p}, nil
}

// Name implements nvbit.Tool.
func (t *TransientInjector) Name() string { return "injector" }

// Record returns the injection outcome after the run.
func (t *TransientInjector) Record() InjectionRecord { return t.rec }

// Activations is zero: the flip is single-shot, and Record says whether it
// fired. With Record it makes the injector a faultmodel.Injector as it is.
func (t *TransientInjector) Activations() uint64 { return 0 }

// SetCounterBase primes the eligible-execution counter for a run restored
// from a mid-launch checkpoint: n is the number of eligible executions the
// golden prefix already performed, so the countdown to InstrCount continues
// where the snapshot left off. It must be called before the target launch.
func (t *TransientInjector) SetCounterBase(n uint64) { t.counterBase = n }

// OnLaunch implements nvbit.Tool: only the targeted dynamic kernel instance
// is instrumented.
func (t *TransientInjector) OnLaunch(info *nvbit.LaunchInfo) nvbit.Decision {
	if info.Kernel.Name != t.P.KernelName || info.LaunchIndex != t.P.KernelCount {
		return nvbit.RunOriginal
	}
	t.active = true
	t.counter = t.counterBase
	// The key deliberately omits InstrCount: the inserted callbacks are
	// identical for every count (the countdown lives in the injector, not
	// in the instrumentation), so keying on it would only defeat JIT-cache
	// reuse across repeat launches of the target kernel. A site-resolved
	// experiment instruments a single instruction, so its key carries the
	// static index instead.
	if t.P.SiteResolved {
		return nvbit.Decision{Instrument: true, Key: fmt.Sprintf("inject:%v@%d", t.P.Group, t.P.StaticInstrIdx)}
	}
	return nvbit.Decision{Instrument: true, Key: fmt.Sprintf("inject:%v", t.P.Group)}
}

// Instrument implements nvbit.Tool: attach the countdown-and-corrupt
// callback to every instruction in the target group.
func (t *TransientInjector) Instrument(k *sass.Kernel, _ string, ins *nvbit.Inserter) {
	if t.P.SiteResolved {
		// Site mode: the countdown runs over executions of one static
		// instruction, so only that instruction is instrumented.
		i := t.P.StaticInstrIdx
		if i >= len(k.Instrs) || !sass.GroupContains(t.P.Group, k.Instrs[i].Op) {
			return
		}
		ins.InsertAfter(i, func(c *gpu.InstrCtx) { t.step(c, i) })
		return
	}
	for i := range k.Instrs {
		if !sass.GroupContains(t.P.Group, k.Instrs[i].Op) {
			continue
		}
		idx := i
		ins.InsertAfter(i, func(c *gpu.InstrCtx) { t.step(c, idx) })
	}
}

// step advances the eligible-execution counter and fires the corruption
// when the count reaches the target.
func (t *TransientInjector) step(c *gpu.InstrCtx, instrIdx int) {
	if !t.active || t.rec.Activated {
		return
	}
	if sel := t.P.Thread; sel != nil {
		// Thread-targeted mode (extension): only the selected thread's
		// executions are eligible.
		if c.BlockLin != sel.BlockLinear || c.WarpID != sel.WarpID || !c.LaneActive(sel.Lane) {
			return
		}
		if t.counter < t.P.InstrCount {
			t.counter++
			return
		}
		t.corrupt(c, instrIdx, sel.Lane)
		return
	}
	n := uint64(c.LaneCount())
	if t.counter+n <= t.P.InstrCount {
		t.counter += n
		return
	}
	// The target falls inside this execution: find the k-th active lane.
	k := t.P.InstrCount - t.counter
	t.counter += n
	for lane := 0; lane < gpu.WarpSize; lane++ {
		if !c.LaneActive(lane) {
			continue
		}
		if k == 0 {
			t.corrupt(c, instrIdx, lane)
			return
		}
		k--
	}
}

// corrupt applies the bit-flip model to the selected destination
// register(s) of one lane, immediately after the instruction wrote them.
// The injector corrupts exactly one dynamic instruction, so once it has
// fired (including the no-destination case, which also sets Activated)
// every remaining callback in this launch is inert — step returns
// immediately. Disarm tells the engine to stop dispatching them while
// keeping trampoline accounting, so modeled time is unchanged.
func (t *TransientInjector) corrupt(c *gpu.InstrCtx, instrIdx, lane int) {
	CorruptDestN(&t.rec, c, instrIdx, lane, t.P.BitFlip, t.P.DestRegSelect,
		t.P.BitPatternValue, t.P.MultiRegCount)
	c.Disarm()
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
	*rec = InjectionRecord{
		Activated: true,
		Kernel:    c.Kernel.Name,
		InstrIdx:  int32(instrIdx),
		Opcode:    c.Instr.Op,
		SMID:      int32(c.SMID),
		BlockLin:  int32(c.BlockLin),
		WarpID:    int32(c.WarpID),
		Lane:      int32(lane),
	}
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

// OnLaunchDone implements nvbit.Tool.
func (t *TransientInjector) OnLaunchDone(info *nvbit.LaunchInfo, _ gpu.LaunchStats, _ *gpu.Trap, _ bool) {
	if t.active && info.Kernel != nil && info.Kernel.Name == t.P.KernelName &&
		info.LaunchIndex == t.P.KernelCount {
		t.active = false
	}
}
