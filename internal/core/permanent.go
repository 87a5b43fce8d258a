package core

import (
	"fmt"

	"repro/internal/gpu"
	"repro/internal/nvbit"
	"repro/internal/sass"
)

// ActivationGate decides whether the nth potential activation of a
// permanent fault actually corrupts state. A nil gate means every
// activation fires (a true permanent fault). Gates implement the paper's
// intermittent-fault future direction: "inject into only a subset of those
// instructions. The subset can be specified as a random, bursty process."
type ActivationGate interface {
	Active(activation uint64) bool
}

// RandomGate activates each instance independently with probability P,
// deterministically derived from the seed.
type RandomGate struct {
	P    float64
	Seed int64
}

// Active implements ActivationGate. The decision is a pure function of the
// activation index so that replays are identical: one splitmix64 scramble of
// the seed/index pair yields the uniform variate, with no per-activation
// allocation (this runs once per dynamic instance of the faulty opcode).
func (g RandomGate) Active(activation uint64) bool {
	z := uint64(g.Seed) ^ (activation+1)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11)/(1<<53) < g.P
}

// BurstGate activates in bursts: BurstLen activations fire out of every
// Period, starting at Offset.
type BurstGate struct {
	Period   uint64
	BurstLen uint64
	Offset   uint64
}

// Active implements ActivationGate.
func (g BurstGate) Active(activation uint64) bool {
	if g.Period == 0 {
		return true
	}
	return (activation+g.Offset)%g.Period < g.BurstLen
}

// CorruptionFunc computes the corrupted register value — the hook behind
// the paper's fault-dictionary extension. old is the just-written value.
type CorruptionFunc func(op sass.Op, old uint32) uint32

// FaultDictionary maps opcodes to specialized corruption functions,
// overriding the default XOR mask (Section V: "a fault dictionary might be
// useful when a complex fault model is not easily characterized by a set of
// parameters").
type FaultDictionary map[sass.Op]CorruptionFunc

// PermanentInjector is the pf_injector.so analog: it corrupts the
// destination register of every dynamic instance of the target opcode(s)
// that executes on the target SM and lane, with one XOR mask (Table III).
// Optional gates make it intermittent; an optional dictionary specializes
// the corruption per opcode.
type PermanentInjector struct {
	P    PermanentParams
	ops  []bool // the target opcodes as a set indexed by sass.Op: step asks it per dynamic instruction
	cats uint32 // the functional categories of the target opcodes, one bit per sass.Category
	key  string // the JIT cache key of every launch this fault instruments
	gate ActivationGate
	dict FaultDictionary

	activations uint64 // times the fault site was exercised
	corruptions uint64 // times state was actually corrupted
}

var _ nvbit.Tool = (*PermanentInjector)(nil)

// NewPermanentInjector validates params against the device shape and
// resolves opcode ids for its family.
func NewPermanentInjector(p PermanentParams, family sass.Family, numSMs int) (*PermanentInjector, error) {
	if err := p.Validate(family, numSMs); err != nil {
		return nil, err
	}
	set := sass.OpcodeSet(family)
	pi := &PermanentInjector{P: p, ops: make([]bool, sass.NumOpcodes()+1), key: fmt.Sprintf("pf:%d", p.OpcodeID)}
	target := func(id int) {
		pi.ops[set[id]] = true
		pi.cats |= 1 << set[id].Info().Cat
	}
	target(p.OpcodeID)
	for _, id := range p.ExtraOpcodeIDs {
		target(id)
	}
	return pi, nil
}

// targets reports whether op is one of the fault's opcodes.
func (pi *PermanentInjector) targets(op sass.Op) bool {
	return int(op) < len(pi.ops) && pi.ops[op]
}

// SetGate makes the fault intermittent (extension). Must be set before the
// first launch.
func (pi *PermanentInjector) SetGate(g ActivationGate) { pi.gate = g }

// SetDictionary installs per-opcode corruption functions (extension).
func (pi *PermanentInjector) SetDictionary(d FaultDictionary) { pi.dict = d }

// Activations returns how many times the fault site was exercised.
func (pi *PermanentInjector) Activations() uint64 { return pi.activations }

// Record is the zero record: a permanent fault has no single injection to
// report, only its Activations. With Activations it makes the injector a
// faultmodel.Injector as it is.
func (pi *PermanentInjector) Record() InjectionRecord { return InjectionRecord{} }

// Corruptions returns how many activations actually corrupted state.
func (pi *PermanentInjector) Corruptions() uint64 { return pi.corruptions }

// Name implements nvbit.Tool.
func (pi *PermanentInjector) Name() string { return "pf_injector" }

// OnLaunch implements nvbit.Tool: a permanent fault is present in every
// kernel, so every launch whose kernel executes the opcode is instrumented.
func (pi *PermanentInjector) OnLaunch(info *nvbit.LaunchInfo) nvbit.Decision {
	for i := range info.Kernel.Instrs {
		if pi.targets(info.Kernel.Instrs[i].Op) {
			return nvbit.Decision{Instrument: true, Key: pi.key}
		}
	}
	return nvbit.RunOriginal
}

// Instrument implements nvbit.Tool: every instruction in the functional
// categories of the fault's opcodes carries the check; the exact-opcode match
// happens at runtime in the callback. A hardware-mapped fault cannot be
// statically narrowed to one opcode: the check runs at runtime on every
// instruction routed to the faulty unit, so the injector instruments the
// whole category and filters in the callback — as NVBitFI's pf_injector
// instruments broadly and filters in its injected device function.
func (pi *PermanentInjector) Instrument(k *sass.Kernel, _ string, ins *nvbit.Inserter) {
	step := pi.step // one method value for every site
	for i := range k.Instrs {
		if pi.cats>>k.Instrs[i].Op.Info().Cat&1 != 0 {
			ins.InsertAfter(i, step)
		}
	}
}

// step corrupts the destination of the target lane when a target-opcode
// instruction executes on the target SM.
func (pi *PermanentInjector) step(c *gpu.InstrCtx) {
	if !pi.targets(c.Instr.Op) || c.SMID != pi.P.SMID || !c.LaneActive(pi.P.Lane) {
		return
	}
	act := pi.activations
	pi.activations++
	if pi.gate != nil && !pi.gate.Active(act) {
		return
	}
	var buf destTargetBuf
	targets := destTargets(buf[:0], c.Instr)
	if len(targets) == 0 {
		return
	}
	lane := pi.P.Lane
	// Per Table III, "the destination registers of all dynamic instances of
	// a particular opcode [are] corrupted with the same bit-flip XOR mask" —
	// registers plural: a pair-valued FP64 result or a wide load has every
	// destination register corrupted.
	for _, tg := range targets {
		if tg.isPred {
			if pi.P.BitMask&1 != 0 {
				c.WritePred(lane, tg.pred, !c.ReadPred(lane, tg.pred))
				pi.corruptions++
			}
			continue
		}
		old := c.ReadReg(lane, tg.reg)
		var corrupted uint32
		if fn, ok := pi.dict[c.Instr.Op]; ok {
			corrupted = fn(c.Instr.Op, old)
		} else {
			corrupted = old ^ pi.P.BitMask
		}
		if corrupted != old {
			c.WriteReg(lane, tg.reg, corrupted)
			pi.corruptions++
		}
	}
}

// OnLaunchDone implements nvbit.Tool.
func (pi *PermanentInjector) OnLaunchDone(*nvbit.LaunchInfo, gpu.LaunchStats, *gpu.Trap, bool) {}
