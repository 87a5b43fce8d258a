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
// the corruption per opcode. The fault is engine data, not a callback: the
// injector describes it as a gpu.Corruption, which the warp loop applies in
// line after each instance completes and whose counters are the injector's
// Activations and Corruptions.
type PermanentInjector struct {
	P    PermanentParams
	cats uint32 // the functional categories of the target opcodes, one bit per sass.Category
	key  string // the JIT cache key of every launch this fault instruments
	spec gpu.Corruption
}

var _ nvbit.Tool = (*PermanentInjector)(nil)

// NewPermanentInjector validates params against the device shape and
// resolves opcode ids for its family.
func NewPermanentInjector(p PermanentParams, family sass.Family, numSMs int) (*PermanentInjector, error) {
	if err := p.Validate(family, numSMs); err != nil {
		return nil, err
	}
	set := sass.OpcodeSet(family)
	pi := &PermanentInjector{P: p, key: fmt.Sprintf("pf:%d", p.OpcodeID)}
	pi.spec = gpu.Corruption{
		SM:   p.SMID,
		Lane: p.Lane,
		// Per Table III, "the destination registers of all dynamic instances
		// of a particular opcode [are] corrupted with the same bit-flip XOR
		// mask" — registers plural: a pair-valued FP64 result or a wide load
		// has every destination register corrupted. A predicate destination
		// is complemented when the mask has bit 0, whatever the value
		// function computes.
		Value:    xorWith(p.BitMask),
		PredFlip: p.BitMask&1 != 0,
	}
	target := func(id int) {
		pi.spec.Ops.Add(set[id])
		pi.cats |= 1 << set[id].Info().Cat
	}
	target(p.OpcodeID)
	for _, id := range p.ExtraOpcodeIDs {
		target(id)
	}
	return pi, nil
}

// xorWith is the default corruption: XOR by the fault's mask.
func xorWith(mask uint32) func(sass.Op, uint32) uint32 {
	return func(_ sass.Op, old uint32) uint32 { return old ^ mask }
}

// SetGate makes the fault intermittent (extension). Must be set before the
// first launch.
func (pi *PermanentInjector) SetGate(g ActivationGate) {
	pi.spec.Gate = nil
	if g != nil {
		pi.spec.Gate = g.Active
	}
}

// SetDictionary installs per-opcode corruption functions (extension): an
// opcode the dictionary has is corrupted by its function, any other by the
// XOR mask. Must be set before the first launch.
func (pi *PermanentInjector) SetDictionary(d FaultDictionary) {
	// Only the fault's own opcodes are ever corrupted: their entries, found
	// here once, spare every corruption a map lookup.
	type entry struct {
		op sass.Op
		fn CorruptionFunc
	}
	var table []entry
	for op, fn := range d {
		if pi.spec.Ops.Has(op) {
			table = append(table, entry{op, fn})
		}
	}
	xor := xorWith(pi.P.BitMask)
	pi.spec.Value = xor
	if len(table) > 0 {
		pi.spec.Value = func(op sass.Op, old uint32) uint32 {
			for _, e := range table {
				if e.op == op {
					return e.fn(op, old)
				}
			}
			return xor(op, old)
		}
	}
}

// Activations returns how many times the fault site was exercised.
func (pi *PermanentInjector) Activations() uint64 { return pi.spec.Activations }

// Record is the zero record: a permanent fault has no single injection to
// report, only its Activations. With Activations it makes the injector a
// faultmodel.Injector as it is.
func (pi *PermanentInjector) Record() InjectionRecord { return InjectionRecord{} }

// Corruptions returns how many activations actually corrupted state.
func (pi *PermanentInjector) Corruptions() uint64 { return pi.spec.Corruptions }

// Name implements nvbit.Tool.
func (pi *PermanentInjector) Name() string { return "pf_injector" }

// OnLaunch implements nvbit.Tool: a permanent fault is present in every
// kernel, so every launch whose kernel executes the opcode is instrumented.
func (pi *PermanentInjector) OnLaunch(info *nvbit.LaunchInfo) nvbit.Decision {
	for i := range info.Kernel.Instrs {
		if pi.spec.Ops.Has(info.Kernel.Instrs[i].Op) {
			return nvbit.Decision{Instrument: true, Key: pi.key}
		}
	}
	return nvbit.RunOriginal
}

// Instrument implements nvbit.Tool: every instruction in the functional
// categories of the fault's opcodes carries the check, and the fault lands on
// the exact opcodes. A hardware-mapped fault cannot be statically narrowed to
// one opcode: the check runs at runtime on every instruction routed to the
// faulty unit, so the injector charges the whole category — as NVBitFI's
// pf_injector instruments broadly and filters in its injected device
// function. The filtering is the engine's: blocks off the faulty SM pay the
// trampoline charge and nothing else.
func (pi *PermanentInjector) Instrument(_ *sass.Kernel, _ string, ins *nvbit.Inserter) {
	ins.Corrupt(&pi.spec, pi.cats)
}

// OnLaunchDone implements nvbit.Tool.
func (pi *PermanentInjector) OnLaunchDone(*nvbit.LaunchInfo, gpu.LaunchStats, *gpu.Trap, bool) {}
