package gpu

import (
	"fmt"

	"repro/internal/sass"
)

// Corruption is a declarative permanent fault: the engine applies it in line,
// as it counts a Tally, instead of calling a tool closure per instruction.
// After an instruction of opcode set Ops completes on a block of SM SM with
// lane Lane among its executing lanes, that is one activation; Gate (nil:
// every one) decides whether the activation corrupts, and if it does each of
// the instruction's sass.FaultTargets is corrupted in lane Lane — a register
// gets Value(op, old), a predicate is complemented when PredFlip — and every
// change is one corruption. Activations and Corruptions are the counters the
// engine keeps; the tool reads them. The spec belongs to the tool: the engine
// only updates its counters and the faulty lane's state, on the goroutine
// running the launch (an ExecKernel carrying a spec is instrumented, so its
// launches and every later one run sequentially).
type Corruption struct {
	SM, Lane int
	Ops      sass.OpSet

	Value    func(op sass.Op, old uint32) uint32
	PredFlip bool
	Gate     func(activation uint64) bool

	Activations uint64
	Corruptions uint64
}

// CorruptionSites are the static facts of a Corruption on one kernel: which
// instructions are charged an After site (those of the instrumented
// functional categories), which of them are live (of the spec's opcode
// set), and what a live site corrupts. They depend only on the kernel's
// content, the category mask and the opcode set, so one value serves every
// build, experiment and goroutine that instruments the kernel the same way;
// it is read-only once built.
type CorruptionSites struct {
	// sites is the After-site prefix count: sites[pc] sites on [0, pc).
	sites []uint32
	// next[pc] is the first live site at or after pc, len(next)-1 when none.
	next []uint32
	// targets[at[pc]:at[pc+1]] are live site pc's sass.FaultTargets, expanded
	// once here rather than on every activation; empty for any other pc.
	at      []uint32
	targets []sass.FaultTarget
}

// NewCorruptionSites derives the facts of a Corruption over opcode set ops on
// k, charging an After site on each instruction whose functional category
// has its bit (1 << sass.Category) set in cats. A live site is a charged
// instruction of ops.
//
// A campaign meets a new opcode set with nearly every experiment, so a build
// often derives them: they take one allocation for the three indexes and one
// for the targets.
func NewCorruptionSites(k *sass.Kernel, cats uint32, ops *sass.OpSet) *CorruptionSites {
	n := len(k.Instrs)
	idx := make([]uint32, 3*(n+1))
	s := &CorruptionSites{sites: idx[:n+1], next: idx[n+1 : 2*(n+1)], at: idx[2*(n+1):]}
	var buf sass.FaultTargetBuf
	for pc := range k.Instrs {
		in := &k.Instrs[pc]
		s.sites[pc+1], s.at[pc+1] = s.sites[pc], s.at[pc]
		if cats>>in.Op.Info().Cat&1 != 0 {
			s.sites[pc+1]++
			if ops.Has(in.Op) {
				s.at[pc+1] += uint32(len(in.FaultTargets(buf[:0])))
			}
		}
	}
	s.next[n] = uint32(n)
	s.targets = make([]sass.FaultTarget, 0, s.at[n])
	for pc := n - 1; pc >= 0; pc-- {
		s.next[pc] = s.next[pc+1]
		if s.site(int32(pc)) && ops.Has(k.Instrs[pc].Op) {
			s.next[pc] = uint32(pc)
		}
	}
	for pc := range k.Instrs {
		if s.next[pc] == uint32(pc) {
			s.targets = k.Instrs[pc].FaultTargets(s.targets)
		}
	}
	return s
}

// site reports whether instruction pc is charged an After site.
func (s *CorruptionSites) site(pc int32) bool { return s.sites[pc+1] != s.sites[pc] }

// check validates the facts against the kernel they are used with.
func (s *CorruptionSites) check(k *sass.Kernel) error {
	if s == nil || len(s.sites) != len(k.Instrs)+1 {
		return fmt.Errorf("gpu: kernel %q carries a Corruption without its sites", k.Name)
	}
	return nil
}

// corrupt applies the block's live spec after the instruction at pc, a live
// site, completed for the lanes in execMask.
func (blk *blockCtx) corrupt(w *warp, pc int32, execMask uint32) {
	c := blk.spec
	lane := c.Lane
	if execMask>>uint(lane)&1 == 0 {
		return
	}
	act := c.Activations
	c.Activations++
	if c.Gate != nil && !c.Gate(act) {
		return
	}
	op, s := blk.ek.K.Instrs[pc].Op, blk.ek.CorruptSites
	for _, t := range s.targets[s.at[pc]:s.at[pc+1]] {
		if t.IsPred {
			if c.PredFlip {
				w.preds[t.Pred] ^= 1 << uint(lane)
				c.Corruptions++
			}
			continue
		}
		row := &w.regs[t.Reg]
		if v := c.Value(op, row[lane]); v != row[lane] {
			// The spec writes a register the warp's static destination scan
			// may not bound (a wide-load span that wraps): widen the dirty
			// window as InstrCtx.WriteReg does.
			if int32(t.Reg) >= w.dirtyRegs {
				w.dirtyRegs = int32(t.Reg) + 1
			}
			row[lane] = v
			c.Corruptions++
		}
	}
}
