package sass

import "fmt"

// FaultTarget is one destination a destination-register fault model can
// corrupt: a general-purpose register or, when IsPred, a predicate.
type FaultTarget struct {
	IsPred bool
	Reg    RegID
	Pred   PredID
}

func (t FaultTarget) String() string {
	if t.IsPred {
		return t.Pred.String()
	}
	return t.Reg.String()
}

// FaultTargetBuf holds the fault targets of any instruction the ISA has
// today (one register destination of up to four registers plus a
// predicate); a longer list spills to the heap through append.
type FaultTargetBuf [8]FaultTarget

// FaultTargets appends the instruction's corruptible destinations to out,
// in operand order — the one expansion every fault model, sassan's
// liveness and the engine's declarative permanent fault share. A predicate
// destination other than PT is one target. A register destination other than
// RZ spans one register, an even/odd pair for a FlagPair opcode, and two or
// four consecutive registers for a 64- or 128-bit LD*/LDC (the LDC width
// counts here although the executor writes one register). A span wraps
// through the uint8 register id and skips RZ. Callers that run per dynamic
// instruction back out with a FaultTargetBuf on the stack.
func (in *Instr) FaultTargets(out []FaultTarget) []FaultTarget {
	info := in.Op.Info()
	for i := range in.Dst {
		d := &in.Dst[i]
		switch d.Kind {
		case OpdPred:
			if d.Pred.Pred != PT {
				out = append(out, FaultTarget{IsPred: true, Pred: d.Pred.Pred})
			}
		case OpdReg:
			if d.Reg == RZ {
				continue
			}
			n := 1
			if info.Flags&FlagPair != 0 {
				n = 2
			}
			if info.Sem == SemLd || info.Sem == SemLdc {
				switch in.Mods.MemWidth() {
				case 8:
					n = 2
				case 16:
					n = 4
				}
			}
			for k := 0; k < n; k++ {
				if r := d.Reg + RegID(k); r != RZ {
					out = append(out, FaultTarget{Reg: r})
				}
			}
		}
	}
	return out
}

// OpSet is a set of opcodes, one bit per Op: comparable, so it can key a
// map, and free of pointers.
type OpSet [4]uint64

func init() {
	if len(opTable) >= 64*len(OpSet{}) {
		panic(fmt.Sprintf("sass: OpSet holds %d opcodes, the table has %d", 64*len(OpSet{})-1, len(opTable)))
	}
}

// Add puts op in the set.
func (s *OpSet) Add(op Op) { s[op>>6] |= 1 << (op & 63) }

// Has reports whether op is in the set.
func (s *OpSet) Has(op Op) bool { return int(op>>6) < len(s) && s[op>>6]&(1<<(op&63)) != 0 }
