// Package sassan is the static-analysis layer over decoded SASS kernels:
// per-instruction def/use extraction, basic-block CFG construction,
// backward liveness dataflow, and a module verifier/linter. It is pure
// analysis — nothing here executes or mutates a kernel — and it sits
// between the ISA model (internal/sass) and the consumers that want a
// static view: module verification at load time (internal/cuda,
// internal/campaign's lint), the adaptive strata's fault-equivalence
// classes (internal/campaign), and the standalone cmd/sasslint tool.
//
// The def/use model mirrors the simulator's execution semantics
// (internal/gpu/exec.go) instruction for instruction: FP64 operands occupy
// register pairs, 64/128-bit memory accesses read or write two or four
// consecutive registers, CS2R writes a pair, P2R reads every predicate,
// and absent optional predicate operands default to true and are therefore
// not uses. Guarded instructions read their guard predicate and their
// writes are conditional, so they never kill liveness.
package sassan

import (
	"strings"

	"repro/internal/sass"
)

// RegSet is a bitset over the 256 general-purpose register names. RZ is
// representable but never a member: reads of RZ are the constant zero and
// writes to it are discarded, so it carries no dataflow.
type RegSet [4]uint64

// Add inserts a register.
func (s *RegSet) Add(r sass.RegID) { s[r>>6] |= 1 << (r & 63) }

// Has reports membership.
func (s *RegSet) Has(r sass.RegID) bool { return s[r>>6]&(1<<(r&63)) != 0 }

// Union merges o into s.
func (s *RegSet) Union(o RegSet) {
	s[0] |= o[0]
	s[1] |= o[1]
	s[2] |= o[2]
	s[3] |= o[3]
}

// Minus returns s with o's members removed.
func (s RegSet) Minus(o RegSet) RegSet {
	return RegSet{s[0] &^ o[0], s[1] &^ o[1], s[2] &^ o[2], s[3] &^ o[3]}
}

// Intersects reports whether the sets share a member.
func (s RegSet) Intersects(o RegSet) bool {
	return s[0]&o[0]|s[1]&o[1]|s[2]&o[2]|s[3]&o[3] != 0
}

// ContainedIn reports whether every member of s is in o.
func (s RegSet) ContainedIn(o RegSet) bool {
	return s[0]&^o[0]|s[1]&^o[1]|s[2]&^o[2]|s[3]&^o[3] == 0
}

// Empty reports whether the set has no members.
func (s RegSet) Empty() bool { return s[0]|s[1]|s[2]|s[3] == 0 }

// Regs lists the members in register order.
func (s RegSet) Regs() []sass.RegID {
	var out []sass.RegID
	for w := 0; w < 4; w++ {
		for b := 0; b < 64; b++ {
			if s[w]&(1<<b) != 0 {
				out = append(out, sass.RegID(w<<6|b))
			}
		}
	}
	return out
}

// String renders e.g. "{R0,R4,R5}".
func (s RegSet) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, r := range s.Regs() {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(r.String())
	}
	sb.WriteByte('}')
	return sb.String()
}

// PredSet is a bitset over the predicate registers P0..P6. PT is
// representable (bit 7) but never a member, for the same reason RZ is not
// in RegSet.
type PredSet uint8

// Add inserts a predicate.
func (s *PredSet) Add(p sass.PredID) { *s |= 1 << p }

// Has reports membership.
func (s PredSet) Has(p sass.PredID) bool { return s&(1<<p) != 0 }

// Minus returns s with o's members removed.
func (s PredSet) Minus(o PredSet) PredSet { return s &^ o }

// Intersects reports whether the sets share a member.
func (s PredSet) Intersects(o PredSet) bool { return s&o != 0 }

// ContainedIn reports whether every member of s is in o.
func (s PredSet) ContainedIn(o PredSet) bool { return s&^o == 0 }

// Empty reports whether the set has no members.
func (s PredSet) Empty() bool { return s == 0 }

// Preds lists the members in register order.
func (s PredSet) Preds() []sass.PredID {
	var out []sass.PredID
	for p := sass.PredID(0); p < sass.NumPreds; p++ {
		if s.Has(p) {
			out = append(out, p)
		}
	}
	return out
}

// String renders e.g. "{P0,P2}".
func (s PredSet) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, p := range s.Preds() {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(p.String())
	}
	sb.WriteByte('}')
	return sb.String()
}
