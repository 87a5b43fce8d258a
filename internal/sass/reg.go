// Package sass models a SASS-like GPU instruction set architecture: the
// register and predicate files, an opcode table comparable in size and
// structure to the Volta ISA (171 opcodes), a textual assembly format with
// parser and disassembler, and the instruction-classification scheme
// (G_FP64, G_FP32, G_LD, ...) that the fault injector's "arch state id"
// parameter selects over.
//
// The package is purely a data model: execution semantics live in
// internal/gpu, and binary encodings live in internal/sass/encoding.
package sass

import (
	"fmt"
	"strconv"
	"strings"
)

// RegID names a 32-bit general-purpose register R0..R254. R255 is RZ, the
// architectural zero register: it reads as zero and writes to it are
// discarded.
type RegID uint8

// RZ is the always-zero register.
const RZ RegID = 255

// NumRegs is the size of the per-thread general-purpose register file,
// including RZ.
const NumRegs = 256

// String returns the assembly spelling of the register ("R7" or "RZ"),
// without allocating: an injection record keeps its target's name for as
// long as its campaign result lives.
func (r RegID) String() string { return regNames[r] }

var regNames = func() (n [NumRegs]string) {
	for r := range n {
		n[r] = "R" + strconv.Itoa(r)
	}
	n[RZ] = "RZ"
	return n
}()

// ParseReg parses a register name such as "R12" or "RZ".
func ParseReg(s string) (RegID, error) {
	if s == "RZ" {
		return RZ, nil
	}
	if len(s) < 2 || s[0] != 'R' {
		return 0, fmt.Errorf("sass: invalid register %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n > 254 {
		return 0, fmt.Errorf("sass: invalid register %q", s)
	}
	return RegID(n), nil
}

// PredID names a 1-bit predicate register P0..P6. P7 is PT, the constant
// true predicate; writes to PT are discarded.
type PredID uint8

// PT is the constant-true predicate register.
const PT PredID = 7

// NumPreds is the size of the per-thread predicate file, including PT.
const NumPreds = 8

// String returns the assembly spelling of the predicate ("P3" or "PT").
func (p PredID) String() string {
	if p == PT {
		return "PT"
	}
	return "P" + strconv.Itoa(int(p))
}

// ParsePred parses a predicate name such as "P2" or "PT".
func ParsePred(s string) (PredID, error) {
	if s == "PT" {
		return PT, nil
	}
	if len(s) != 2 || s[0] != 'P' {
		return 0, fmt.Errorf("sass: invalid predicate %q", s)
	}
	n := int(s[1] - '0')
	if n < 0 || n > 6 {
		return 0, fmt.Errorf("sass: invalid predicate %q", s)
	}
	return PredID(n), nil
}

// PredRef is a possibly negated reference to a predicate register, used both
// as an instruction guard (@!P0) and as a predicate source operand.
type PredRef struct {
	Pred PredID
	Neg  bool
}

// PredTrue is the default guard: always execute.
var predTrue = PredRef{Pred: PT}

// True reports whether the reference is the un-negated constant-true
// predicate PT.
func (p PredRef) True() bool { return p.Pred == PT && !p.Neg }

// String returns the assembly spelling, e.g. "P0" or "!P3".
func (p PredRef) String() string {
	if p.Neg {
		return "!" + p.Pred.String()
	}
	return p.Pred.String()
}

// ParsePredRef parses "P0", "!P3", "PT" or "!PT".
func ParsePredRef(s string) (PredRef, error) {
	neg := false
	if strings.HasPrefix(s, "!") {
		neg = true
		s = s[1:]
	}
	p, err := ParsePred(s)
	if err != nil {
		return PredRef{}, err
	}
	return PredRef{Pred: p, Neg: neg}, nil
}

// SpecialReg identifies the read-only special registers exposed through the
// S2R instruction.
type SpecialReg uint8

// Special registers. Values start at one so the zero value is invalid.
const (
	SRInvalid SpecialReg = iota
	SRTidX               // thread index within block, x
	SRTidY
	SRTidZ
	SRCtaidX // block index within grid, x
	SRCtaidY
	SRCtaidZ
	SRLaneID // lane within warp, 0..31
	SRWarpID // warp within block
	SRSMID   // streaming multiprocessor executing the thread
	SREqMask // lanes with the same lane id (identity bit)
	SRLtMask // lanes with a lower lane id
	SRClock  // deterministic per-SM cycle counter
)

var specialNames = map[SpecialReg]string{
	SRTidX:   "SR_TID.X",
	SRTidY:   "SR_TID.Y",
	SRTidZ:   "SR_TID.Z",
	SRCtaidX: "SR_CTAID.X",
	SRCtaidY: "SR_CTAID.Y",
	SRCtaidZ: "SR_CTAID.Z",
	SRLaneID: "SR_LANEID",
	SRWarpID: "SR_WARPID",
	SRSMID:   "SR_SMID",
	SREqMask: "SR_EQMASK",
	SRLtMask: "SR_LTMASK",
	SRClock:  "SR_CLOCK",
}

// String returns the assembly spelling of the special register.
func (s SpecialReg) String() string {
	if n, ok := specialNames[s]; ok {
		return n
	}
	return fmt.Sprintf("SR_INVALID(%d)", uint8(s))
}

// ParseSpecialReg parses a special-register name such as "SR_TID.X".
func ParseSpecialReg(s string) (SpecialReg, error) {
	for sr, name := range specialNames {
		if name == s {
			return sr, nil
		}
	}
	return SRInvalid, fmt.Errorf("sass: unknown special register %q", s)
}
