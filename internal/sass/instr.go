package sass

import (
	"math"
	"strings"
)

// CmpOp is a comparison operator modifier (ISETP.LT, FSETP.GE, ...).
type CmpOp uint8

// Comparison operators. Values start at one; the zero value means "no
// comparison modifier".
const (
	CmpNone CmpOp = iota
	CmpF          // always false
	CmpLT
	CmpEQ
	CmpLE
	CmpGT
	CmpNE
	CmpGE
	CmpNum // ordered (neither operand NaN)
	CmpNan // unordered (either operand NaN)
	CmpT   // always true
)

var cmpNames = [...]string{
	CmpF: "F", CmpLT: "LT", CmpEQ: "EQ", CmpLE: "LE", CmpGT: "GT",
	CmpNE: "NE", CmpGE: "GE", CmpNum: "NUM", CmpNan: "NAN", CmpT: "T",
}

func (c CmpOp) String() string {
	if c >= CmpF && int(c) < len(cmpNames) {
		return cmpNames[c]
	}
	return ""
}

// BoolOp combines a comparison result with a source predicate (SETP's .AND,
// .OR, .XOR).
type BoolOp uint8

// Boolean combiners.
const (
	BoolNone BoolOp = iota
	BoolAnd
	BoolOr
	BoolXor
)

func (b BoolOp) String() string {
	switch b {
	case BoolAnd:
		return "AND"
	case BoolOr:
		return "OR"
	case BoolXor:
		return "XOR"
	default:
		return ""
	}
}

// Apply combines x and y under the boolean operator; BoolNone passes x.
func (b BoolOp) Apply(x, y bool) bool {
	switch b {
	case BoolAnd:
		return x && y
	case BoolOr:
		return x || y
	case BoolXor:
		return x != y
	default:
		return x
	}
}

// LogicOp is the LOP two-input logic operator.
type LogicOp uint8

// Logic operators.
const (
	LogicNone LogicOp = iota
	LogicAnd
	LogicOr
	LogicXor
	LogicPassB // PASS_B: result is second operand (possibly inverted)
)

func (l LogicOp) String() string {
	switch l {
	case LogicAnd:
		return "AND"
	case LogicOr:
		return "OR"
	case LogicXor:
		return "XOR"
	case LogicPassB:
		return "PASS_B"
	default:
		return ""
	}
}

// MufuFn is the MUFU multi-function-unit operation.
type MufuFn uint8

// MUFU functions.
const (
	MufuNone MufuFn = iota
	MufuRcp
	MufuRsq
	MufuSqrt
	MufuEx2
	MufuLg2
	MufuSin
	MufuCos
)

var mufuNames = [...]string{
	MufuRcp: "RCP", MufuRsq: "RSQ", MufuSqrt: "SQRT",
	MufuEx2: "EX2", MufuLg2: "LG2", MufuSin: "SIN", MufuCos: "COS",
}

func (m MufuFn) String() string {
	if m >= MufuRcp && int(m) < len(mufuNames) {
		return mufuNames[m]
	}
	return ""
}

// AtomOp is the atomic/reduction operation.
type AtomOp uint8

// Atomic operations.
const (
	AtomNone AtomOp = iota
	AtomAdd
	AtomMin
	AtomMax
	AtomAnd
	AtomOr
	AtomXor
	AtomExch
	AtomCAS
)

var atomNames = [...]string{
	AtomAdd: "ADD", AtomMin: "MIN", AtomMax: "MAX", AtomAnd: "AND",
	AtomOr: "OR", AtomXor: "XOR", AtomExch: "EXCH", AtomCAS: "CAS",
}

func (a AtomOp) String() string {
	if a >= AtomAdd && int(a) < len(atomNames) {
		return atomNames[a]
	}
	return ""
}

// ShflMode is the warp-shuffle mode.
type ShflMode uint8

// Shuffle modes.
const (
	ShflNone ShflMode = iota
	ShflIdx
	ShflUp
	ShflDown
	ShflBfly
)

var shflNames = [...]string{ShflIdx: "IDX", ShflUp: "UP", ShflDown: "DOWN", ShflBfly: "BFLY"}

func (s ShflMode) String() string {
	if s >= ShflIdx && int(s) < len(shflNames) {
		return shflNames[s]
	}
	return ""
}

// Mods holds the decoded dotted-suffix modifiers of an instruction. The zero
// value means "no modifiers"; Width defaults to 4 bytes where it matters.
type Mods struct {
	Width    uint8 // memory access width in bytes: 1, 2, 4, 8, 16 (0 = default 4)
	Signed   bool  // .S* conversions, sign-extending sub-word loads, signed compares
	Unsigned bool  // .U32 explicitly-unsigned compares/shifts
	Cmp      CmpOp
	Bool     BoolOp
	Logic    LogicOp
	Mufu     MufuFn
	Atom     AtomOp
	Shfl     ShflMode
	High     bool // SHF.HI / IMAD.HI: take high half of wide result
	Right    bool // SHF.R (vs .L)
	FtoI     struct {
		Trunc bool // F2I.TRUNC (the only rounding mode modelled)
	}
	Float bool // ATOM.ADD.F32 style float atomics
	Sync  bool // BAR.SYNC
}

// MemWidth returns the effective memory access width in bytes.
func (m *Mods) MemWidth() uint8 {
	if m.Width == 0 {
		return 4
	}
	return m.Width
}

// suffixString reassembles the canonical dotted-modifier string for
// disassembly, e.g. ".LT.AND" or ".64".
func (m *Mods) suffixString() string {
	var sb strings.Builder
	add := func(s string) {
		if s != "" {
			sb.WriteByte('.')
			sb.WriteString(s)
		}
	}
	add(m.Mufu.String())
	add(m.Atom.String())
	add(m.Shfl.String())
	add(m.Cmp.String())
	if m.Unsigned {
		add("U32")
	}
	if m.Signed {
		add("S32")
	}
	add(m.Bool.String())
	add(m.Logic.String())
	if m.Float {
		add("F32")
	}
	if m.High {
		add("HI")
	}
	if m.Right {
		add("R")
	}
	if m.FtoI.Trunc {
		add("TRUNC")
	}
	if m.Sync {
		add("SYNC")
	}
	switch m.Width {
	case 1:
		add("8")
	case 2:
		add("16")
	case 4:
		add("32")
	case 8:
		add("64")
	case 16:
		add("128")
	}
	return sb.String()
}

// Instr is one decoded instruction. Dst and Src slices are ordered as in
// assembly text; Guard defaults to @PT (always execute).
type Instr struct {
	Op    Op
	Guard PredRef
	Dst   []Operand
	Src   []Operand
	Mods  Mods
}

// NewInstr builds an instruction with the default guard, splitting operands
// into destinations and sources per the opcode's NumDst.
func NewInstr(op Op, operands ...Operand) Instr {
	nd := int(op.Info().NumDst)
	if nd > len(operands) {
		nd = len(operands)
	}
	return Instr{
		Op:    op,
		Guard: predTrue,
		Dst:   operands[:nd:nd],
		Src:   operands[nd:],
	}
}

// HasDest reports whether the instruction writes any register.
func (in *Instr) HasDest() bool { return len(in.Dst) > 0 && in.Op.Info().HasDest() }

// String renders the instruction in assembly syntax.
func (in *Instr) String() string {
	var sb strings.Builder
	if !in.Guard.True() {
		sb.WriteString("@")
		sb.WriteString(in.Guard.String())
		sb.WriteString(" ")
	}
	sb.WriteString(in.Op.String())
	sb.WriteString(in.Mods.suffixString())
	for i := range in.Dst {
		if i == 0 {
			sb.WriteString(" ")
		} else {
			sb.WriteString(", ")
		}
		sb.WriteString(in.Dst[i].String())
	}
	for i := range in.Src {
		if i == 0 && len(in.Dst) == 0 {
			sb.WriteString(" ")
		} else {
			sb.WriteString(", ")
		}
		sb.WriteString(in.Src[i].String())
	}
	return sb.String()
}

// Kernel is one GPU function: a name, parameter layout, and instruction
// list. Labels are resolved to instruction indexes by the assembler.
type Kernel struct {
	Name        string
	Params      []string // parameter names, each a 4-byte constant-bank slot
	SharedBytes int      // static shared-memory allocation
	Instrs      []Instr

	labels map[string]int
}

// ParamOffset returns the constant-bank byte offset of the named parameter.
func (k *Kernel) ParamOffset(name string) (int32, bool) {
	for i, p := range k.Params {
		if p == name {
			return ParamBase + int32(4*i), true
		}
	}
	return 0, false
}

// LabelIndex returns the instruction index of a label, for tests and tools.
func (k *Kernel) LabelIndex(name string) (int, bool) {
	i, ok := k.labels[name]
	return i, ok
}

// Clone returns a deep copy of the kernel. Instrumentation and fault
// injection rewrite cloned kernels, never the module's originals. The copy
// is reflect.DeepEqual to the original (nil and empty operand slices are
// preserved as such), so clones also serve as snapshots for the
// shared-kernel immutability tests.
func (k *Kernel) Clone() *Kernel {
	nk := &Kernel{
		Name:        k.Name,
		Params:      append([]string(nil), k.Params...),
		SharedBytes: k.SharedBytes,
		Instrs:      make([]Instr, len(k.Instrs)),
		labels:      k.labels,
	}
	for i := range k.Instrs {
		in := k.Instrs[i]
		in.Dst = cloneOperands(in.Dst)
		in.Src = cloneOperands(in.Src)
		nk.Instrs[i] = in
	}
	return nk
}

// cloneOperands copies an operand slice, preserving nil-ness and emptiness.
func cloneOperands(ops []Operand) []Operand {
	if ops == nil {
		return nil
	}
	return append(make([]Operand, 0, len(ops)), ops...)
}

// Program is a compilation unit: a named collection of kernels, the analog
// of a cubin module.
type Program struct {
	Name    string
	Kernels []*Kernel
}

// Kernel finds a kernel by name.
func (p *Program) Kernel(name string) (*Kernel, bool) {
	for _, k := range p.Kernels {
		if k.Name == name {
			return k, true
		}
	}
	return nil, false
}

// Constant-bank layout. Launch dimensions occupy the low words; kernel
// parameters start at ParamBase, mirroring the CUDA ABI's c[0x0][0x160]
// convention.
const (
	ConstNtidX   = 0x00
	ConstNtidY   = 0x04
	ConstNtidZ   = 0x08
	ConstNctaidX = 0x0c
	ConstNctaidY = 0x10
	ConstNctaidZ = 0x14
	ParamBase    = 0x160
)

// builtinConstOffsets names the launch-dimension constant slots for the
// assembler, e.g. "c0[NTID_X]".
var builtinConstOffsets = map[string]int32{
	"NTID_X":   ConstNtidX,
	"NTID_Y":   ConstNtidY,
	"NTID_Z":   ConstNtidZ,
	"NCTAID_X": ConstNctaidX,
	"NCTAID_Y": ConstNctaidY,
	"NCTAID_Z": ConstNctaidZ,
}

func f32bits(f float32) uint32 { return math.Float32bits(f) }
