package sass

import (
	"fmt"
	"strconv"
	"strings"
)

// OperandKind discriminates the Operand union.
type OperandKind uint8

// Operand kinds. Values start at one so the zero value is recognizably
// "no operand".
const (
	OpdNone    OperandKind = iota
	OpdReg                 // general-purpose register
	OpdPred                // predicate register (possibly negated)
	OpdImm                 // 32-bit immediate
	OpdMem                 // memory reference [Rn + off]
	OpdConst               // constant-bank reference c0[off]
	OpdSpecial             // special register (S2R source)
	OpdLabel               // branch target, resolved to an instruction index
)

// Operand is one instruction operand. Kind selects which fields are
// meaningful; the struct is kept flat (rather than an interface) so that a
// decoded kernel is a contiguous, allocation-light slice of instructions.
type Operand struct {
	Kind OperandKind

	// Neg marks a negated source (e.g. "-R3"): floating-point semantics
	// flip the sign bit, integer semantics take the two's complement.
	Neg bool

	Reg    RegID      // OpdReg, OpdMem (address base)
	Pred   PredRef    // OpdPred
	Imm    uint32     // OpdImm
	Off    int32      // OpdMem, OpdConst byte offset
	Bank   uint8      // OpdConst bank (only bank 0 is populated today)
	SReg   SpecialReg // OpdSpecial
	Target int32      // OpdLabel: resolved instruction index

	// Sym holds the unresolved label or parameter name between parsing and
	// resolution; it is retained afterwards for disassembly.
	Sym string
}

// Convenience constructors, used by tests and by programs that build kernels
// without going through the assembler.

// R returns a register operand.
func R(r RegID) Operand { return Operand{Kind: OpdReg, Reg: r} }

// P returns a predicate operand.
func P(p PredID) Operand { return Operand{Kind: OpdPred, Pred: PredRef{Pred: p}} }

// NotP returns a negated predicate operand.
func NotP(p PredID) Operand { return Operand{Kind: OpdPred, Pred: PredRef{Pred: p, Neg: true}} }

// Imm returns a 32-bit immediate operand.
func Imm(v uint32) Operand { return Operand{Kind: OpdImm, Imm: v} }

// ImmF returns an immediate operand holding the bit pattern of a float32.
func ImmF(f float32) Operand { return Operand{Kind: OpdImm, Imm: f32bits(f)} }

// Mem returns a memory operand [base + off].
func Mem(base RegID, off int32) Operand { return Operand{Kind: OpdMem, Reg: base, Off: off} }

// C0 returns a bank-0 constant operand c0[off].
func C0(off int32) Operand { return Operand{Kind: OpdConst, Bank: 0, Off: off} }

// SR returns a special-register operand.
func SR(s SpecialReg) Operand { return Operand{Kind: OpdSpecial, SReg: s} }

// Label returns an unresolved label operand; the assembler resolves it.
func Label(name string) Operand { return Operand{Kind: OpdLabel, Target: -1, Sym: name} }

// IsPred reports whether the operand is a predicate register.
func (o Operand) IsPred() bool { return o.Kind == OpdPred }

// NegReg returns a negated register source operand.
func NegReg(r RegID) Operand { return Operand{Kind: OpdReg, Reg: r, Neg: true} }

// String renders the operand in assembly syntax.
func (o Operand) String() string {
	if o.Neg {
		oo := o
		oo.Neg = false
		return "-" + oo.String()
	}
	switch o.Kind {
	case OpdNone:
		return "<none>"
	case OpdReg:
		return o.Reg.String()
	case OpdPred:
		return o.Pred.String()
	case OpdImm:
		return "0x" + strconv.FormatUint(uint64(o.Imm), 16)
	case OpdMem:
		if o.Off == 0 {
			return "[" + o.Reg.String() + "]"
		}
		if o.Off < 0 {
			return fmt.Sprintf("[%s-0x%x]", o.Reg, -o.Off)
		}
		return fmt.Sprintf("[%s+0x%x]", o.Reg, o.Off)
	case OpdConst:
		if o.Sym != "" {
			return fmt.Sprintf("c%d[%s]", o.Bank, o.Sym)
		}
		return fmt.Sprintf("c%d[0x%x]", o.Bank, o.Off)
	case OpdSpecial:
		return o.SReg.String()
	case OpdLabel:
		if o.Sym != "" {
			return o.Sym
		}
		return "@" + strconv.Itoa(int(o.Target))
	default:
		return fmt.Sprintf("<bad operand kind %d>", o.Kind)
	}
}

// parseOperand parses one operand in assembly syntax. Parameter names inside
// c0[...] are resolved against params; label operands are left unresolved.
func parseOperand(s string, params map[string]int32) (Operand, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Operand{}, fmt.Errorf("sass: empty operand")
	}
	// A leading '-' on a register or constant operand marks source negation;
	// a leading '-' on a digit is a negative immediate, handled below.
	if s[0] == '-' && len(s) > 1 && (s[1] == 'R' || s[1] == 'c') {
		o, err := parseOperand(s[1:], params)
		if err != nil {
			return Operand{}, err
		}
		o.Neg = true
		return o, nil
	}
	switch {
	case s == "RZ" || (s[0] == 'R' && len(s) > 1 && isDigits(s[1:])):
		r, err := ParseReg(s)
		if err != nil {
			return Operand{}, err
		}
		return R(r), nil
	case s == "PT" || s == "!PT" || strings.HasPrefix(s, "P") && len(s) == 2 && s[1] >= '0' && s[1] <= '6',
		strings.HasPrefix(s, "!P"):
		p, err := ParsePredRef(s)
		if err != nil {
			return Operand{}, err
		}
		return Operand{Kind: OpdPred, Pred: p}, nil
	case strings.HasPrefix(s, "SR_"):
		sr, err := ParseSpecialReg(s)
		if err != nil {
			return Operand{}, err
		}
		return SR(sr), nil
	case strings.HasPrefix(s, "["):
		return parseMemOperand(s)
	case strings.HasPrefix(s, "c0[") || strings.HasPrefix(s, "c["):
		return parseConstOperand(s, params)
	case s[0] == '-' || s[0] >= '0' && s[0] <= '9':
		v, err := parseImm(s)
		if err != nil {
			return Operand{}, err
		}
		return Imm(v), nil
	default:
		// Anything else is a label reference (branch target).
		if !isIdent(s) {
			return Operand{}, fmt.Errorf("sass: cannot parse operand %q", s)
		}
		return Label(s), nil
	}
}

func parseMemOperand(s string) (Operand, error) {
	if !strings.HasSuffix(s, "]") {
		return Operand{}, fmt.Errorf("sass: unterminated memory operand %q", s)
	}
	inner := s[1 : len(s)-1]
	base := inner
	var off int64
	var err error
	if i := strings.IndexAny(inner, "+-"); i > 0 {
		base = inner[:i]
		off, err = strconv.ParseInt(strings.Replace(inner[i:], "+", "", 1), 0, 33)
		if err != nil {
			return Operand{}, fmt.Errorf("sass: bad memory offset in %q: %v", s, err)
		}
	}
	r, err := ParseReg(strings.TrimSpace(base))
	if err != nil {
		return Operand{}, fmt.Errorf("sass: bad memory base in %q: %v", s, err)
	}
	return Mem(r, int32(off)), nil
}

func parseConstOperand(s string, params map[string]int32) (Operand, error) {
	rest := strings.TrimPrefix(strings.TrimPrefix(s, "c0["), "c[")
	if !strings.HasSuffix(rest, "]") {
		return Operand{}, fmt.Errorf("sass: unterminated constant operand %q", s)
	}
	inner := strings.TrimSuffix(rest, "]")
	if off, ok := params[inner]; ok {
		o := C0(off)
		o.Sym = inner
		return o, nil
	}
	if off, ok := builtinConstOffsets[inner]; ok {
		o := C0(off)
		o.Sym = inner
		return o, nil
	}
	v, err := strconv.ParseInt(inner, 0, 33)
	if err != nil {
		return Operand{}, fmt.Errorf("sass: unknown constant symbol or offset %q", inner)
	}
	return C0(int32(v)), nil
}

// parseImm accepts decimal, hex (0x..), negative values, and float literals
// suffixed with 'f' (stored as float32 bit patterns).
func parseImm(s string) (uint32, error) {
	isHex := strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") ||
		strings.HasPrefix(s, "-0x") || strings.HasPrefix(s, "-0X")
	if !isHex && strings.HasSuffix(s, "f") && strings.ContainsAny(s, ".eE") {
		f, err := strconv.ParseFloat(strings.TrimSuffix(s, "f"), 32)
		if err != nil {
			return 0, fmt.Errorf("sass: bad float immediate %q: %v", s, err)
		}
		return f32bits(float32(f)), nil
	}
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("sass: bad immediate %q: %v", s, err)
	}
	if v < -(1<<31) || v > (1<<32)-1 {
		return 0, fmt.Errorf("sass: immediate %q out of 32-bit range", s)
	}
	return uint32(v), nil
}

func isDigits(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return len(s) > 0
}

func isIdent(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == '.' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
			i > 0 && c >= '0' && c <= '9'
		if !ok {
			return false
		}
	}
	return len(s) > 0
}
