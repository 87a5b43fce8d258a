package faultmodel

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/sass"
)

// opsubModel is ICOC-style instruction output corruption (nvbitPERfi's
// pf_injector_icoc): at the selected dynamic execution, the instruction's
// destination is overwritten with the result a *different* opcode would have
// produced over the same source operands — the observable effect of a
// decoder or issue-unit fault routing the operation to the wrong functional
// unit. The substitute opcode is drawn weighted-random from the workload's
// own opcode activity (Env.OpcodeTotals), parameterized by the tuple's
// BitPatternValue, so heavy opcodes substitute proportionally more often.
//
// The corruption is a single-shot semantic replacement, not a destination
// bit pattern, so none of the destination-flip accelerations transfer.
type opsubModel struct{}

func init() { register(opsubModel{}) }

// subEntry is one substitutable operation: its canonical opcode (for
// weighting and the ≠-target check) and its result function over up to
// three captured 32-bit source values.
type subEntry struct {
	op sass.Op
	fn func(a, b, c uint32) uint32
}

func f32(x uint32) float32 { return math.Float32frombits(x) }
func b32(x float32) uint32 { return math.Float32bits(x) }
func smin(a, b uint32) uint32 {
	if int32(a) < int32(b) {
		return a
	}
	return b
}

// subTable enumerates the substitution space: the integer and FP32 ALU
// operations the simulator's opcode set shares functional units across.
var subTable = []subEntry{
	{sass.MustOp("IADD3"), func(a, b, c uint32) uint32 { return a + b + c }},
	{sass.MustOp("IMAD"), func(a, b, c uint32) uint32 { return a*b + c }},
	{sass.MustOp("IMNMX"), func(a, b, _ uint32) uint32 { return smin(a, b) }},
	{sass.MustOp("LOP3"), func(a, b, c uint32) uint32 { return (a & b) ^ c }},
	{sass.MustOp("SHF"), func(a, b, _ uint32) uint32 { return a >> (b & 31) }},
	{sass.MustOp("MOV"), func(a, _, _ uint32) uint32 { return a }},
	{sass.MustOp("SEL"), func(_, b, _ uint32) uint32 { return b }},
	{sass.MustOp("FADD"), func(a, b, _ uint32) uint32 { return b32(f32(a) + f32(b)) }},
	{sass.MustOp("FMUL"), func(a, b, _ uint32) uint32 { return b32(f32(a) * f32(b)) }},
	{sass.MustOp("FFMA"), func(a, b, c uint32) uint32 { return b32(f32(a)*f32(b) + f32(c)) }},
	{sass.MustOp("FMNMX"), func(a, b, _ uint32) uint32 { return b32(float32(math.Min(float64(f32(a)), float64(f32(b))))) }},
}

// eligSems is the semantic-kind view of the table: any opcode sharing a
// table entry's semantics (e.g. XMAD alongside IMAD) is a valid target.
var eligSems = func() map[sass.SemKind]bool {
	s := make(map[sass.SemKind]bool, len(subTable))
	for _, e := range subTable {
		s[e.op.Info().Sem] = true
	}
	return s
}()

func (opsubModel) Name() string { return "opsub" }

func (opsubModel) Description() string {
	return "replace one dynamic instruction's output with a weighted-random different opcode's result over the same operands"
}

func (opsubModel) DefaultGroup() sass.Group { return sass.GroupGP }

// EligibleOp accepts GP-writing ALU opcodes the substitution table models.
func (opsubModel) EligibleOp(op sass.Op) bool {
	info := op.Info()
	return info.WritesGP() && eligSems[info.Sem]
}

func (opsubModel) Caps() Caps { return 0 }

func (opsubModel) ValidateParam(param string) error {
	if param != "" {
		return fmt.Errorf("faultmodel: opsub model takes no parameter, got %q", param)
	}
	return nil
}

func (m opsubModel) NewInjector(p core.TransientParams, param string, env Env) (Injector, error) {
	if err := m.ValidateParam(param); err != nil {
		return nil, err
	}
	in, err := env.instrAt(p)
	if err != nil {
		return nil, err
	}
	if !m.EligibleOp(in.Op) {
		return nil, fmt.Errorf("faultmodel: opsub cannot substitute %v at %s@%d", in.Op, p.KernelName, p.StaticInstrIdx)
	}
	sub, err := pickSub(in.Op, p, env)
	if err != nil {
		return nil, err
	}
	o := &opsubInjector{sub: sub}
	// The sources must be read before the instruction executes (the
	// destination may alias a source); the substitute result is written
	// after, replacing the native one.
	o.SingleSite = core.NewSingleSite(p, "opsub_injector", fmt.Sprintf("opsub:%v@%d", sub.op, p.StaticInstrIdx),
		opSet(in.Op), o.capture, o.hit)
	return o, nil
}

// pickSub draws the substitute for target op from the activity-weighted
// candidate set: every table entry except ones semantically identical to the
// target, weighted by the opcode's dynamic share plus one (so cold opcodes
// stay drawable), at the tuple's BitPatternValue.
func pickSub(op sass.Op, p core.TransientParams, env Env) (subEntry, error) {
	var cands []subEntry
	var weights []uint64
	var total uint64
	for _, e := range subTable {
		if e.op == op || e.op.Info().Sem == op.Info().Sem {
			continue
		}
		w := env.OpcodeTotals[e.op] + 1
		cands = append(cands, e)
		weights = append(weights, w)
		total += w
	}
	if len(cands) == 0 {
		return subEntry{}, fmt.Errorf("faultmodel: no substitute candidates for %v", op)
	}
	pick := uint64(p.BitPatternValue * float64(total))
	for i, w := range weights {
		if pick < w {
			return cands[i], nil
		}
		pick -= w
	}
	return cands[len(cands)-1], nil
}

// opsubInjector corrupts exactly one dynamic execution of the resolved site
// by overwriting its destination with the substitute operation's result.
type opsubInjector struct {
	core.SingleSite
	sub subEntry
	src [3]uint32 // the landing lane's sources, captured before the issue
}

// capture reads the source operand values of the landing lane before the
// instruction issues.
func (o *opsubInjector) capture(c *gpu.InstrCtx, lane int) {
	o.src = [3]uint32{}
	j := 0
	for si := range c.Instr.Src {
		if j >= len(o.src) {
			break
		}
		switch s := &c.Instr.Src[si]; s.Kind {
		case sass.OpdReg:
			o.src[j] = c.ReadReg(lane, s.Reg)
			j++
		case sass.OpdImm:
			o.src[j] = s.Imm
			j++
		}
	}
}

// hit replaces the landing lane's destination with the substitute result.
func (o *opsubInjector) hit(c *gpu.InstrCtx, lane int) {
	o.Rec = core.HitRecord(c)
	o.Rec.Lane = int32(lane)
	var dst sass.RegID
	found := false
	for i := range c.Instr.Dst {
		if d := &c.Instr.Dst[i]; d.Kind == sass.OpdReg && d.Reg != sass.RZ {
			dst, found = d.Reg, true
			break
		}
	}
	if !found {
		o.Rec.NoDestination = true
		return
	}
	before := c.ReadReg(lane, dst)
	after := o.sub.fn(o.src[0], o.src[1], o.src[2])
	c.WriteReg(lane, dst, after)
	o.Rec.Target = dst.String()
	o.Rec.Before = before
	o.Rec.After = after
	o.Rec.Mask = before ^ after
}
