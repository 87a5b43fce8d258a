package faultmodel

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/sass"
)

// predflipModel corrupts control state: at the selected dynamic execution of
// a predicate-writing instruction (ISETP and friends), the just-written
// predicate result is inverted for one lane — or, with "guard=1", the
// instruction's live guard predicate is inverted instead, modeling a fault
// in the predicate file feeding the issue stage rather than in the setp
// unit's output. Either way the corruption lands in the machine's
// condition/divergence state, the fault class Guerrero-Balaguera et al.
// show transient register flips never reach.
//
// The flip is a single-shot predicate inversion, not a destination-register
// bit pattern, so the destination-flip accelerations are unsound for it.
type predflipModel struct{}

func init() { register(predflipModel{}) }

func (predflipModel) Name() string { return "predflip" }

func (predflipModel) Description() string {
	return "invert one dynamic predicate result (or, with guard=1, the instruction's guard predicate)"
}

func (predflipModel) DefaultGroup() sass.Group { return sass.GroupPR }

// EligibleOp accepts predicate-writing opcodes: their sites always carry
// predicate state to corrupt, in both dest and guard mode.
func (predflipModel) EligibleOp(op sass.Op) bool { return op.Info().WritesPR() }

func (predflipModel) Caps() Caps { return 0 }

func (predflipModel) ValidateParam(param string) error {
	_, err := parsePredflipParam(param)
	return err
}

func parsePredflipParam(param string) (guard bool, err error) {
	kv, err := parseParam(param, "guard")
	if err != nil {
		return false, err
	}
	if v, ok := kv["guard"]; ok {
		switch v {
		case "0":
		case "1":
			guard = true
		default:
			return false, fmt.Errorf("faultmodel: predflip guard=%q (want 0 or 1)", v)
		}
	}
	return guard, nil
}

func (m predflipModel) NewInjector(p core.TransientParams, param string, env Env) (Injector, error) {
	guard, err := parsePredflipParam(param)
	if err != nil {
		return nil, err
	}
	in, err := env.instrAt(p)
	if err != nil {
		return nil, err
	}
	if !m.EligibleOp(in.Op) {
		return nil, fmt.Errorf("faultmodel: predflip target %v at %s@%d writes no predicate",
			in.Op, p.KernelName, p.StaticInstrIdx)
	}
	f := &predflipInjector{guard: guard}
	f.SingleSite = core.NewSingleSite(p, "predflip_injector", fmt.Sprintf("predflip:%v@%d", guard, p.StaticInstrIdx),
		opSet(in.Op), nil, f.hit)
	return f, nil
}

// predflipInjector inverts one dynamic predicate at the resolved site.
type predflipInjector struct {
	core.SingleSite
	guard bool
}

// hit inverts the target predicate of the landing lane: the guard predicate
// in guard mode, otherwise one of the instruction's predicate destinations
// (chosen by DestRegSelect when it writes several).
func (f *predflipInjector) hit(c *gpu.InstrCtx, lane int) {
	f.Rec = core.HitRecord(c)
	f.Rec.Lane = int32(lane)
	var preds []sass.PredID
	if f.guard {
		// A PT guard has no storage to corrupt; the record then reports a
		// fault with no corruptible state, like a G_NODEST transient.
		if g := c.Instr.Guard.Pred; g != sass.PT {
			preds = append(preds, g)
		}
	} else {
		for i := range c.Instr.Dst {
			if d := &c.Instr.Dst[i]; d.Kind == sass.OpdPred && d.Pred.Pred != sass.PT {
				preds = append(preds, d.Pred.Pred)
			}
		}
	}
	if len(preds) == 0 {
		f.Rec.NoDestination = true
		return
	}
	pr := preds[int(f.P.DestRegSelect*float64(len(preds)))]
	before := c.ReadPred(lane, pr)
	c.WritePred(lane, pr, !before)
	f.Rec.Target = pr.String()
	f.Rec.PredValue = !before
	if before {
		f.Rec.Before = 1
	} else {
		f.Rec.After = 1
	}
}
