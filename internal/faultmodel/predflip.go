package faultmodel

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/sass"
)

// predflipModel corrupts control state: at the selected dynamic execution of
// a predicate-writing instruction (ISETP and friends), the just-written
// predicate result is inverted for one lane. The corruption lands in the
// machine's condition/divergence state, the fault class Guerrero-Balaguera
// et al. show transient register flips never reach. The model takes no
// parameter.
//
// The flip is a single-shot predicate inversion, not a destination-register
// bit pattern, so the destination-flip accelerations are unsound for it.
type predflipModel struct{}

func init() { register(predflipModel{}) }

func (predflipModel) Name() string { return "predflip" }

func (predflipModel) Description() string {
	return "invert one dynamic predicate result"
}

func (predflipModel) DefaultGroup() sass.Group { return sass.GroupPR }

// EligibleOp accepts predicate-writing opcodes: their sites always carry
// predicate state to corrupt.
func (predflipModel) EligibleOp(op sass.Op) bool { return op.Info().WritesPR() }

func (predflipModel) Caps() Caps { return 0 }

// ValidateParam refuses every key: the model has none.
func (predflipModel) ValidateParam(param string) error {
	_, err := parseParam(param)
	return err
}

func (m predflipModel) NewInjector(p core.TransientParams, param string, env Env) (Injector, error) {
	if err := m.ValidateParam(param); err != nil {
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
	f := &predflipInjector{}
	f.SingleSite = core.NewSingleSite(p, "predflip_injector", fmt.Sprintf("predflip@%d", p.StaticInstrIdx),
		opSet(in.Op), nil, f.hit)
	return f, nil
}

// predflipInjector inverts one dynamic predicate at the resolved site.
type predflipInjector struct {
	core.SingleSite
}

// hit inverts one of the landing lane's predicate destinations (chosen by
// DestRegSelect when the instruction writes several).
func (f *predflipInjector) hit(c *gpu.InstrCtx, lane int) {
	f.Rec = core.HitRecord(c)
	f.Rec.Lane = int32(lane)
	var preds []sass.PredID
	for i := range c.Instr.Dst {
		if d := &c.Instr.Dst[i]; d.Kind == sass.OpdPred && d.Pred.Pred != sass.PT {
			preds = append(preds, d.Pred.Pred)
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
