package faultmodel

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sass"
)

// transientModel is the default model: the paper's single transient
// destination-register flip, the existing core.TransientInjector behind the
// Model interface. Every campaign acceleration was built for (and
// differentially proven against) these semantics, so it holds every
// capability.
type transientModel struct{}

func init() { register(transientModel{}) }

func (transientModel) Name() string { return DefaultName }

func (transientModel) Description() string {
	return "single transient bit-flip in one dynamic instruction's destination register(s)"
}

func (transientModel) DefaultGroup() sass.Group { return sass.GroupGPPR }

// EligibleOp accepts every opcode: the transient selection space is scoped
// by the instruction group alone, exactly as before the subsystem existed.
func (transientModel) EligibleOp(sass.Op) bool { return true }

func (transientModel) Caps() Caps {
	return CapCheckpoint | CapEarlyExit | CapCertainStrata
}

func (transientModel) ValidateParam(param string) error {
	if param != "" {
		return fmt.Errorf("faultmodel: transient model takes no parameter, got %q", param)
	}
	return nil
}

func (transientModel) NewInjector(p core.TransientParams, param string, _ Env) (Injector, error) {
	if err := (transientModel{}).ValidateParam(param); err != nil {
		return nil, err
	}
	inj, err := core.NewTransientInjector(p)
	if err != nil {
		return nil, err
	}
	return inj, nil
}

// The paper's two injectors are Injectors as they are: the transient flip
// reports zero Activations, the permanent fault a zero Record.
var (
	_ Injector = (*core.TransientInjector)(nil)
	_ Injector = (*core.PermanentInjector)(nil)
)
