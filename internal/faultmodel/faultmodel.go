// Package faultmodel is the pluggable fault-model subsystem: it defines the
// Model interface the campaign layer drives — selection-space enumeration
// via per-site opcode eligibility, an injector factory, and a soundness
// capability bitmask — plus the registry of concrete models. The transient
// destination-register flip (the paper's core model) is the default; the
// other models implement the fault classes related work reaches beyond it:
// permanent stuck-at faults with activation gates (pf_injector), ICOC-style
// opcode substitution (nvbitPERfi), predicate/condition-state corruption
// (Guerrero-Balaguera et al.'s control-unit faults), and stuck bits in
// device memory.
//
// Soundness is explicit: campaign accelerations that reason statically about
// single-shot destination-register semantics — checkpoint restore and early
// exit, certain-stratum adaptive pooling — are only valid for the transient
// model, and each model
// declares which of them it supports through Caps. The campaign layer
// refuses unsupported combinations rather than silently miscounting.
package faultmodel

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/nvbit"
	"repro/internal/sass"
)

// Caps is the soundness capability bitmask: which campaign accelerations a
// model's semantics keep correct.
type Caps uint8

const (
	// CapCheckpoint marks a model whose faults fire at a single dynamic
	// point after a fault-free prefix, so restoring from a golden-trajectory
	// snapshot before the injection point is sound.
	CapCheckpoint Caps = 1 << iota
	// CapEarlyExit marks a model for which digest re-convergence with the
	// golden trajectory settles the run's tail (requires CapCheckpoint).
	CapEarlyExit
	// CapCertainStrata marks a model for which provably-masked equivalence
	// classes are zero-variance strata in the adaptive estimator.
	CapCertainStrata
)

// Has reports whether every capability in want is present.
func (c Caps) Has(want Caps) bool { return c&want == want }

// Env is the campaign context a model builds injectors against: the device
// shape and the static/dynamic views of the workload the site selection ran
// over. It is derived once per campaign (see campaign.ModelEnv) and shared
// by every experiment.
type Env struct {
	// Family is the simulated architecture family.
	Family sass.Family
	// NumSMs is the device's SM count.
	NumSMs int
	// Kernels maps kernel name to decoded kernel for every module the golden
	// run loaded — the static instruction view behind site-resolved params.
	Kernels map[string]*sass.Kernel
	// OpcodeTotals is the profile's dynamic instruction count per opcode,
	// the weighting the opcode-substitution model draws substitutes from.
	OpcodeTotals map[sass.Op]uint64
}

// instrAt validates a site-resolved parameter tuple — its ranges, as the
// transient model's injector does, and its site against the kernel view — and
// resolves it to its static instruction.
func (e Env) instrAt(p core.TransientParams) (*sass.Instr, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if !p.SiteResolved {
		return nil, fmt.Errorf("faultmodel: params are not site-resolved (model selection requires site data)")
	}
	k := e.Kernels[p.KernelName]
	if k == nil {
		return nil, fmt.Errorf("faultmodel: kernel %q not in the golden module view", p.KernelName)
	}
	if p.StaticInstrIdx < 0 || p.StaticInstrIdx >= len(k.Instrs) {
		return nil, fmt.Errorf("faultmodel: static instruction index %d outside kernel %q (%d instructions)",
			p.StaticInstrIdx, p.KernelName, len(k.Instrs))
	}
	return &k.Instrs[p.StaticInstrIdx], nil
}

// Injector is one experiment's fault tool: an nvbit.Tool plus the outcome
// accessors the campaign records. Injectors are single-use — one experiment,
// one context.
type Injector interface {
	nvbit.Tool
	// Record reports what the injection did, in the transient record shape
	// every model maps its outcome onto.
	Record() core.InjectionRecord
	// Activations counts fault-site exercises for models with repeated
	// activation semantics (permanent, memory); single-shot models return 0.
	Activations() uint64
}

// Model is one fault model: it scopes the selection space (DefaultGroup,
// EligibleOp), declares which campaign accelerations its semantics keep
// sound (Caps), validates its parameter string, and builds per-experiment
// injectors.
type Model interface {
	// Name is the registry key (`-model` value).
	Name() string
	// Description is a one-line summary for listings.
	Description() string
	// DefaultGroup is the instruction group a campaign samples from when the
	// config names none.
	DefaultGroup() sass.Group
	// EligibleOp reports whether the model can inject at sites of this
	// opcode. Selection filters the site population with it, so every
	// selected tuple is injectable.
	EligibleOp(op sass.Op) bool
	// Caps is the soundness capability bitmask.
	Caps() Caps
	// ValidateParam checks a `-model-param` string ("" is always valid).
	ValidateParam(param string) error
	// NewInjector builds the single-use injector for one parameter tuple.
	NewInjector(p core.TransientParams, param string, env Env) (Injector, error)
}

// DefaultName names the default model: the paper's transient destination-
// register flip. A config with an empty model name means this model, and
// encodes byte-identically to builds that predate the subsystem.
const DefaultName = "transient"

// registry holds the concrete models by name.
var registry = map[string]Model{}

func register(m Model) {
	if _, dup := registry[m.Name()]; dup {
		panic("faultmodel: duplicate model " + m.Name())
	}
	registry[m.Name()] = m
}

// Lookup resolves a model name. The empty string resolves to the default
// transient model.
func Lookup(name string) (Model, error) {
	if name == "" {
		name = DefaultName
	}
	m, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("faultmodel: unknown model %q (have %v)", name, Names())
	}
	return m, nil
}

// Names lists the registered models in sorted order.
func Names() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// opSet is the opcode set of one opcode: a single-site model arms its one
// resolved instruction with it.
func opSet(op sass.Op) sass.OpSet {
	var s sass.OpSet
	s.Add(op)
	return s
}

// splitmix64 is the shared parameter-derivation mixer: models that need
// discrete fault coordinates (SM, lane, bit) beyond the transient tuple's
// two unit floats derive them as pure functions of the tuple through it, so
// a parameter set maps to one fault wherever it runs.
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// paramHash folds a tuple's discrete identity into one 64-bit stream seed.
func paramHash(p core.TransientParams) uint64 {
	h := uint64(0xcbf29ce484222325)
	mix := func(v uint64) {
		h = splitmix64(h ^ v)
	}
	for _, b := range []byte(p.KernelName) {
		h = (h ^ uint64(b)) * 0x100000001b3
	}
	mix(uint64(p.KernelCount))
	mix(p.InstrCount)
	mix(uint64(int64(p.StaticInstrIdx)))
	return h
}
