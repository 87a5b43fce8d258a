// Package baseline implements the comparator injection tools of Table I as
// running code:
//
//   - StaticFI, a SASSIFI-style compile-time instrumenter: it needs module
//     source, re-instruments whole modules at load time, and pays its
//     instrumentation cost on every dynamic instance of every kernel.
//   - DebuggerFI, a GPU-Qin-style debugger injector: it needs no source,
//     but single-steps every instruction of every kernel while maintaining
//     debugger state, imposing the large overhead that (per the paper's
//     Section IV) trips real-time assertions in the AV application.
//
// Both inject the same Table II transient fault model as NVBitFI's
// injector, which makes the capability and overhead comparisons
// apples-to-apples.
package baseline

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/sass"
)

// StaticFI is the SASSIFI-style tool. Attach it before modules are loaded;
// each module is "recompiled" from source with injection checks on every
// instruction of the target group, in every kernel. Binary-only modules
// cannot be instrumented and are recorded as failures.
type StaticFI struct {
	P core.TransientParams

	ctx          *cuda.Context
	unsub        func()
	instrumented map[*cuda.Function]*gpu.ExecKernel
	counts       map[string]int
	failures     []string

	active  bool
	counter uint64
	rec     core.InjectionRecord
}

var _ cuda.Subscriber = (*StaticFI)(nil)

// AttachStaticFI validates the parameters and attaches the tool. Modules
// already loaded are processed immediately.
func AttachStaticFI(ctx *cuda.Context, p core.TransientParams) (*StaticFI, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s := &StaticFI{
		P:            p,
		ctx:          ctx,
		instrumented: make(map[*cuda.Function]*gpu.ExecKernel),
		counts:       make(map[string]int),
	}
	for _, m := range ctx.Modules() {
		s.OnModuleLoad(m)
	}
	s.unsub = ctx.Subscribe(s)
	return s, nil
}

// Detach removes the tool.
func (s *StaticFI) Detach() {
	if s.unsub != nil {
		s.unsub()
		s.unsub = nil
	}
}

// Failures lists modules the tool could not instrument (no source).
func (s *StaticFI) Failures() []string { return s.failures }

// Record returns the injection outcome.
func (s *StaticFI) Record() core.InjectionRecord { return s.rec }

// OnModuleLoad implements cuda.Subscriber: the "recompile with injection
// pass" step. Without source, a compile-time tool is stuck.
func (s *StaticFI) OnModuleLoad(m *cuda.Module) {
	if !m.HasSource() {
		s.failures = append(s.failures,
			fmt.Sprintf("module %q: no source available for recompilation", m.Name()))
		return
	}
	prog, err := sass.Assemble(m.Name(), m.Source())
	if err != nil {
		s.failures = append(s.failures, fmt.Sprintf("module %q: %v", m.Name(), err))
		return
	}
	for _, k := range prog.Kernels {
		f, err := m.Function(k.Name)
		if err != nil {
			continue
		}
		ek := &gpu.ExecKernel{K: k}
		ek.After = make([][]gpu.Callback, len(k.Instrs))
		for i := range k.Instrs {
			// A compile-time pass cannot know which dynamic instance will
			// be targeted, so every group instruction in every kernel
			// carries the check — the structural overhead difference from
			// NVBitFI's selective dynamic instrumentation.
			if !sass.GroupContains(s.P.Group, k.Instrs[i].Op) {
				continue
			}
			idx := i
			ek.After[i] = []gpu.Callback{func(c *gpu.InstrCtx) { s.step(c, idx) }}
		}
		s.instrumented[f] = ek
	}
}

// OnLaunchBegin implements cuda.Subscriber: every launch of an instrumented
// module runs the compile-time-instrumented kernel.
func (s *StaticFI) OnLaunchBegin(ev *cuda.LaunchEvent) {
	name := ev.Function.Name()
	launchIdx := s.counts[name]
	s.counts[name]++
	if ek, ok := s.instrumented[ev.Function]; ok {
		ev.Exec = ek
	}
	if name == s.P.KernelName && launchIdx == s.P.KernelCount {
		s.active = true
		s.counter = 0
	}
}

// OnLaunchEnd implements cuda.Subscriber.
func (s *StaticFI) OnLaunchEnd(ev *cuda.LaunchEvent) {
	if s.active && ev.Function.Name() == s.P.KernelName {
		s.active = false
	}
}

func (s *StaticFI) step(c *gpu.InstrCtx, instrIdx int) {
	if !s.active || s.rec.Activated {
		return
	}
	if lane := gpu.Land(&s.counter, s.P.InstrCount, c.ActiveMask); lane >= 0 {
		core.CorruptDest(&s.rec, c, instrIdx, lane, s.P.BitFlip, s.P.DestRegSelect, s.P.BitPatternValue)
	}
}
