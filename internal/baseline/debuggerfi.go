package baseline

import (
	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/sass"
)

// debuggerRegWindow is how many registers per lane the debugger re-reads at
// every stop; the resulting shadow state models cuda-gdb's "large amount of
// state for each dynamic kernel" that the paper blames for its overhead.
const debuggerRegWindow = 128

// debuggerStateWords is the per-stop shadow-state size in words.
const debuggerStateWords = gpu.WarpSize * debuggerRegWindow

// DebuggerFI is the GPU-Qin-style tool: it single-steps *every*
// instruction of *every* kernel through the device debug hook, maintaining
// debugger state at each step, and performs the injection with a debugger
// register write when the target dynamic instruction is reached. It needs
// no source and handles binary-only modules, but it cannot be selective:
// the debugger is attached to the whole process.
type DebuggerFI struct {
	P core.TransientParams

	ctx    *cuda.Context
	unsub  func()
	counts map[string]int
	// stepped holds each function's single-stepped kernel, built at its first
	// launch: the stop is the same for every launch, so repeat launches reuse
	// it (and the engine facts derived per ExecKernel).
	stepped map[*cuda.Function]*gpu.ExecKernel

	active  bool
	counter uint64
	rec     core.InjectionRecord
	state   []uint32 // the debugger's shadow of the warp state
	steps   uint64
}

var _ cuda.Subscriber = (*DebuggerFI)(nil)

// AttachDebuggerFI validates parameters and attaches the tool.
func AttachDebuggerFI(ctx *cuda.Context, p core.TransientParams) (*DebuggerFI, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	d := &DebuggerFI{
		P:       p,
		ctx:     ctx,
		counts:  make(map[string]int),
		stepped: make(map[*cuda.Function]*gpu.ExecKernel),
		state:   make([]uint32, debuggerStateWords),
	}
	d.unsub = ctx.Subscribe(d)
	return d, nil
}

// Detach removes the tool.
func (d *DebuggerFI) Detach() {
	if d.unsub != nil {
		d.unsub()
		d.unsub = nil
	}
}

// Record returns the injection outcome.
func (d *DebuggerFI) Record() core.InjectionRecord { return d.rec }

// Steps returns how many single-step stops the debugger made.
func (d *DebuggerFI) Steps() uint64 { return d.steps }

// OnModuleLoad implements cuda.Subscriber.
func (d *DebuggerFI) OnModuleLoad(*cuda.Module) {}

// OnLaunchBegin implements cuda.Subscriber: the debugger stops at every
// instruction of every launch — there is no way to scope breakpoints to
// one dynamic kernel instance.
func (d *DebuggerFI) OnLaunchBegin(ev *cuda.LaunchEvent) {
	name := ev.Function.Name()
	launchIdx := d.counts[name]
	d.counts[name]++
	if name == d.P.KernelName && launchIdx == d.P.KernelCount {
		d.active = true
		d.counter = 0
	}
	ek, ok := d.stepped[ev.Function]
	if !ok {
		// One shared callback list on every instruction's After site: the
		// debugger stops once each instruction completes.
		stop := []gpu.Callback{d.step}
		after := make([][]gpu.Callback, len(ev.Exec.K.Instrs))
		for i := range after {
			after[i] = stop
		}
		ek = &gpu.ExecKernel{K: ev.Exec.K, After: after}
		d.stepped[ev.Function] = ek
	}
	ev.Exec = ek
}

// OnLaunchEnd implements cuda.Subscriber.
func (d *DebuggerFI) OnLaunchEnd(ev *cuda.LaunchEvent) {
	if d.active && ev.Function.Name() == d.P.KernelName {
		d.active = false
	}
}

// step is the per-instruction debugger stop: refresh the shadow state,
// then check whether this stop is the injection point.
func (d *DebuggerFI) step(c *gpu.InstrCtx) {
	d.steps++
	// The debugger re-reads the warp's architectural state on every stop.
	idx := 0
	for lane := 0; lane < gpu.WarpSize; lane++ {
		for r := 0; r < debuggerRegWindow; r++ {
			d.state[idx] = c.ReadReg(lane, sass.RegID(r))
			idx++
		}
	}
	if !d.active || d.rec.Activated {
		return
	}
	if !sass.GroupContains(d.P.Group, c.Instr.Op) {
		return
	}
	if lane := gpu.Land(&d.counter, d.P.InstrCount, c.ActiveMask); lane >= 0 {
		core.CorruptDest(&d.rec, c, c.InstrIdx, lane, d.P.BitFlip,
			d.P.DestRegSelect, d.P.BitPatternValue)
	}
}
