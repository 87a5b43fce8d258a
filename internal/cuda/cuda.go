// Package cuda is a miniature CUDA-driver-API analog over the gpu
// simulator: contexts, modules (loaded from assembly "source" or from
// machine-code binaries with no source), functions, synchronous kernel
// launches with CUDA-style sticky error semantics, device memory
// management, and the driver-callback subscription interface that the NVBit
// layer attaches to.
//
// Error semantics mirror the behaviour the paper relies on for its
// "potential DUE" outcome class: a kernel trap terminates that kernel early
// and poisons the context with a sticky error, but is not fatal to the host
// program — host code only observes it if it checks (Synchronize /
// LastError), exactly like an unchecked non-fatal CUDA error.
package cuda

import (
	"context"
	"fmt"

	"repro/internal/gpu"
	"repro/internal/modcache"
	"repro/internal/sass"
	"repro/internal/sass/encoding"
	"repro/internal/sassan"
)

// Error is a CUDA-style error code.
type Error uint8

// Error codes. Success is the zero value.
const (
	Success Error = iota
	ErrIllegalAddress
	ErrMisalignedAddress
	ErrLaunchTimeout
	ErrIllegalInstruction
	ErrHardwareStackError
	ErrAssert
	ErrInvalidValue
	ErrContextIsDestroyed
	ErrNotFound
	ErrNoBinaryForGPU
)

var errorNames = [...]string{
	Success:               "CUDA_SUCCESS",
	ErrIllegalAddress:     "CUDA_ERROR_ILLEGAL_ADDRESS",
	ErrMisalignedAddress:  "CUDA_ERROR_MISALIGNED_ADDRESS",
	ErrLaunchTimeout:      "CUDA_ERROR_LAUNCH_TIMEOUT",
	ErrIllegalInstruction: "CUDA_ERROR_ILLEGAL_INSTRUCTION",
	ErrHardwareStackError: "CUDA_ERROR_HARDWARE_STACK_ERROR",
	ErrAssert:             "CUDA_ERROR_ASSERT",
	ErrInvalidValue:       "CUDA_ERROR_INVALID_VALUE",
	ErrContextIsDestroyed: "CUDA_ERROR_CONTEXT_IS_DESTROYED",
	ErrNotFound:           "CUDA_ERROR_NOT_FOUND",
	ErrNoBinaryForGPU:     "CUDA_ERROR_NO_BINARY_FOR_GPU",
}

// Error implements error.
func (e Error) Error() string {
	if int(e) < len(errorNames) {
		return errorNames[e]
	}
	return fmt.Sprintf("CUDA_ERROR(%d)", uint8(e))
}

// trapToError maps a device trap to its CUDA error code.
func trapToError(t *gpu.Trap) Error {
	switch t.Kind {
	case gpu.TrapIllegalAddress, gpu.TrapSharedBounds, gpu.TrapLocalBounds:
		return ErrIllegalAddress
	case gpu.TrapMisaligned:
		return ErrMisalignedAddress
	case gpu.TrapInstrLimit:
		return ErrLaunchTimeout
	case gpu.TrapInvalidInstruction, gpu.TrapBadPC:
		return ErrIllegalInstruction
	case gpu.TrapCallStack:
		return ErrHardwareStackError
	case gpu.TrapBreakpoint:
		return ErrAssert
	default:
		return ErrIllegalInstruction
	}
}

// DevPtr is a device memory address.
type DevPtr = uint32

// Context is the analog of a CUDA context: one device, its modules, and the
// sticky error state. A Context is not safe for concurrent use, and Launch is
// not reentrant (a subscriber must not launch from inside a callback); fault
// injection campaigns use one context per experiment.
type Context struct {
	dev     *gpu.Device
	codec   *encoding.Codec
	modules []*Module

	sticky     Error // first device fault; poisons the context
	stickyTrap *gpu.Trap

	subscribers   []Subscriber
	nextSubID     int
	subIDs        []int
	defaultBudget uint64

	verifyMode  VerifyMode
	verifyDiags []sassan.Diagnostic

	total gpu.LaunchStats // cumulative execution counts across launches

	// Launch's per-call scratch. Launches are synchronous, so one event, one
	// device launch descriptor and one parameter buffer serve them all: each
	// is rewritten whole at the start of a launch and dead once it returns.
	ev     LaunchEvent
	launch gpu.Launch
	params []uint32

	// j is the checkpoint engine's journal when the context records or
	// replays (see trace.go), nil on an ordinary context.
	j *journal
}

// VerifyMode controls static verification of modules at load time.
type VerifyMode uint8

// Verification modes. VerifyOff (the zero value) skips analysis entirely;
// VerifyWarn runs the verifier and accumulates its diagnostics without
// changing load behaviour; VerifyEnforce additionally rejects modules whose
// verification produced errors, before they become loadable or visible to
// subscribers.
const (
	VerifyOff VerifyMode = iota
	VerifyWarn
	VerifyEnforce
)

// SetVerifyMode selects the load-time verification mode. It applies to
// modules loaded after the call.
func (c *Context) SetVerifyMode(m VerifyMode) { c.verifyMode = m }

// SetCancel arms prompt launch cancellation: once ctx is done, any running
// or future launch on this context's device traps with gpu.TrapCancelled
// within a bounded number of interpreted instructions, instead of draining
// its instruction budget. Campaign experiment loops use this so that
// coordinator-initiated cancellation and worker shutdown abandon in-flight
// experiments promptly. Call before launching kernels.
func (c *Context) SetCancel(ctx context.Context) { c.dev.SetCancel(ctx) }

// VerifyDiagnostics returns every diagnostic accumulated by load-time
// verification, in load order.
func (c *Context) VerifyDiagnostics() []sassan.Diagnostic {
	return append([]sassan.Diagnostic(nil), c.verifyDiags...)
}

// AccumulatedStats returns cumulative execution counts across every launch
// on this context — the basis for hang budgets and overhead accounting.
func (c *Context) AccumulatedStats() gpu.LaunchStats { return c.total }

// NewContext creates a context on dev (the cuInit + cuCtxCreate analog).
// The per-family codec comes from the shared module cache: it is immutable
// and safe to share across contexts, so a campaign's N contexts build it
// once.
func NewContext(dev *gpu.Device) (*Context, error) {
	codec, err := modcache.Shared.Codec(dev.Family)
	if err != nil {
		return nil, err
	}
	return &Context{dev: dev, codec: codec}, nil
}

// Device returns the underlying device.
func (c *Context) Device() *gpu.Device { return c.dev }

// SetDefaultBudget sets the per-launch instruction budget applied when a
// launch does not carry its own — the campaign layer's hang watchdog.
func (c *Context) SetDefaultBudget(b uint64) { c.defaultBudget = b }

// LastError returns the sticky error, Success if none. Like CUDA sticky
// errors, it cannot be cleared; the context must be discarded.
func (c *Context) LastError() Error { return c.sticky }

// StickyTrap returns the device trap behind the sticky error, if any.
func (c *Context) StickyTrap() *gpu.Trap { return c.stickyTrap }

// Synchronize is the cuCtxSynchronize analog: execution is synchronous, so
// it only reports the sticky error.
func (c *Context) Synchronize() error {
	if c.sticky != Success {
		return c.sticky
	}
	return nil
}

// DeviceLog returns the device's accumulated log (the dmesg analog).
func (c *Context) DeviceLog() []gpu.LogEvent { return c.dev.LogEvents() }

// poison records the first device fault.
func (c *Context) poison(t *gpu.Trap) {
	if c.sticky == Success {
		c.sticky = trapToError(t)
		c.stickyTrap = t
	}
}

// Malloc allocates device memory.
func (c *Context) Malloc(size int) (DevPtr, error) {
	call := traceCall{kind: callMalloc, size: size}
	if served, err := c.j.serve(&call); served {
		return call.ptr, err
	}
	err := c.Synchronize()
	if err == nil {
		if call.ptr, err = c.dev.Mem.Alloc(size); err != nil {
			err = fmt.Errorf("cuMemAlloc: %w", err)
		}
	}
	c.j.note(&call, err)
	return call.ptr, err
}

// Free releases device memory. Like cuMemFree it works on a poisoned
// context.
func (c *Context) Free(p DevPtr) error {
	call := traceCall{kind: callFree, ptr: p}
	if served, err := c.j.serve(&call); served {
		return err
	}
	err := c.dev.Mem.Free(p)
	if err != nil {
		err = fmt.Errorf("cuMemFree: %w", err)
	}
	c.j.note(&call, err)
	return err
}

// MemcpyHtoD copies host bytes to device memory. A replay compares the
// call's shape with the recording, not the bytes: the snapshot already holds
// their effect.
func (c *Context) MemcpyHtoD(dst DevPtr, src []byte) error {
	call := traceCall{kind: callHtoD, ptr: dst, size: len(src)}
	if served, err := c.j.serve(&call); served {
		return err
	}
	err := c.Synchronize()
	if err == nil {
		err = c.dev.Mem.WriteBytes(dst, src)
	}
	c.j.note(&call, err)
	return err
}

// MemcpyDtoH copies n device bytes to a new host slice. On a poisoned
// context it fails like CUDA does; callers that ignore the error see their
// stale host buffer, the classic unchecked-error SDC path. A live replay
// compares the bytes with the recording: a host that read corrupted data no
// longer matches it.
func (c *Context) MemcpyDtoH(src DevPtr, n int) ([]byte, error) {
	call := traceCall{kind: callDtoH, ptr: src, size: n}
	if served, err := c.j.serve(&call); served {
		return call.data, err
	}
	err := c.Synchronize()
	if err == nil {
		call.data, err = c.dev.Mem.ReadBytes(src, n)
	}
	c.j.note(&call, err)
	return call.data, err
}

// Module is a loaded code module (cubin analog).
type Module struct {
	ctx       *Context
	name      string
	binary    []byte
	source    string
	prog      *sass.Program
	hasSource bool
	table     *funcTable
	funcs     []Function // indexed like prog.Kernels
}

// funcTable is the part of a module's function handles that depends on the
// program alone, built once per shared program (modcache.Derive) instead of
// once per context: the name index, and every kernel's uninstrumented
// executable form, shared read-only.
type funcTable struct {
	index map[string]int
	execs []gpu.ExecKernel
}

type funcTableSlot struct{}

func buildFuncTable(prog *sass.Program) *funcTable {
	t := &funcTable{
		index: make(map[string]int, len(prog.Kernels)),
		execs: make([]gpu.ExecKernel, len(prog.Kernels)),
	}
	for i, k := range prog.Kernels {
		t.index[k.Name] = i
		t.execs[i].K = k
	}
	return t
}

// funcTableFor returns prog's function table: the shared one when prog is a
// module-cache program, a private one otherwise.
func funcTableFor(prog *sass.Program) *funcTable {
	v, _ := modcache.Shared.Derive(prog, funcTableSlot{}, func() any { return buildFuncTable(prog) })
	return v.(*funcTable)
}

// Source returns the assembly source the module was compiled from, or ""
// for binary-only modules. Compile-time instrumentation tools (the
// SASSIFI-style baseline) need this; NVBit-style tools do not.
func (m *Module) Source() string { return m.source }

// Name returns the module name.
func (m *Module) Name() string { return m.name }

// HasSource reports whether the module was built from assembly source in
// this process. Dynamically loaded binary-only modules report false; tools
// that require recompilation (the SASSIFI-style baseline) cannot target
// them.
func (m *Module) HasSource() bool { return m.hasSource }

// Binary returns the module's machine code, as an instrumentation framework
// would read it from the driver.
func (m *Module) Binary() []byte { return m.binary }

// Family returns the architecture family the binary is compiled for.
func (m *Module) Family() sass.Family { return m.ctx.dev.Family }

// LoadModule compiles assembly source and loads it — the analog of
// compiling a .cu file and cuModuleLoad'ing the result. Compilation is
// memoized in the shared module cache: repeat loads of the same source
// (the common case across a campaign's per-experiment contexts) reuse one
// assembled program and one encoded binary. The decoded kernels are shared
// read-only state; instrumentation always rewrites Clone()d copies.
func (c *Context) LoadModule(name, asmSource string) (*Module, error) {
	prog, bin, _, err := modcache.Shared.Assemble(c.dev.Family, name, asmSource)
	if err != nil {
		return nil, fmt.Errorf("cuModuleLoad %q: %w", name, err)
	}
	return c.registerModule(name, asmSource, bin, prog, true)
}

// LoadModuleBinary loads prebuilt machine code with no source — the analog
// of a closed-source dynamic library shipping only cubins. The binary must
// target this context's architecture family.
func (c *Context) LoadModuleBinary(data []byte) (*Module, error) {
	fam, err := encoding.DetectFamily(data)
	if err != nil {
		return nil, fmt.Errorf("cuModuleLoadData: %w", err)
	}
	if fam != c.dev.Family {
		return nil, fmt.Errorf("cuModuleLoadData: %w: binary targets %v, device is %v",
			ErrNoBinaryForGPU, fam, c.dev.Family)
	}
	prog, _, err := modcache.Shared.Decode(fam, data)
	if err != nil {
		return nil, fmt.Errorf("cuModuleLoadData: %w", err)
	}
	return c.registerModule(prog.Name, "", append([]byte(nil), data...), prog, false)
}

func (c *Context) registerModule(name, source string, bin []byte, prog *sass.Program, hasSource bool) (*Module, error) {
	if c.verifyMode != VerifyOff {
		diags := sassan.VerifyProgram(prog)
		c.verifyDiags = append(c.verifyDiags, diags...)
		if c.verifyMode == VerifyEnforce && sassan.HasErrors(diags) {
			for _, d := range diags {
				if d.Sev == sassan.SevError {
					return nil, fmt.Errorf("cuModuleLoad %q: %w: verification failed: %s",
						name, ErrInvalidValue, d)
				}
			}
		}
	}
	m := &Module{
		ctx:       c,
		name:      name,
		binary:    bin,
		source:    source,
		prog:      prog,
		hasSource: hasSource,
		table:     funcTableFor(prog),
		funcs:     make([]Function, len(prog.Kernels)),
	}
	for i, k := range prog.Kernels {
		m.funcs[i] = Function{mod: m, k: k, index: i, exec: &m.table.execs[i]}
	}
	c.modules = append(c.modules, m)
	for _, s := range c.subscribers {
		s.OnModuleLoad(m)
	}
	return m, nil
}

// Modules returns the loaded modules in load order.
func (c *Context) Modules() []*Module { return c.modules }

// Kernels returns the module's decoded kernels in program order. With the
// shared module cache these are read-only state, potentially aliased by
// every context that loaded the same code; the immutability tests in
// internal/campaign snapshot them through this accessor.
func (m *Module) Kernels() []*sass.Kernel {
	return append([]*sass.Kernel(nil), m.prog.Kernels...)
}

// NumFunctions returns how many kernels the module holds: Function.Index
// runs from 0 to NumFunctions()-1.
func (m *Module) NumFunctions() int { return len(m.funcs) }

// Function looks up a kernel in the module (cuModuleGetFunction).
func (m *Module) Function(name string) (*Function, error) {
	i, ok := m.table.index[name]
	if !ok {
		return nil, fmt.Errorf("cuModuleGetFunction %q in %q: %w", name, m.name, ErrNotFound)
	}
	return &m.funcs[i], nil
}

// Function is a launchable kernel handle.
type Function struct {
	mod   *Module
	k     *sass.Kernel
	index int
	// exec is the kernel as launched when no subscriber instruments it. It
	// may be shared with every context that loaded the same program.
	exec *gpu.ExecKernel
}

// Name returns the kernel name.
func (f *Function) Name() string { return f.k.Name }

// Index returns the function's position in its module, so that a subscriber
// can keep per-kernel state in a slice instead of looking kernels up by name.
func (f *Function) Index() int { return f.index }

// Module returns the function's module.
func (f *Function) Module() *Module { return f.mod }

// Kernel exposes the decoded kernel, as an instrumentation framework sees
// it after decoding the module binary.
func (f *Function) Kernel() *sass.Kernel { return f.k }

// LaunchConfig is the grid/block shape and resources of a launch.
type LaunchConfig struct {
	Grid, Block gpu.Dim3
	SharedBytes int
	Budget      uint64 // 0 = context default
}

// LaunchEvent is passed to driver-callback subscribers around each kernel
// launch. During OnLaunchBegin the Exec field holds the kernel about to
// run; a subscriber may replace it with an instrumented version (the NVBit
// mechanism). During OnLaunchEnd, Stats and Trap describe the completed
// execution.
//
// The event, and the Params slice it carries, are the context's scratch,
// rewritten by the next launch: a subscriber may use them only until the
// callback they were passed to returns, and copies out what it keeps
// (Function, Exec and Trap point at longer-lived objects and may be kept).
type LaunchEvent struct {
	Ctx      *Context
	Function *Function
	Config   LaunchConfig
	Params   []uint32

	// Exec is the kernel that will run; subscribers may replace it during
	// OnLaunchBegin. They must not modify the kernel it points at: the
	// uninstrumented one is shared across contexts.
	Exec *gpu.ExecKernel

	// Stats and Trap are set for OnLaunchEnd.
	Stats gpu.LaunchStats
	Trap  *gpu.Trap

	// Skipped is true in OnLaunchEnd when the launch never ran because the
	// context was already poisoned.
	Skipped bool
}

// Subscriber is the driver callback interface (cuptiSubscribe analog) that
// instrumentation tools implement. Every *LaunchEvent it receives is valid
// only for the duration of that callback (see LaunchEvent).
type Subscriber interface {
	// OnModuleLoad fires when a module is loaded.
	OnModuleLoad(m *Module)
	// OnLaunchBegin fires before a kernel launch; the subscriber may
	// replace ev.Exec to instrument this launch.
	OnLaunchBegin(ev *LaunchEvent)
	// OnLaunchEnd fires after the launch completes or traps.
	OnLaunchEnd(ev *LaunchEvent)
}

// Subscribe registers a driver-callback subscriber and returns an
// unsubscribe function. Subscribing is the in-process analog of attaching a
// tool with LD_PRELOAD.
func (c *Context) Subscribe(s Subscriber) (unsubscribe func()) {
	id := c.nextSubID
	c.nextSubID++
	c.subscribers = append(c.subscribers, s)
	c.subIDs = append(c.subIDs, id)
	return func() {
		for i, sid := range c.subIDs {
			if sid == id {
				c.subscribers = append(c.subscribers[:i], c.subscribers[i+1:]...)
				c.subIDs = append(c.subIDs[:i], c.subIDs[i+1:]...)
				return
			}
		}
	}
}

// Launch runs a kernel synchronously (cuLaunchKernel + cuCtxSynchronize).
// Launch-configuration errors are returned directly. Device faults
// terminate the kernel, poison the context, and are NOT returned: like a
// real unchecked CUDA error they surface only through Synchronize or
// LastError. On an already-poisoned context the launch is skipped and the
// sticky error returned. On a recording or replaying context the same body
// runs, consulting the context's journal (trace.go) for whether the launch
// runs at all, where it starts and where it pauses.
func (c *Context) Launch(f *Function, cfg LaunchConfig, params ...uint32) error {
	if f == nil {
		return fmt.Errorf("cuLaunchKernel: %w: nil function", ErrInvalidValue)
	}
	// The caller's params are copied, not kept, so a variadic call site's
	// argument slice can live on its stack.
	c.params = append(c.params[:0], params...)
	ev := &c.ev
	*ev = LaunchEvent{
		Ctx:      c,
		Function: f,
		Config:   cfg,
		Params:   c.params,
		Exec:     f.exec,
	}
	call := traceCall{kind: callLaunch, fn: f.k.Name, size: cfg.SharedBytes, grid: cfg.Grid, block: cfg.Block, params: c.params}
	if c.sticky != Success {
		c.j.note(&call, c.sticky)
		ev.Skipped = true
		for _, s := range c.subscribers {
			s.OnLaunchEnd(ev)
		}
		return c.sticky
	}
	if len(params) != len(f.k.Params) {
		return fmt.Errorf("cuLaunchKernel %q: %w: want %d parameter words, got %d",
			f.k.Name, ErrInvalidValue, len(f.k.Params), len(params))
	}
	// A launch the journal answers still begins and ends for the
	// subscribers, so instance counting (and injector arming) stays aligned
	// with the recording.
	served, err := c.j.serve(&call)
	if served && err != nil {
		return err
	}
	for _, s := range c.subscribers {
		s.OnLaunchBegin(ev)
	}
	if served {
		return c.finishLaunch(ev, f, call.stats, nil)
	}

	budget := cfg.Budget
	if budget == 0 {
		budget = c.defaultBudget
	}
	r, err := c.j.restore(c.dev, &call, ev.Exec, budget)
	if err != nil {
		return err
	}
	if r == nil {
		r, err = c.dev.BeginRun(c.deviceLaunch(ev.Exec, cfg, budget))
	}
	if err == nil {
		c.j.started(r, &call)
		for {
			paused, runErr := r.Resume(c.j.pauseIn(r))
			if !paused {
				err = runErr
				break
			}
			if c.j.paused(c.dev, r, &call) {
				return c.finishLaunch(ev, f, call.stats, nil)
			}
		}
		call.stats = r.Stats()
	}
	c.j.note(&call, err)
	return c.finishLaunch(ev, f, call.stats, err)
}

// deviceLaunch fills the context's launch descriptor for the launch in
// flight: the kernel the subscribers settled on, the caller's shape, the
// context's copy of the parameters.
func (c *Context) deviceLaunch(exec *gpu.ExecKernel, cfg LaunchConfig, budget uint64) *gpu.Launch {
	c.launch = gpu.Launch{
		Kernel:      exec,
		Grid:        cfg.Grid,
		Block:       cfg.Block,
		SharedBytes: cfg.SharedBytes,
		Params:      c.params,
		Budget:      budget,
	}
	return &c.launch
}
