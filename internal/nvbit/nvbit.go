// Package nvbit is the dynamic binary instrumentation framework analog:
// the layer NVBitFI is built on. It attaches to a CUDA context (the
// LD_PRELOAD analog), intercepts every dynamic kernel launch, decodes the
// module's *machine code* into the abstract instruction view — never
// touching source — and lets a tool insert instrumentation callbacks
// before or after individual instructions. Instrumented kernels are built
// once per (kernel, tool-config) and cached, so repeat launches reuse the
// JIT-compiled version; launches the tool does not target run the original,
// unmodified kernel with zero added dispatch cost.
//
// Those three properties — no source required, per-dynamic-kernel
// selectivity, and a single abstract view over all architecture families'
// encodings — are exactly the advantages the paper claims for NVBitFI over
// SASSIFI, LLFI-GPU, GPU-Qin, and Hauberk.
package nvbit

import (
	"fmt"
	"sync"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/modcache"
	"repro/internal/sass"
	"repro/internal/sass/encoding"
	"repro/internal/sassan"
)

// LaunchInfo describes one dynamic kernel launch to the tool. The attachment
// owns the one LaunchInfo of the launch in flight and rewrites it for the
// next launch: a tool may use the pointer until the callback it was passed
// to returns (OnLaunch and the matching OnLaunchDone see the same values),
// and copies out whatever it keeps longer.
type LaunchInfo struct {
	// Kernel is the decoded kernel (from machine code, not source).
	Kernel *sass.Kernel
	// Module is the name of the module the kernel lives in.
	Module string
	// LaunchIndex is the 0-based dynamic instance count of this kernel
	// name — the paper's "kernel count".
	LaunchIndex int
	// KernelID numbers the kernel among those of the modules the attachment
	// decoded, densely from 0 in decode order and fixed for the attachment's
	// lifetime, so that a tool can keep per-kernel state in a slice indexed
	// by it. A skipped launch's description carries -1.
	KernelID int
	// GlobalLaunch is the 0-based index across all kernels.
	GlobalLaunch int
	// Config is the launch shape.
	Config cuda.LaunchConfig
}

// Decision is the tool's per-launch instrumentation choice.
type Decision struct {
	// Instrument selects whether this dynamic launch runs instrumented.
	Instrument bool
	// Key names the instrumentation configuration; cached instrumented
	// kernels are reused per (module, kernel, key).
	Key string
}

// RunOriginal is the decision to run the unmodified kernel.
var RunOriginal = Decision{}

// Tool is an NVBit tool: a profiler or injector. The *LaunchInfo passed to
// OnLaunch and OnLaunchDone is valid only for the duration of that call (see
// LaunchInfo), as is the *gpu.InstrCtx passed to inserted callbacks.
type Tool interface {
	// Name identifies the tool in diagnostics.
	Name() string
	// OnLaunch is invoked before every dynamic kernel launch; the returned
	// decision selects original or instrumented execution.
	OnLaunch(info *LaunchInfo) Decision
	// Instrument is invoked once per (kernel, decision key) cache miss to
	// build the instrumentation. The callbacks it inserts run on every
	// dynamic execution of the chosen instructions.
	Instrument(k *sass.Kernel, key string, ins *Inserter)
	// OnLaunchDone is invoked after the launch finishes, with execution
	// statistics and the device trap if one occurred. skipped means the
	// launch never ran because the context was already poisoned.
	OnLaunchDone(info *LaunchInfo, stats gpu.LaunchStats, trap *gpu.Trap, skipped bool)
}

// Inserter collects instrumentation insertions for one kernel build. It is the
// attachment's scratch, valid only during the Instrument call it is passed to.
type Inserter struct {
	k       *sass.Kernel
	before  [][]gpu.Callback
	after   [][]gpu.Callback
	step    gpu.Callback
	tally   []gpu.SiteTally
	corrupt *gpu.Corruption
	csites  *gpu.CorruptionSites
	shot    *gpu.Shot
	ssites  *gpu.CorruptionSites
}

// InsertBefore attaches a callback that runs before instruction idx on
// every dynamic execution.
func (ins *Inserter) InsertBefore(idx int, cb gpu.Callback) {
	if ins.before == nil {
		ins.before = ins.siteTable()
	}
	ins.before[idx] = append(ins.before[idx], cb)
}

// InsertAfter attaches a callback that runs after instruction idx, with
// destination registers already written — the injection point for
// destination-register fault models.
func (ins *Inserter) InsertAfter(idx int, cb gpu.Callback) {
	if ins.after == nil {
		ins.after = ins.siteTable()
	}
	ins.after[idx] = append(ins.after[idx], cb)
}

// siteTable returns an empty per-instruction callback table whose entries
// each have room for one callback in a shared backing array: tools insert one
// callback at most sites, so a build allocates twice per table instead of
// once per site.
func (ins *Inserter) siteTable() [][]gpu.Callback {
	n := len(ins.k.Instrs)
	table, slab := make([][]gpu.Callback, n), make([]gpu.Callback, n)
	for i := range table {
		table[i] = slab[i : i : i+1]
	}
	return table
}

// TallyLanes makes the engine count, after every instruction of the kernel
// that completes, the instruction's active lanes (and the issue itself) into
// tally[idx] — what an InsertAfter callback adding c.LaneCount() on every
// instruction would do, with the same trampoline charge, but executed in line
// by the warp loop instead of through a call per dynamic instruction. tally
// must have one entry per instruction and stays the tool's: the engine only
// adds to it while a launch of this build runs, so the tool clears it in
// OnLaunch and reads it in OnLaunchDone.
func (ins *Inserter) TallyLanes(tally []gpu.SiteTally) {
	if len(tally) != len(ins.k.Instrs) {
		panic(fmt.Sprintf("nvbit: TallyLanes: %d entries for the %d instructions of %q",
			len(tally), len(ins.k.Instrs), ins.k.Name))
	}
	ins.tally = tally
}

// Corrupt makes the engine apply spec in line (gpu.Corruption): every
// instruction whose functional category has its bit (1 << sass.Category) set
// in cats carries an After site — the trampoline charge an InsertAfter
// callback on it would cost — and the instructions of spec.Ops among them are
// where the fault lands, on blocks of spec.SM only, with no callback
// dispatched anywhere. The spec stays the tool's: the engine updates its
// counters. The site facts are derived once per kernel, category mask and
// opcode set, and shared by every build, attachment and goroutine.
func (ins *Inserter) Corrupt(spec *gpu.Corruption, cats uint32) {
	ins.corrupt, ins.csites = spec, corruptionSites(ins.k, sitesKey{cats: cats, ops: spec.Ops})
}

// Shot makes the engine count down to spec's target in line (gpu.Shot): its
// armed sites are the instructions of opcode set ops — only instruction pc,
// when pc >= 0 — each charged an After site, and a Before site too when the
// spec has a Pre hook, with no callback dispatched anywhere. The spec stays
// the tool's: the engine advances its count and marks it fired. The site
// facts are shared like a Corruption's.
func (ins *Inserter) Shot(spec *gpu.Shot, ops *sass.OpSet, pc int) {
	ins.shot, ins.ssites = spec, corruptionSites(ins.k, sitesKey{ops: *ops, shot: true, pc: pc, pre: spec.Pre != nil})
}

// corruptionSitesSlot names the per-kernel memo of in-line fault site facts in
// modcache.Derive.
type corruptionSitesSlot struct{}

// sitesKey is what a kernel's in-line fault site facts depend on besides the
// kernel: for a Corruption the charged categories and the whole opcode set,
// for a Shot the opcode set, the one armed pc (or -1) and whether it has a
// Pre hook.
type sitesKey struct {
	cats uint32
	ops  sass.OpSet
	shot bool
	pc   int
	pre  bool
}

// corruptionSitesMemo holds one kernel's in-line fault site facts by key. The
// concurrent experiments of a campaign share it.
type corruptionSitesMemo struct {
	mu sync.Mutex
	m  map[sitesKey]*gpu.CorruptionSites
}

// corruptionSites returns the in-line fault site facts of k for key, deriving
// them on first use. The memo hangs off a kernel the module cache shares, so a
// campaign's experiments — each a fresh context decoding the same binary —
// derive each fact once; a kernel the cache does not share gets a fresh
// derivation per call.
func corruptionSites(k *sass.Kernel, key sitesKey) *gpu.CorruptionSites {
	v, _ := modcache.Shared.Derive(k, corruptionSitesSlot{}, func() any { return new(corruptionSitesMemo) })
	memo := v.(*corruptionSitesMemo)
	memo.mu.Lock()
	defer memo.mu.Unlock()
	s := memo.m[key]
	if s == nil {
		if key.shot {
			s = gpu.NewShotSites(k, &key.ops, key.pc, key.pre)
		} else {
			s = gpu.NewCorruptionSites(k, key.cats, &key.ops)
		}
		if memo.m == nil {
			memo.m = make(map[sitesKey]*gpu.CorruptionSites)
		}
		memo.m[key] = s
	}
	return s
}

// SetStep installs a single-step hook that runs after every instruction,
// the mechanism a debugger-based tool (GPU-Qin analog) uses.
func (ins *Inserter) SetStep(cb gpu.Callback) { ins.step = cb }

// Instrs returns the kernel's instructions for inspection.
func (ins *Inserter) Instrs() []sass.Instr { return ins.k.Instrs }

// Attachment is an attached tool; Detach removes it.
type Attachment struct {
	ctx    *cuda.Context
	tool   Tool
	unsub  func()
	codec  *encoding.Codec
	views  []moduleView // decoded view per module, in decode order
	builds []jitBuild   // every kernel's instrumented builds, chained per kernel
	global int

	// info describes the launch in flight and inFlight names its function
	// (nil between launches). Launches are synchronous, so there is at most
	// one — and at most one JIT build, which ins collects.
	info     LaunchInfo
	inFlight *cuda.Function
	ins      Inserter

	// Stats for overhead accounting.
	totalLaunches        int
	instrumentedLaunches int
	jitBuilds            int
	moduleDecodeHits     int
	moduleDecodeBuilds   int

	// Static verification of decoded modules (WithVerify).
	verify      bool
	verifyDiags []sassan.Diagnostic
}

// Option configures an attachment.
type Option func(*Attachment)

// WithVerify makes the attachment run the sassan static verifier over every
// module it decodes — the decoded machine-code view, not source, so it
// covers binary-only modules the assembler never checked. A module whose
// verification produces errors fails the attach (or, for modules loaded
// while attached, fails the load by panicking like a decode failure);
// warnings are accumulated and readable via VerifyDiagnostics.
func WithVerify() Option {
	return func(a *Attachment) { a.verify = true }
}

// moduleView is a decoded module: one slot per function of the module,
// indexed like them (cuda.Function.Index), numbered in LaunchInfo.KernelID
// from base.
type moduleView struct {
	mod   *cuda.Module
	base  int
	slots []kernelSlot
}

// kernelSlot is the attachment's state for one kernel, made when its module
// is decoded so that a launch reaches it by index rather than by name: the
// decoded kernel, the launch count of its name, and its instrumented builds.
type kernelSlot struct {
	k *sass.Kernel // nil when the decode has no kernel of the function's name

	// launches counts the dynamic launches of the kernel's name
	// (LaunchInfo.LaunchIndex): &count, or the count of the kernel of the
	// same name in an earlier module.
	launches *int
	count    int

	// builds is 1 + the index in Attachment.builds of the kernel's latest
	// build, 0 before the first.
	builds int
}

// jitBuild is the instrumented kernel the tool built for one decision key,
// and 1 + the index of the same kernel's previous build (0: none). The
// builds of all kernels share one slice, so a build costs no allocation of
// its own beyond the ExecKernel.
type jitBuild struct {
	key  string
	ek   *gpu.ExecKernel
	prev int
}

// slot returns the slot of a function and its KernelID, if its module was
// decoded by this attachment and holds the kernel.
func (a *Attachment) slot(f *cuda.Function) (*kernelSlot, int) {
	for i := range a.views {
		if v := &a.views[i]; v.mod == f.Module() {
			if s := &v.slots[f.Index()]; s.k != nil {
				return s, v.base + f.Index()
			}
			return nil, 0
		}
	}
	return nil, 0
}

// build returns the slot's instrumented kernel for key, nil before the tool
// has built one.
func (a *Attachment) build(s *kernelSlot, key string) *gpu.ExecKernel {
	for i := s.builds; i != 0; i = a.builds[i-1].prev {
		if b := &a.builds[i-1]; b.key == key {
			return b.ek
		}
	}
	return nil
}

// Attach connects a tool to the context — the analog of starting the
// target program with LD_PRELOAD=<tool>.so. Modules already loaded are
// decoded immediately; future module loads are decoded as they arrive.
func Attach(ctx *cuda.Context, tool Tool, opts ...Option) (*Attachment, error) {
	codec, err := modcache.Shared.Codec(ctx.Device().Family)
	if err != nil {
		return nil, fmt.Errorf("nvbit: %w", err)
	}
	a := &Attachment{
		ctx:   ctx,
		tool:  tool,
		codec: codec,
	}
	for _, o := range opts {
		o(a)
	}
	for _, m := range ctx.Modules() {
		if err := a.decodeModule(m); err != nil {
			return nil, err
		}
	}
	a.unsub = ctx.Subscribe(a)
	return a, nil
}

// Detach removes the tool from the context.
func (a *Attachment) Detach() {
	if a.unsub != nil {
		a.unsub()
		a.unsub = nil
	}
}

// TotalLaunches returns the number of launches observed.
func (a *Attachment) TotalLaunches() int { return a.totalLaunches }

// InstrumentedLaunches returns how many launches ran instrumented code.
func (a *Attachment) InstrumentedLaunches() int { return a.instrumentedLaunches }

// JITBuilds returns how many instrumented kernels were built (cache misses).
func (a *Attachment) JITBuilds() int { return a.jitBuilds }

// ModuleDecodeHits returns how many module decodes were served from the
// shared module cache — for a campaign's Nth experiment, all of them.
func (a *Attachment) ModuleDecodeHits() int { return a.moduleDecodeHits }

// ModuleDecodeBuilds returns how many module decodes actually ran the
// decoder (shared-cache misses).
func (a *Attachment) ModuleDecodeBuilds() int { return a.moduleDecodeBuilds }

// decodeModule decodes a module's machine code into abstract kernels. This
// is where the per-family encoding abstraction pays off: the tool above
// never sees family-specific bits. Decodes are memoized in the shared
// module cache, so attachments across a campaign's contexts share one
// read-only decoded view per distinct binary.
func (a *Attachment) decodeModule(m *cuda.Module) error {
	prog, hit, err := modcache.Shared.Decode(m.Family(), m.Binary())
	if err != nil {
		return fmt.Errorf("nvbit: decoding module %q: %w", m.Name(), err)
	}
	if hit {
		a.moduleDecodeHits++
	} else {
		a.moduleDecodeBuilds++
	}
	if a.verify {
		diags := sassan.VerifyProgram(prog)
		a.verifyDiags = append(a.verifyDiags, diags...)
		if sassan.HasErrors(diags) {
			for _, d := range diags {
				if d.Sev == sassan.SevError {
					return fmt.Errorf("nvbit: module %q failed verification: %s", m.Name(), d)
				}
			}
		}
	}
	v := moduleView{mod: m, slots: make([]kernelSlot, m.NumFunctions())}
	if n := len(a.views); n > 0 {
		v.base = a.views[n-1].base + len(a.views[n-1].slots)
	}
	for _, k := range prog.Kernels {
		f, err := m.Function(k.Name)
		if err != nil {
			return fmt.Errorf("nvbit: module %q: %w", m.Name(), err)
		}
		s := &v.slots[f.Index()]
		s.k, s.launches = k, a.launchCount(k.Name)
		if s.launches == nil {
			s.launches = &s.count
		}
	}
	a.views = append(a.views, v)
	return nil
}

// launchCount returns the launch count of the kernel name in the modules
// decoded so far, nil when none of them has a kernel of that name.
func (a *Attachment) launchCount(name string) *int {
	for i := range a.views {
		if f, err := a.views[i].mod.Function(name); err == nil {
			if s := &a.views[i].slots[f.Index()]; s.k != nil {
				return s.launches
			}
		}
	}
	return nil
}

// VerifyDiagnostics returns the diagnostics accumulated by WithVerify
// across every module this attachment decoded.
func (a *Attachment) VerifyDiagnostics() []sassan.Diagnostic {
	return append([]sassan.Diagnostic(nil), a.verifyDiags...)
}

// VerifyWarnings returns how many of the accumulated diagnostics are
// warnings.
func (a *Attachment) VerifyWarnings() int { return sassan.CountWarnings(a.verifyDiags) }

// OnModuleLoad implements cuda.Subscriber.
func (a *Attachment) OnModuleLoad(m *cuda.Module) {
	// A decode failure would mean corrupted machine code; surface it on the
	// device log rather than swallowing it.
	if err := a.decodeModule(m); err != nil {
		panic(err)
	}
}

// OnLaunchBegin implements cuda.Subscriber: the interception point.
func (a *Attachment) OnLaunchBegin(ev *cuda.LaunchEvent) {
	s, id := a.slot(ev.Function)
	if s == nil {
		return
	}
	decoded := s.k
	a.info = LaunchInfo{
		Kernel:       decoded,
		Module:       ev.Function.Module().Name(),
		LaunchIndex:  *s.launches,
		KernelID:     id,
		GlobalLaunch: a.global,
		Config:       ev.Config,
	}
	*s.launches++
	a.global++
	a.totalLaunches++
	a.inFlight = ev.Function

	dec := a.tool.OnLaunch(&a.info)
	if !dec.Instrument {
		return
	}
	a.instrumentedLaunches++
	ek := a.build(s, dec.Key)
	if ek == nil {
		ins := &a.ins
		*ins = Inserter{k: decoded}
		a.tool.Instrument(decoded, dec.Key, ins)
		ek = &gpu.ExecKernel{
			K:            decoded,
			Before:       ins.before,
			After:        ins.after,
			Step:         ins.step,
			Tally:        ins.tally,
			Corrupt:      ins.corrupt,
			CorruptSites: ins.csites,
			Shot:         ins.shot,
			ShotSites:    ins.ssites,
		}
		a.builds = append(a.builds, jitBuild{key: dec.Key, ek: ek, prev: s.builds})
		s.builds = len(a.builds)
		a.jitBuilds++
	}
	ev.Exec = ek
}

// OnLaunchEnd implements cuda.Subscriber.
func (a *Attachment) OnLaunchEnd(ev *cuda.LaunchEvent) {
	if a.inFlight != ev.Function {
		if ev.Skipped {
			// A launch skipped on a poisoned context never began: describe
			// it with what the event still knows.
			a.info = LaunchInfo{
				Kernel:   ev.Function.Kernel(),
				Module:   ev.Function.Module().Name(),
				KernelID: -1,
			}
			a.tool.OnLaunchDone(&a.info, ev.Stats, ev.Trap, true)
		}
		return
	}
	a.inFlight = nil
	a.tool.OnLaunchDone(&a.info, ev.Stats, ev.Trap, ev.Skipped)
}
