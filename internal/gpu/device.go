package gpu

import (
	"context"
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/sass"
)

// WarpSize is the number of lanes per warp, fixed at 32 as on all NVIDIA
// architectures the paper covers.
const WarpSize = 32

// DefaultBudget is the per-launch warp-instruction limit used when a Launch
// does not set one; it is the hang detector of last resort.
const DefaultBudget = 1 << 32

// localMemBytes is the per-thread local-memory window (LDL/STL).
const localMemBytes = 4096

// maxCallDepth bounds the per-lane call stack.
const maxCallDepth = 64

// LogEvent is one device-log entry — the analog of a dmesg Xid line. The
// campaign layer classifies runs with unconsumed log events as potential
// DUEs (Table V).
type LogEvent struct {
	Kind string // e.g. "Xid"
	Msg  string
}

// Device is one simulated GPU.
type Device struct {
	Family sass.Family
	NumSMs int

	// The oracle switches. Each selects the slower reference for one part of
	// the engine, observably identical to the default (the differential
	// suites prove it). Only those suites set them: the product runs the
	// zero values, and no non-test code outside this package names them
	// (lint_test.go at the repository root holds that). They stay exported
	// because the campaign-level differentials build devices in their own
	// package.
	//
	// NoXlate disables the block-level translation engine: every launch
	// runs the per-step reference loop over the interpreter (runWarpRef).
	NoXlate bool
	// LegacySched pins every warp to the per-issue min-PC scan instead of
	// the warp-split scheduler.
	LegacySched bool

	// Mem is global device memory.
	Mem *Memory

	// cancelCtx, when non-nil, is polled during launches (every
	// cancelPollStride warp instructions, and at every launch boundary): a
	// cancelled context makes the running launch trap with TrapCancelled
	// instead of draining its instruction budget. Set it with SetCancel
	// before launching; campaign experiment loops use it to abandon
	// in-flight runs on coordinator shutdown.
	cancelCtx context.Context

	log      []LogEvent
	smClocks []uint64 // per-SM executed-instruction counters (CS2R/SR_CLOCK)

	// planMemo caches planFor results by kernel identity, so repeated
	// launches of the same decoded kernel skip the process-wide plan cache.
	// Like the rest of the device state it is touched only from the
	// goroutine driving Run/Restore.
	planMemo map[*sass.Kernel]*xplan

	// Per-launch scratch. A device runs one launch at a time, so one
	// constant bank serves every launch, and run is the one LaunchRun
	// BeginRun and Restore hand out (see LaunchRun) — Run included.
	bank []byte
	run  LaunchRun

	// hashBuf is kernelHash's serialisation buffer, reused across the kernels
	// a device hashes (none, once the module cache has memoized their hashes).
	hashBuf []byte
}

// SetCancel arms launch cancellation: once ctx is done, any running or
// future launch on this device traps promptly with TrapCancelled. Call it
// before launching; the field must not be changed while a launch is
// executing.
func (d *Device) SetCancel(ctx context.Context) { d.cancelCtx = ctx }

// NewDevice creates a device of the given family with numSMs streaming
// multiprocessors.
func NewDevice(family sass.Family, numSMs int) (*Device, error) {
	if numSMs <= 0 {
		return nil, fmt.Errorf("gpu: device needs at least one SM, got %d", numSMs)
	}
	return &Device{
		Family:   family,
		NumSMs:   numSMs,
		Mem:      NewMemory(),
		smClocks: make([]uint64, numSMs),
	}, nil
}

// LogEvents returns the accumulated device log.
func (d *Device) LogEvents() []LogEvent { return d.log }

// ClearLog empties the device log (read-and-clear, like dmesg -c).
func (d *Device) ClearLog() []LogEvent {
	ev := d.log
	d.log = nil
	return ev
}

// SetLog replaces the device log wholesale — the restore/replay path's hook
// for installing a snapshot's log, or the recorded end-of-run log when a
// replay exits early.
func (d *Device) SetLog(ev []LogEvent) {
	d.log = append([]LogEvent(nil), ev...)
}

func (d *Device) logf(kind, format string, args ...any) {
	d.log = append(d.log, LogEvent{Kind: kind, Msg: fmt.Sprintf(format, args...)})
}

// Callback is an instrumentation function inserted before or after an
// instruction — the analog of an NVBit injected device function. It runs on
// every dynamic execution of that instruction, once per warp, with the
// per-lane state accessible through the context. The InstrCtx belongs to the
// executing block and is rewritten for the next instruction: it is valid
// only until the callback returns, so a callback copies out what it keeps.
// Before and After are the only two kinds: a tool that stops after every
// instruction, like a debugger's single step, lists one shared callback on
// every instruction's After list.
type Callback func(*InstrCtx)

// SiteTally is one static instruction's execution tally: what the engine
// counts in line, without a callback, for an ExecKernel that carries a Tally
// and for a LaunchRun that enabled its own.
type SiteTally struct {
	Threads uint64 // thread-level executions: active, guard-passing lanes
	Issues  uint64 // warp-level issues, counting those with no lane active
}

// add counts one completed issue that had lanes active lanes.
func (t *SiteTally) add(lanes uint64) {
	t.Threads += lanes
	t.Issues++
}

// ExecKernel is an executable kernel: the instruction list plus any
// instrumentation attached by the NVBit layer. A nil Before/After means the
// kernel runs unmodified, with no per-instruction dispatch overhead.
type ExecKernel struct {
	K *sass.Kernel

	// Before and After hold instrumentation callbacks indexed by
	// instruction; either may be nil (uninstrumented). An After callback
	// runs once its instruction completes, before the next one issues.
	Before [][]Callback
	After  [][]Callback

	// Tally, when non-nil, has one entry per instruction, and the warp loops
	// add each instruction's active lanes to its entry after the instruction
	// completes — the declarative form of an After callback that counts
	// c.LaneCount(), executed in line. It is an After site on every
	// instruction (one trampoline, shared with the instruction's After
	// callbacks if it has any), and a faulting instruction is not tallied.
	// The slice belongs to the tool that inserted it: the engine only adds,
	// on the goroutine running the launch; the tool clears it before a launch
	// and reads it after.
	Tally []SiteTally

	// Corrupt, when non-nil, is a permanent fault the warp loops apply in
	// line after each live site completes on the spec's SM (Corruption), with
	// CorruptSites its facts on K: an After site on every charged instruction,
	// like an After callback there, but dispatched by no closure. Blocks on
	// any other SM only pay the trampoline charge.
	Corrupt      *Corruption
	CorruptSites *CorruptionSites

	// Shot, when non-nil, is a single-site fault the warp loops count down to
	// in line (Shot), with ShotSites its facts on K: an After site on every
	// armed instruction and, when it has a Pre hook, a Before site too, like
	// the callbacks it stands for, but dispatched by no closure. A kernel
	// carries a Corruption or a Shot, not both.
	Shot      *Shot
	ShotSites *CorruptionSites

	sitesOnce sync.Once
	sites     []uint32 // trampSites' prefix, when built here
}

// Instrumented reports whether any instrumentation is attached.
func (ek *ExecKernel) Instrumented() bool {
	return ek.hasCallbacks() || ek.Tally != nil || ek.Corrupt != nil || ek.Shot != nil
}

// inline returns the site facts of the kernel's in-line fault, its Corruption
// or its Shot; nil when it has neither.
func (ek *ExecKernel) inline() *CorruptionSites {
	switch {
	case ek.Corrupt != nil:
		return ek.CorruptSites
	case ek.Shot != nil:
		return ek.ShotSites
	}
	return nil
}

// hasCallbacks reports whether any instruction may dispatch a callback.
func (ek *ExecKernel) hasCallbacks() bool {
	return ek.Before != nil || ek.After != nil
}

// hasBefore reports whether instruction pc carries a Before site: callbacks,
// or an armed site of a Shot with a Pre hook.
func (ek *ExecKernel) hasBefore(pc int32) bool {
	return ek.callsBefore(pc) || ek.Shot != nil && ek.Shot.Pre != nil && ek.ShotSites.site(pc)
}

// callsBefore reports whether instruction pc has Before callbacks.
func (ek *ExecKernel) callsBefore(pc int32) bool {
	return ek.Before != nil && len(ek.Before[pc]) > 0
}

// hasAfter reports whether instruction pc carries an After site: callbacks,
// the in-line tally, or a charged site of the in-line fault.
func (ek *ExecKernel) hasAfter(pc int32) bool {
	if ek.Tally != nil || ek.After != nil && len(ek.After[pc]) > 0 {
		return true
	}
	s := ek.inline()
	return s != nil && s.site(pc)
}

// callFree returns how many of the instructions [pc, pc+n) run before the
// first one that dispatches a callback — a Before or After list; the tally
// and the in-line faults run in line and are none: how far a stretch of
// runWarp's batch may run before a site that issues alone. runWarp answers
// the case that needs no scan itself: a span without a trampoline site
// (trampSites' prefix, built before the first launch) holds none, as every
// callback site is one. Else callFree scans, and answers 0 at once when pc is
// a site, as every instruction is for a tool that single-steps: a table per
// instrumented kernel would cost every experiment's JIT builds more than the
// scan costs the armed loop.
func (ek *ExecKernel) callFree(pc, n int32) int32 {
	for k := int32(0); k < n; k++ {
		if ek.callsBefore(pc+k) || (ek.After != nil && len(ek.After[pc+k]) > 0) {
			return k
		}
	}
	return n
}

// trampSites returns the trampoline-site prefix count: sites[pc] is the
// number of sites (a Before list or a Shot's Pre hook, an After list, tally or
// charged in-line fault site) on instructions [0, pc), so a batch that
// completed [a, b) executed sites[b]-sites[a] trampolines. An
// instrumentation without callbacks shares a prefix derived once per kernel
// content: one After site per instruction when it tallies (xplan.tallySites,
// whatever it corrupts: the sites coincide), else its in-line fault's sites
// (CorruptionSites). Any other is built on the ExecKernel's first
// instrumented launch, not in the plan: a plan is shared by every
// instrumentation of the same kernel content. Before, After, Tally, Corrupt
// and Shot must not change once the kernel has launched — the NVBit layer
// builds them whole in its Inserter and caches the result.
func (ek *ExecKernel) trampSites(plan *xplan) []uint32 {
	if !ek.hasCallbacks() {
		switch s := ek.inline(); {
		case ek.Tally != nil && plan != nil && ek.Shot == nil:
			return plan.tallySites
		case ek.Tally == nil && s != nil:
			return s.sites
		}
	}
	ek.sitesOnce.Do(func() {
		p := make([]uint32, len(ek.K.Instrs)+1)
		for pc := range ek.K.Instrs {
			n := p[pc]
			if ek.hasBefore(int32(pc)) {
				n++
			}
			if ek.hasAfter(int32(pc)) {
				n++
			}
			p[pc+1] = n
		}
		ek.sites = p
	})
	return ek.sites
}

// writtenRegHi returns an exclusive upper bound on the register indices k's
// instructions can write, from a static scan of destination operands. It
// seeds warp.dirtyRegs so reset clears only the written prefix of the
// register file. The scan over-approximates by 3 registers to cover pair and
// 128-bit destinations; a 128-bit destination near the top of the file wraps
// base+i through the uint8 register id and can touch low registers, so those
// force the full file. Translation derives it once per kernel content
// (xplan.regHi); only the reference loop scans per block.
func writtenRegHi(k *sass.Kernel) int32 {
	hi := int32(0)
	for i := range k.Instrs {
		for _, o := range k.Instrs[i].Dst {
			if o.Kind != sass.OpdReg || o.Reg == sass.RZ {
				continue
			}
			if o.Reg >= sass.RZ-3 {
				hi = sass.NumRegs
				continue
			}
			if n := int32(o.Reg) + 4; n > hi {
				hi = n
			}
		}
	}
	return hi
}

// Dim3 is a grid or block shape.
type Dim3 struct{ X, Y, Z int }

// Count returns the total element count of the shape.
func (d Dim3) Count() int {
	return d.X * d.Y * d.Z
}

// Launch describes one kernel launch.
type Launch struct {
	Kernel      *ExecKernel
	Grid, Block Dim3
	SharedBytes int      // dynamic shared memory on top of the kernel's static amount
	Params      []uint32 // 4-byte parameter words, in kernel parameter order
	Budget      uint64   // max warp-instructions; 0 means DefaultBudget
}

// LaunchStats reports execution counts for a completed (or trapped) launch.
type LaunchStats struct {
	WarpInstrs   uint64 // warp-level instructions issued
	ThreadInstrs uint64 // thread-level executions (active, guard-passing lanes)
	// TrampolineInstrs counts instrumentation-trampoline instructions
	// (TrampolineLen per callback site per dynamic execution) — tool
	// overhead, charged to neither the launch budget nor the profile.
	TrampolineInstrs uint64
	Blocks           int
}

// InstrCtx is the view an instrumentation callback gets of the executing
// instruction: identification (kernel, instruction index, SM, warp), the
// exec mask, and read/write access to the per-lane architectural state.
// It mirrors what NVBit passes to injected device functions.
type InstrCtx struct {
	Dev        *Device
	Kernel     *sass.Kernel
	InstrIdx   int
	Instr      *sass.Instr
	SMID       int
	BlockIdx   Dim3
	BlockLin   int
	WarpID     int    // warp index within the block
	ActiveMask uint32 // lanes executing this instruction (guard-passing)

	w   *warp
	blk *blockCtx
}

// LaneActive reports whether lane participates in this execution.
func (c *InstrCtx) LaneActive(lane int) bool { return c.ActiveMask&(1<<uint(lane)) != 0 }

// ReadReg returns lane's general-purpose register r.
func (c *InstrCtx) ReadReg(lane int, r sass.RegID) uint32 {
	if r == sass.RZ {
		return 0
	}
	return c.w.regs[r][lane]
}

// WriteReg sets lane's general-purpose register r. Writes to RZ are
// discarded, as in hardware.
func (c *InstrCtx) WriteReg(lane int, r sass.RegID, v uint32) {
	if r == sass.RZ {
		return
	}
	// Instrumentation may write registers the kernel's static destination
	// scan never sees (fault injection picks arbitrary targets); widen the
	// warp's dirty window so reset still restores a fully zeroed file.
	if int32(r) >= c.w.dirtyRegs {
		c.w.dirtyRegs = int32(r) + 1
	}
	c.w.regs[r][lane] = v
}

// ReadPred returns lane's predicate register p.
func (c *InstrCtx) ReadPred(lane int, p sass.PredID) bool {
	if p == sass.PT {
		return true
	}
	return c.w.pred(p, lane)
}

// WritePred sets lane's predicate register p. Writes to PT are discarded.
func (c *InstrCtx) WritePred(lane int, p sass.PredID, v bool) {
	if p == sass.PT {
		return
	}
	c.w.setPred(p, lane, v)
}

// LaneCount returns the number of set bits in the exec mask.
func (c *InstrCtx) LaneCount() int {
	return popcount(c.ActiveMask)
}

func popcount(m uint32) int { return bits.OnesCount32(m) }
