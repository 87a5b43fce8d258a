package gpu

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/sass"
)

// warp is the per-warp execution state. Divergence is modelled with
// per-lane program counters and min-PC scheduling: each step executes the
// instruction at the smallest live PC for every lane currently at that PC,
// which reconverges diverged lanes naturally and deterministically.
//
// Lane liveness is tracked with bitmasks rather than per-lane bool arrays
// so the hot loop never scans 32 lanes for bookkeeping. While every live
// lane sits at the same PC the warp is "converged": convPC is authoritative
// and the per-lane pc array is stale. Control-flow instructions materialize
// the per-lane PCs before executing (see blockCtx.step).
//
// While diverged, the default scheduler keeps a warp-split list (splits):
// the active lanes partitioned into (pc, mask) buckets sorted by pc, so the
// next issue is the head split in O(1) instead of an O(lanes) min-PC scan
// per instruction. The list is a pure cache over the per-lane PCs — pc[]
// stays authoritative at every schedule and pause boundary, splits are
// never snapshotted as authority (splitsOK=false forces a rebuild from
// pc[]) and never digested — and the legacy scan remains both the cold
// fallback (after indirect control flow) and the oracle
// (Device.LegacySched).
//
// The SIMT state is register-major so that a warp instruction is a vector
// operation: regs[r] is one contiguous 128-byte row holding architectural
// register r of all 32 lanes, preds[p] is predicate p of all 32 lanes as a
// lane bitmask, and tid holds the thread-index components as three rows
// (DESIGN.md section 3.11).
type warp struct {
	id         int
	pc         [WarpSize]int32
	regs       [sass.NumRegs]regRow
	preds      [sass.NumPreds]uint32
	tid        [3]regRow // thread index within the block: X, Y, Z rows
	local      [WarpSize][]byte
	stack      [WarpSize][]int32
	liveMask   uint32 // lanes that exist in this warp (partial last warp)
	exitedMask uint32 // lanes that have executed EXIT
	converged  bool   // all live lanes share one PC; pc[] may be stale
	convPC     int32  // the shared PC while converged

	// Warp-split scheduler state: splits[:nsplits] partitions the active
	// lanes into disjoint PC buckets, sorted ascending by pc, valid only
	// while splitsOK. scanSched pins the warp to the legacy min-PC scan.
	splits    [WarpSize]warpSplit
	nsplits   int32
	splitsOK  bool
	scanSched bool

	barWait bool
	done    bool

	// dirtyRegs is an exclusive upper bound on the register indices that may
	// hold nonzero values: every row at or above it is zero. It lets reset
	// clear only the written prefix of the 32 KiB register file — one
	// contiguous memclr — instead of all of it. Seeded
	// from the kernel's static destination scan (writtenRegHi)
	// when a block claims the warp, and bumped by InstrCtx.WriteReg, the one
	// writer that is not bounded by the static scan.
	dirtyRegs int32

	// laneMem says a lane-local window or call stack may hold something:
	// set by whatever touches one (laneLocal, CALL; copyWarp carries it over
	// with the buffers), cleared by the reset that sweeps them. Kernels that
	// use neither never pay the sweep.
	laneMem bool

	// tidBlock is the block shape the tid rows were computed for, as warp id
	// of it (warp.shape); the zero shape matches no launch.
	tidBlock Dim3
}

// regRow is one architectural register across the warp: lane l's value sits
// at index l.
type regRow [WarpSize]uint32

// fullMask is the exec mask with every lane set.
const fullMask = ^uint32(0)

// activeMask returns the lanes that exist and have not exited.
func (w *warp) activeMask() uint32 { return w.liveMask &^ w.exitedMask }

// pred reads lane's predicate register p.
func (w *warp) pred(p sass.PredID, lane int) bool { return w.preds[p]>>uint(lane)&1 != 0 }

// setPred writes lane's predicate register p.
func (w *warp) setPred(p sass.PredID, lane int, v bool) {
	if bit := uint32(1) << uint(lane); v {
		w.preds[p] |= bit
	} else {
		w.preds[p] &^= bit
	}
}

// warpSplit is one bucket of the warp-split list: the lanes in mask all sit
// at pc.
type warpSplit struct {
	pc   int32
	mask uint32
}

// schedule returns the next PC to issue and the set of live lanes at it,
// or done when every lane has exited. On the converged fast path this is
// two loads. While diverged the default scheduler issues the head of the
// warp-split list in O(1), rebuilding the list from the per-lane PCs only
// when it was invalidated (indirect control flow, restore). The min-PC
// scan remains the legacy path (scanSched) and the rebuild primitive.
func (w *warp) schedule() (minPC int32, atPC uint32, done bool) {
	active := w.liveMask &^ w.exitedMask
	if active == 0 {
		return 0, 0, true
	}
	if w.converged {
		return w.convPC, active, false
	}
	if !w.scanSched {
		if !w.splitsOK {
			w.rebuildSplits(active)
			if w.converged {
				return w.convPC, active, false
			}
		}
		return w.splits[0].pc, w.splits[0].mask, false
	}
	first := true
	for m := active; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		if first || w.pc[lane] < minPC {
			minPC = w.pc[lane]
			first = false
		}
	}
	for m := active; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		if w.pc[lane] == minPC {
			atPC |= 1 << uint(lane)
		}
	}
	if atPC == active {
		// Every live lane reconverged at one PC: back to the fast path.
		w.converged = true
		w.convPC = minPC
	}
	return minPC, atPC, false
}

// rebuildSplits reconstructs the warp-split list from the authoritative
// per-lane PCs — the cold path after indirect control flow (BRX/RET) or a
// snapshot restore. Sorted insertion per lane; the head split afterwards
// is exactly what the min-PC scan would have issued.
func (w *warp) rebuildSplits(active uint32) {
	w.nsplits = 0
	for m := active; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		w.insertSplit(w.pc[lane], 1<<uint(lane))
	}
	w.splitsOK = true
	if w.nsplits == 1 {
		w.converged = true
		w.convPC = w.splits[0].pc
	}
}

// insertSplit merges (pc, mask) into the sorted split list.
func (w *warp) insertSplit(pc int32, mask uint32) {
	n := w.nsplits
	i := int32(0)
	for i < n && w.splits[i].pc < pc {
		i++
	}
	if i < n && w.splits[i].pc == pc {
		w.splits[i].mask |= mask
		return
	}
	copy(w.splits[i+1:n+1], w.splits[i:n])
	w.splits[i] = warpSplit{pc: pc, mask: mask}
	w.nsplits = n + 1
}

// dropHead removes the head split.
func (w *warp) dropHead() {
	copy(w.splits[:w.nsplits-1], w.splits[1:w.nsplits])
	w.nsplits--
}

// updateSplits folds one executed instruction into the warp-split list:
// the issued lanes (atPC, always the head split — or the whole warp when
// it was converged before this step) move to their successor PCs, derived
// from the instruction's flow class instead of re-scanning 32 lanes.
// Indirect flow (flowOther: BRX, RET) scatters lanes to data-dependent
// PCs, so it just invalidates the list; the next schedule rebuilds from
// pc[], which step has kept authoritative throughout.
func (w *warp) updateSplits(flow uint8, target, pc int32, atPC, execMask uint32, fromConverged bool) {
	if fromConverged {
		w.nsplits = 0
		w.splitsOK = true
	} else {
		if !w.splitsOK {
			return
		}
		w.dropHead()
	}
	switch flow {
	case flowOther:
		w.splitsOK = false
		return
	case flowLinear:
		w.insertSplit(pc+1, atPC)
	case flowExit:
		// Exited lanes leave the active set; only guard-suppressed
		// survivors fall through.
		if rem := atPC &^ execMask; rem != 0 {
			w.insertSplit(pc+1, rem)
		}
	case flowBranch:
		if fall := atPC &^ execMask; fall != 0 {
			w.insertSplit(pc+1, fall)
		}
		if execMask != 0 {
			w.insertSplit(target, execMask)
		}
	}
	if active := w.liveMask &^ w.exitedMask; w.nsplits == 1 && w.splits[0].mask == active {
		w.converged = true
		w.convPC = w.splits[0].pc
	}
}

// Flow classes for split maintenance: where an instruction sends the lanes
// that executed it.
const (
	flowLinear uint8 = iota // falls through to pc+1
	flowBranch              // direct transfer: taken lanes to target, rest to pc+1
	flowExit                // EXIT/KILL: taken lanes leave, rest to pc+1
	flowOther               // indirect or unknown: invalidates the split list
)

// flowOf classifies an instruction for updateSplits. Malformed direct
// branches (no target operand) classify as flowOther; the interpreter
// panics on them before split state is ever consulted.
func flowOf(in *sass.Instr) (flow uint8, target int32) {
	switch in.Op.Info().Sem {
	case sass.SemBra, sass.SemJmp, sass.SemCall:
		if len(in.Src) == 0 {
			return flowOther, 0
		}
		return flowBranch, in.Src[0].Target
	case sass.SemExit, sass.SemKill:
		return flowExit, 0
	case sass.SemBrx, sass.SemRet:
		return flowOther, 0
	}
	return flowLinear, 0
}

// predMask returns the lanes in m whose predicate p — negated when neg —
// evaluates true. Shared by the interpreter's guardMask and the translated
// guard closures.
func predMask(w *warp, m uint32, p sass.PredID, neg bool) uint32 {
	v := w.preds[p]
	if neg {
		v = ^v
	}
	return v & m
}

// guardMask evaluates the instruction guard for the lanes in atPC.
func guardMask(w *warp, in *sass.Instr, atPC uint32) uint32 {
	if in.Guard.Pred == sass.PT {
		if in.Guard.Neg {
			return 0
		}
		return atPC
	}
	return predMask(w, atPC, in.Guard.Pred, in.Guard.Neg)
}

// semAltersFlow reports whether the semantic can write per-lane PCs, which
// forces the converged fast path to materialize them first. EXIT and BAR
// are not flow-altering in this sense: they change only liveness and
// scheduling state, never the surviving lanes' PCs.
func semAltersFlow(sem sass.SemKind) bool {
	switch sem {
	case sass.SemBra, sass.SemJmp, sass.SemBrx, sass.SemCall, sass.SemRet:
		return true
	}
	return false
}

// budgetCounter is the launch instruction budget.
//
// When ctx is non-nil the counter doubles as the launch's cancellation
// poll: every cancelPollStride takes it checks ctx.Err(), and a cancelled
// context makes take return false with the cancelled flag set, so the
// launch traps with TrapCancelled within a bounded number of instructions
// instead of draining the rest of its budget.
type budgetCounter struct {
	remaining int64
	ctx       context.Context
	checkIn   int64 // takes until the next cancellation poll
	cancelled bool
}

// reset arms the counter for a new launch: n instructions, polling ctx
// (nil: never) for cancellation.
func (b *budgetCounter) reset(n int64, ctx context.Context) {
	*b = budgetCounter{remaining: n, ctx: ctx, checkIn: cancelPollStride}
}

// cancelPollStride is how many warp instructions may issue between
// cancellation polls: small enough that cancellation lands in microseconds,
// large enough that the poll is invisible in the interpreter hot loop.
const cancelPollStride = 1024

func (b *budgetCounter) take() bool {
	if b.ctx != nil && !b.pollN(1) {
		return false
	}
	b.remaining--
	return b.remaining >= 0
}

// takeN takes up to n instructions from the budget in one transaction and
// returns how many were granted. granted < n means the budget ran dry (or
// the context was cancelled, in which case granted is 0) after granted
// instructions — the same count a sequence of n take calls would have
// granted, so a translated run that charges per batch exhausts the budget
// at the exact instruction the per-step loop would have.
func (b *budgetCounter) takeN(n int64) (granted int64) {
	if b.ctx != nil && !b.pollN(n) {
		return 0
	}
	b.remaining -= n
	switch rem := b.remaining; {
	case rem >= 0:
		return n
	case rem+n > 0:
		return rem + n
	default:
		return 0
	}
}

// refund returns instructions reserved by takeN that never issued — a
// translated run that faulted mid-batch keeps the faulting instruction
// charged and hands back the tail, so the budget a paused or snapshotted
// run carries counts only what issued.
func (b *budgetCounter) refund(n int64) {
	if n > 0 {
		b.remaining += n
	}
}

// pollN advances the cancellation-check countdown by n takes at once:
// the countdown crosses zero exactly when some take in the batch would
// have polled, and the reset leaves at most a stride until the next poll —
// so the cancellation latency bound grows only by the maximum batch
// length. Which instruction inside the batch observes a cancelled context
// is not preserved (cancellation is host-race-timed and carries no
// deterministic attribution; see DESIGN.md section 3.7).
func (b *budgetCounter) pollN(n int64) bool {
	if b.cancelled {
		return false
	}
	if b.checkIn -= n; b.checkIn > 0 {
		return true
	}
	b.checkIn = cancelPollStride
	if b.ctx.Err() != nil {
		b.cancelled = true
		return false
	}
	return true
}

// blockCtx is a block slot: the execution state of one block at a time. A
// schedule claims one per launch (claimBlock), binds it to each block it runs
// (bind) and releases it when the launch ends (arena.go).
type blockCtx struct {
	dev       *Device
	ek        *ExecKernel
	launch    *Launch
	constBank []byte
	shared    []byte
	warps     []*warp
	smID      int
	blockIdx  Dim3
	blockLin  int

	// plan is the translated execution plan for the kernel, nil when
	// translation is disabled: run then drives the per-step reference loop
	// (runWarpRef) instead of the batched one (runWarp).
	plan *xplan

	// sites is the kernel's trampoline-site prefix count (ExecKernel.sites),
	// nil on an uninstrumented launch; spec is the kernel's Corruption when
	// this block runs on its SM, else nil (shot, below, is its Shot until it
	// fires); tally is where completed instructions are counted in line — the
	// kernel's own (ExecKernel.Tally), else the recording run's (runTally),
	// else nil; and hooked says whether the launch has any of sites, pause or
	// tally — the one flag the plain path tests. run refreshes them, and
	// calls, live and shot below, on every call, because
	// LaunchRun.SetExecKernel may swap the kernel while the block is paused.
	sites  []uint32
	spec   *Corruption
	tally  []SiteTally
	hooked bool

	// Checkpoint-engine state, all zero on a run that does not pause or
	// record. pause makes the block interruptible at warp-instruction
	// boundaries — LaunchRun.Resume sets it only while a pause is armed;
	// runTally is the recording run's per-static-instruction tally;
	// resumeWarp is where a paused sweep picks back up.
	pause      *pauseCtl
	runTally   []SiteTally
	resumeWarp int

	_ [8]byte // puts rows on a 64-byte offset (TestBlockScratchAligned)

	// rows is the row tier's scratch: broadcast and negated source operands
	// and partial-mask results land here, never in a per-call allocation.
	// It is private to the block and holds no state between steps.
	rows [numScratchRows]regRow

	// urows holds the plan's uniform operands (xplan.uniforms) as broadcast
	// rows, one per slot: constant-bank words filled once per launch by
	// setPlan, block-uniform special registers once per block by bind. Steps
	// only read them.
	urows []regRow

	// maskRow caches the exec mask maskFor expanded to per-lane select
	// words (blockCtx.laneMasks). The zero value is consistent: the empty
	// mask expands to the zero row.
	maskRow regRow
	maskFor uint32

	// live is the next-live-site index (CorruptionSites.next) of spec or
	// shot, nil when neither is live; calls says whether the kernel has any
	// callback (ExecKernel.hasCallbacks). They sit below the scratch rows,
	// which stay at a 64-byte offset (TestBlockScratchAligned).
	live  []uint32
	shot  *Shot
	calls bool

	// ictx is the InstrCtx handed to instrumentation callbacks: filled in per
	// block by run, bound to a warp by bindCtx, rewritten per instruction by
	// the warp loops.
	ictx InstrCtx
}

// TrampolineLen is the length of the instrumentation trampoline: the
// register-save / argument-setup / call / restore sequence the JIT inserts
// around every instrumentation callback, as NVBit does on real hardware.
// Trampoline instructions are tool code: they model the save/call/restore
// cost around a callback but touch no architectural state and are charged
// to neither the launch budget nor the profile counts, so executing one is
// LaunchStats.TrampolineInstrs += TrampolineLen — per site in the reference
// loop, per batch from ExecKernel.sites in the batched one.
const TrampolineLen = 28

// validate checks the launch's shape against its kernel, as BeginRun must,
// and resolves the warp-instruction budget.
func (l *Launch) validate() (budget uint64, err error) {
	if l.Kernel == nil || l.Kernel.K == nil {
		return 0, fmt.Errorf("gpu: launch with no kernel")
	}
	k := l.Kernel.K
	if l.Grid.Count() <= 0 || l.Block.Count() <= 0 {
		return 0, fmt.Errorf("gpu: launch of %q with empty grid or block", k.Name)
	}
	if l.Block.Count() > 1024 {
		return 0, fmt.Errorf("gpu: block of %d threads exceeds the 1024-thread limit", l.Block.Count())
	}
	if len(l.Params) != len(k.Params) {
		return 0, fmt.Errorf("gpu: kernel %q expects %d parameter words, got %d",
			k.Name, len(k.Params), len(l.Params))
	}
	if ek := l.Kernel; ek.Corrupt != nil || ek.Shot != nil {
		if ek.Corrupt != nil && ek.Shot != nil {
			return 0, fmt.Errorf("gpu: kernel %q carries both a Corruption and a Shot", k.Name)
		}
		if err := ek.inline().check(k); err != nil {
			return 0, err
		}
	}
	return launchBudget(l.Budget), nil
}

// launchBudget resolves a launch's warp-instruction budget: 0 means
// DefaultBudget, and the budget counter is signed.
func launchBudget(b uint64) uint64 {
	if b == 0 {
		b = DefaultBudget
	}
	return min(b, math.MaxInt64)
}

// Run executes a kernel launch to completion, a trap, or budget exhaustion:
// BeginRun and one Resume that does not pause. Blocks run one at a time, in
// linear block order, on the calling goroutine: a fault is named by its
// dynamic-instruction count across the whole launch, so the block order is
// part of the injection semantics. Run keeps l only as the device's
// LaunchRun, which the next launch rewrites; it ends any run left paused.
func (d *Device) Run(l *Launch) (LaunchStats, error) {
	r, err := d.BeginRun(l)
	if err != nil {
		return LaunchStats{}, err
	}
	_, err = r.Resume(-1)
	return r.Stats(), err
}

// fillConstBank lays the launch's constant bank (block and grid shape, then
// the parameter words) out in bank's storage, growing it only when the
// launch needs more than it holds.
func fillConstBank(bank []byte, l *Launch) []byte {
	n := sass.ParamBase + 4*len(l.Params)
	bank = slices.Grow(bank[:0], n)[:n]
	clear(bank[:sass.ParamBase])
	put := func(off int, v uint32) { binary.LittleEndian.PutUint32(bank[off:], v) }
	put(sass.ConstNtidX, uint32(l.Block.X))
	put(sass.ConstNtidY, uint32(l.Block.Y))
	put(sass.ConstNtidZ, uint32(l.Block.Z))
	put(sass.ConstNctaidX, uint32(l.Grid.X))
	put(sass.ConstNctaidY, uint32(l.Grid.Y))
	put(sass.ConstNctaidZ, uint32(l.Grid.Z))
	for i, p := range l.Params {
		put(sass.ParamBase+4*i, p)
	}
	return bank
}

// setPlan installs the translated plan the slot's blocks run through (nil:
// the reference loop) and broadcasts its launch-invariant operand rows from
// the constant bank.
func (blk *blockCtx) setPlan(plan *xplan) {
	blk.plan = plan
	n := 0
	if plan != nil {
		n = len(plan.uniforms)
	}
	blk.urows = slices.Grow(blk.urows[:0], n)[:n]
	blk.fillUniforms(false)
}

// fillUniforms broadcasts the plan's uniform operands that change per block
// (perBlock) or only per launch into their rows.
func (blk *blockCtx) fillUniforms(perBlock bool) {
	if blk.plan == nil {
		return
	}
	for i := range blk.plan.uniforms {
		if u := &blk.plan.uniforms[i]; u.perBlock() == perBlock {
			rowBroadcast(&blk.urows[i], u.value(blk))
		}
	}
}

// run executes all warps of the block. Warps run round-robin; a warp yields
// at barriers and when it finishes. All warps waiting at a barrier releases
// it; a barrier that can never be satisfied is a hang.
//
// When blk.pause is armed, run can also return errLaunchPaused mid-sweep;
// resumeWarp records where the sweep stopped so the next call continues
// from the exact same warp, making pause/resume invisible to the executed
// instruction sequence.
func (blk *blockCtx) run(budget *budgetCounter, stats *LaunchStats) error {
	runWarp := blk.runWarp
	if blk.plan == nil {
		runWarp = blk.runWarpRef
	}
	blk.sites, blk.tally, blk.calls = nil, blk.runTally, blk.ek.hasCallbacks()
	blk.spec, blk.shot, blk.live = nil, nil, nil
	if blk.ek.Tally != nil {
		blk.tally = blk.ek.Tally
	}
	if c := blk.ek.Corrupt; c != nil && c.SM == blk.smID {
		blk.spec, blk.live = c, blk.ek.CorruptSites.next
	}
	if s := blk.ek.Shot; s != nil && !s.Fired {
		blk.shot, blk.live = s, blk.ek.ShotSites.next
	}
	if blk.ek.Instrumented() {
		blk.sites = blk.ek.trampSites(blk.plan)
	}
	if blk.calls {
		// Only callbacks read the InstrCtx: a tally or a corruption never
		// pays for filling it, and a Shot fills it when it lands.
		blk.ictx = InstrCtx{
			Dev:      blk.dev,
			Kernel:   blk.ek.K,
			SMID:     blk.smID,
			BlockIdx: blk.blockIdx,
			BlockLin: blk.blockLin,
			blk:      blk,
		}
	}
	blk.hooked = blk.sites != nil || blk.pause != nil || blk.tally != nil
	start := blk.resumeWarp
	blk.resumeWarp = 0
	// A resumed sweep covers only the tail of the warp list, so its
	// progress and completion observations are partial: defer the done /
	// deadlock decisions to the next full sweep.
	partial := start > 0
	for {
		progressed := false
		allDone := true
		for wi := start; wi < len(blk.warps); wi++ {
			w := blk.warps[wi]
			if w.done || w.barWait {
				if !w.done {
					allDone = false
				}
				continue
			}
			allDone = false
			if err := runWarp(w, budget, stats); err != nil {
				if err == errLaunchPaused {
					blk.resumeWarp = wi
				}
				return err
			}
			progressed = true
		}
		start = 0
		if allDone && !partial {
			return nil
		}
		if blk.releaseBarrier() {
			partial = false
			continue
		}
		if !progressed && !partial {
			// Some warps wait at a barrier that the rest of the block can
			// never reach: on hardware this hangs until the watchdog fires.
			return &Trap{
				Kind:   TrapInstrLimit,
				Kernel: blk.ek.K.Name,
				SMID:   blk.smID,
				Detail: "barrier deadlock: not all warps can reach BAR.SYNC",
			}
		}
		partial = false
	}
}

// releaseBarrier opens the barrier when every unfinished warp waits at it.
func (blk *blockCtx) releaseBarrier() bool {
	any := false
	for _, w := range blk.warps {
		if w.done {
			continue
		}
		if !w.barWait {
			return false
		}
		any = true
	}
	if !any {
		return false
	}
	for _, w := range blk.warps {
		w.barWait = false
	}
	return true
}

// step advances PCs for the lanes at this instruction and executes it,
// maintaining the warp's convergence cache. On the converged fast path no
// per-lane PC is written at all; control flow materializes the per-lane
// PCs (guard-suppressed lanes fall through to next) and lets the branch
// semantics override the taken lanes.
func (blk *blockCtx) step(w *warp, in *sass.Instr, pc int32, atPC, execMask uint32) (barrier bool, kind TrapKind, faultAddr uint32) {
	if w.converged && !semAltersFlow(in.Op.Info().Sem) {
		w.convPC = pc + 1
		return blk.exec(w, in, int(pc), execMask)
	}
	next := pc + 1
	for m := atPC; m != 0; m &= m - 1 {
		w.pc[bits.TrailingZeros32(m)] = next
	}
	fromConverged := w.converged
	w.converged = false
	barrier, kind, faultAddr = blk.exec(w, in, int(pc), execMask)
	if kind == 0 && !w.scanSched {
		flow, target := flowOf(in)
		w.updateSplits(flow, target, pc, atPC, execMask, fromConverged)
	}
	return barrier, kind, faultAddr
}

// stepX is step through a translated plan: identical PC and convergence
// bookkeeping, with the semantic classification and execution pre-resolved.
// A control kind runs here in-line: EXIT retires the executing lanes, a
// branch (which always alters flow) sends them to its target, BAR reports the
// barrier.
func (blk *blockCtx) stepX(w *warp, xi *xinstr, pc int32, atPC, execMask uint32) (barrier bool, kind TrapKind, faultAddr uint32) {
	if w.converged && !xi.altersFlow {
		w.convPC = pc + 1
		switch xi.ctl {
		case ctlExit:
			w.exitedMask |= execMask
			return false, 0, 0
		case ctlBar:
			return true, 0, 0
		}
		return xi.step(blk, w, execMask)
	}
	next, fall := pc+1, atPC
	if xi.ctl == ctlBra {
		fall &^= execMask // the taken lanes' PCs are written once, below
	}
	for m := fall; m != 0; m &= m - 1 {
		w.pc[bits.TrailingZeros32(m)] = next
	}
	fromConverged := w.converged
	w.converged = false
	switch xi.ctl {
	case ctlNone:
		barrier, kind, faultAddr = xi.step(blk, w, execMask)
	case ctlExit:
		w.exitedMask |= execMask
	case ctlBra:
		t := xi.braTarget
		for m := execMask; m != 0; m &= m - 1 {
			w.pc[bits.TrailingZeros32(m)] = t
		}
	case ctlBar:
		barrier = true
	}
	if kind == 0 && !w.scanSched {
		w.updateSplits(xi.flow, xi.braTarget, pc, atPC, execMask, fromConverged)
	}
	return barrier, kind, faultAddr
}

// bindCtx points the block's InstrCtx (whose block-wide fields run filled in)
// at warp w; the warp loops set the per-instruction fields before each
// dispatch.
func (blk *blockCtx) bindCtx(w *warp) {
	blk.ictx.WarpID, blk.ictx.w = w.id, w
}

// runWarp is the product warp loop: it runs one warp through the translated
// plan until it exits, reaches a barrier, pauses, or traps — for every kind
// of launch (plain, instrumented, paused, tallying, faulted in line).
//
// Within a straight-line run (precomputed at translation time: a CFG basic
// block, continued past a guarded EXIT that only falls through) it skips the
// scheduler entirely — no schedule() call, no convergence
// re-check, no per-instruction semantic classification — and executes the
// pre-resolved steps back to back. A diverged warp batches too: the head
// split issues consecutively until the run ends or the head reaches the next
// split's PC, exactly the sequence of min-PC issues the reference loop would
// make. A batch is clipped three ways: by the next split, by the pause
// controller's remaining distance (so a pause lands on the exact
// instruction and finishRun leaves pc[] authoritative for the snapshot), and
// by the budget (takeN). It also ends after an EXIT that retires lanes, so
// the batch's lanes never change inside it. Budget, cancellation polling,
// stats, SM clock and trampolines are charged once per batch with exact
// per-instruction attribution on budget exhaustion, mid-batch faults and
// EXITs, so LaunchStats, trap sites and modeled time are bit-identical to
// the per-step loop.
//
// Everything a plain launch does not need hangs off one flag, blk.hooked,
// fixed per blockCtx.run: the pause clip and tick and the trampoline charge,
// both per batch. Inside a batch one issue loop serves every launch. It
// tallies: it hands blk.tally to the row dispatcher and counts each other
// step after it completes, so a profiled or recording launch runs at the
// plain launch's speed plus the counting. It runs stretches between the sites
// that must issue alone, each with its hooks in the reference loop's order: a
// callback site (callFree ends the stretch there, so a batch without one
// never leaves the stretch), and where segment ends a stretch for the
// in-line faults, a Corruption's live site (or, when it is a row op without
// a guard, the stretch runs it and the fault follows) and a Shot's landing
// issue, as well as an armed site whose guard decides its lanes — its other
// armed sites run inside the stretch, and settle counts their lanes in bulk
// when it ends. Once the Shot fires the launch runs plain. A callback may
// rewrite registers and predicates, so every guard is evaluated when its
// instruction issues, never ahead.
func (blk *blockCtx) runWarp(w *warp, budget *budgetCounter, stats *LaunchStats) error {
	steps := blk.plan.steps
	n := int32(len(steps))
	clock := &blk.dev.smClocks[blk.smID]
	hooked := blk.hooked
	ek, ctx := blk.ek, &blk.ictx
	instrs, before, after := ek.K.Instrs, ek.Before, ek.After
	if blk.calls {
		blk.bindCtx(w)
	}
	for {
		minPC, atPC, done := w.schedule()
		if done {
			w.done = true
			return nil
		}
		if minPC < 0 || minPC >= n {
			return blk.trapErr(TrapBadPC, int(minPC), 0, "control transfer outside the kernel")
		}
		xi := &steps[minPC]
		if xi.runLen > 0 && (w.converged || w.splitsOK) {
			// Straight-line batch: batchable steps never branch, exit lanes,
			// barrier, or read the SM clock, and callbacks cannot move PCs or
			// liveness, so atPC and the active mask are invariant across the
			// batch and per-lane PCs need not materialize until it ends.
			end := minPC + xi.runLen
			if !w.converged {
				// Diverged: the head split stays the min PC only until it
				// catches up with the next split.
				if next := w.splits[1].pc; next < end {
					end = next
				}
			}
			if hooked {
				end = blk.pause.clip(minPC, end)
			}
			want := int64(end - minPC)
			granted := budget.takeN(want)
			stats.WarpInstrs += uint64(granted)
			*clock += uint64(granted)
			stop := minPC + int32(granted)
			var pc int32
			var kind TrapKind
			var faultAddr uint32
			tally := blk.tally
			var ti uint64
			for pc = minPC; ; {
				// A stretch runs up to the next callback site (cut), which
				// issues alone. With a live in-line fault it stops sooner, at
				// the site segment names (live): past it when it is the
				// corruption's row op without a guard, which the stretch
				// runs, else before it, to issue it alone — a Shot's landing
				// site, or one whose guard decides its lanes. The Shot's
				// armed sites before it run inside the stretch, and settle
				// counts their lanes once it ends.
				cut := stop
				if blk.calls && blk.sites[stop] != blk.sites[pc] {
					// A span without a trampoline site holds no callback
					// site: every callback site is a trampoline site.
					cut = pc + ek.callFree(pc, stop-pc)
				}
				end, live, count, from := cut, cut, uint64(0), pc
				if blk.live != nil {
					live, end, count = blk.segment(w, pc, cut, atPC)
				}
				for ; pc < end; pc++ {
					xi := &steps[pc]
					if n := min(xi.rowLen, end-pc); n > 0 {
						var th uint64
						th, pc, kind, faultAddr = blk.runRows(w, pc, n, atPC, tally)
						if ti += th; kind != 0 {
							break
						}
						pc--
						continue
					}
					execMask := atPC
					if xi.guardKind != guardOn {
						execMask = xi.guard(w, atPC)
					}
					lanes := uint64(popcount(execMask))
					ti += lanes
					if xi.ctl == ctlNone {
						if _, kind, faultAddr = xi.step(blk, w, execMask); kind != 0 {
							break
						}
					} else if w.exitedMask |= execMask; execMask != 0 {
						// An EXIT, the one control kind a run holds, retired
						// lanes: the batch ends after it.
						if tally != nil {
							tally[pc].add(lanes)
						}
						if count != 0 {
							blk.settle(w, from, pc, atPC, count, true)
						}
						goto exited
					}
					if tally != nil {
						tally[pc].add(lanes)
					}
				}
				if count != 0 {
					blk.settle(w, from, pc, atPC, count, kind != 0)
				}
				if kind != 0 || live == stop {
					break
				}
				if pc != live {
					// The stretch ran the corruption's live row op.
					blk.hit(w, live, atPC, -1)
					continue
				}
				// The site that issues alone: an in-line live site, a
				// callback site or both, hooks in the reference loop's order.
				// The dispatch is callBefore's and callAfter's, written out:
				// as calls they cost a tool that calls back on every
				// instruction 5-10% more (BenchmarkCallbackLaunch).
				xi := &steps[pc]
				execMask := atPC
				if xi.guardKind != guardOn {
					execMask = xi.guard(w, atPC)
				}
				lanes := uint64(popcount(execMask))
				ti += lanes
				call, inline, lane := pc == cut, blk.live != nil && int32(blk.live[pc]) == pc, -1
				if xi.ctl != ctlNone {
					if blk.exitAlone(w, pc, execMask, call, inline) {
						goto exited
					}
					pc++
					continue
				}
				if call {
					ctx.Instr, ctx.InstrIdx, ctx.ActiveMask = &instrs[pc], int(pc), execMask
					if before != nil {
						for _, cb := range before[pc] {
							cb(ctx)
						}
					}
				}
				if inline {
					lane = blk.aim(w, pc, execMask)
				}
				if _, kind, faultAddr = xi.step(blk, w, execMask); kind != 0 {
					break
				}
				if tally != nil {
					tally[pc].add(lanes)
				}
				if inline {
					blk.hit(w, pc, execMask, lane)
				}
				if call {
					if after != nil {
						for _, cb := range after[pc] {
							cb(ctx)
						}
					}
				}
				pc++
			}
			stats.ThreadInstrs += ti
			if hooked {
				blk.chargeSites(stats, minPC, pc)
			}
			if kind != 0 {
				// Mid-batch fault: keep the faulting instruction charged (the
				// per-step loop charges before executing), its Before site
				// too, and hand back the never-issued tail.
				if hooked {
					blk.chargeBefore(stats, pc)
				}
				unrun := int64(stop - pc - 1)
				budget.refund(unrun)
				stats.WarpInstrs -= uint64(unrun)
				*clock -= uint64(unrun)
				return blk.trapErr(kind, int(pc), faultAddr, "")
			}
			if granted < want {
				// Budget ran dry mid-batch: the trap lands on the first
				// instruction the per-step loop would have failed to issue.
				return blk.budgetTrap(budget, int(pc))
			}
			w.finishRun(end, atPC)
			if hooked && blk.pause.tick(want) {
				return errLaunchPaused
			}
			continue

		exited:
			// An EXIT retired lanes at pc and the batch ends after it: hand
			// back the never-issued tail, to the budget all the batch took of
			// it (the part takeN could not grant too, so the warp's next
			// issue, if any, finds the budget dry where the per-step loop
			// would), to the stats and the clock what it granted.
			pc++
			stats.ThreadInstrs += ti
			budget.refund(int64(end - pc))
			stats.WarpInstrs -= uint64(stop - pc)
			*clock -= uint64(stop - pc)
			if hooked {
				blk.chargeSites(stats, minPC, pc)
			}
			w.finishRun(pc, atPC&^w.exitedMask)
			if hooked && blk.pause.tick(int64(pc-minPC)) {
				return errLaunchPaused
			}
			continue
		}

		// One instruction that may branch, reach a barrier or read the clock,
		// or any instruction of a diverged warp that cannot batch: issued
		// alone, hooks in the same order as a batch's site.
		execMask := atPC
		if xi.guardKind != guardOn {
			execMask = xi.guard(w, atPC)
		}
		if !budget.take() {
			return blk.budgetTrap(budget, int(minPC))
		}
		lanes := uint64(popcount(execMask))
		stats.WarpInstrs++
		stats.ThreadInstrs += lanes
		*clock++
		armed := blk.calls
		live, lane := hooked && blk.live != nil && int32(blk.live[minPC]) == minPC, -1
		if armed {
			blk.callBefore(minPC, execMask)
		}
		if live {
			lane = blk.aim(w, minPC, execMask)
		}
		var barrier bool
		if xi.ctl == ctlBra && w.converged && (execMask == atPC || execMask == 0) {
			// Uniform direct branch: every lane takes it (or none does), so
			// the warp stays converged and no per-lane PC materializes —
			// exactly the state the reference loop's next schedule() would
			// recompute from the scattered PCs, minus the scan.
			w.convPC = minPC + 1
			if execMask != 0 {
				w.convPC = xi.braTarget
			}
		} else {
			var kind TrapKind
			var faultAddr uint32
			barrier, kind, faultAddr = blk.stepX(w, xi, minPC, atPC, execMask)
			if kind != 0 {
				if hooked {
					blk.chargeBefore(stats, minPC)
				}
				return blk.trapErr(kind, int(minPC), faultAddr, "")
			}
		}
		if hooked {
			blk.chargeSites(stats, minPC, minPC+1)
			if blk.tally != nil {
				blk.tally[minPC].add(lanes)
			}
			if live {
				blk.hit(w, minPC, execMask, lane)
			}
			if armed {
				blk.callAfter(minPC)
			}
		}
		if barrier {
			if execMask != w.activeMask() {
				return blk.trapErr(TrapInstrLimit, int(minPC), 0, "divergent BAR.SYNC never satisfied")
			}
			w.barWait = true
		}
		if hooked && blk.pause.tick(1) {
			return errLaunchPaused
		}
		if barrier {
			return nil
		}
	}
}

// exitAlone issues the EXIT at pc, which issues alone in w's batch, for
// execMask: a callback site (call), a live site of the in-line fault (inline)
// or both, hooks in the reference loop's order. It reports whether the EXIT
// retired lanes, which ends the batch.
func (blk *blockCtx) exitAlone(w *warp, pc int32, execMask uint32, call, inline bool) bool {
	lane := -1
	if call {
		blk.callBefore(pc, execMask)
	}
	if inline {
		lane = blk.aim(w, pc, execMask)
	}
	w.exitedMask |= execMask
	if blk.tally != nil {
		blk.tally[pc].add(uint64(popcount(execMask)))
	}
	if inline {
		blk.hit(w, pc, execMask, lane)
	}
	if call {
		blk.callAfter(pc)
	}
	return execMask != 0
}

// chargeSites charges the trampolines of the instructions [from, pc) that
// completed. It runs once per batch, so it must stay cheap enough to inline.
func (blk *blockCtx) chargeSites(stats *LaunchStats, from, pc int32) {
	if sites := blk.sites; sites != nil {
		stats.TrampolineInstrs += uint64(sites[pc]-sites[from]) * TrampolineLen
	}
}

// chargeBefore charges the Before site of pc, which faulted: a faulting
// instruction got as far as its Before callbacks and Pre hook.
func (blk *blockCtx) chargeBefore(stats *LaunchStats, pc int32) {
	if blk.sites != nil && blk.ek.hasBefore(pc) {
		stats.TrampolineInstrs += TrampolineLen
	}
}

// callBefore describes the instruction about to issue in the block's
// InstrCtx and runs its Before callbacks.
func (blk *blockCtx) callBefore(pc int32, execMask uint32) {
	ek, ctx := blk.ek, &blk.ictx
	ctx.Instr = &ek.K.Instrs[pc]
	ctx.InstrIdx = int(pc)
	ctx.ActiveMask = execMask
	if ek.Before != nil {
		for _, cb := range ek.Before[pc] {
			cb(ctx)
		}
	}
}

// callAfter runs the After callbacks of the instruction callBefore described.
func (blk *blockCtx) callAfter(pc int32) {
	ek, ctx := blk.ek, &blk.ictx
	if ek.After != nil {
		for _, cb := range ek.After[pc] {
			cb(ctx)
		}
	}
}

// finishRun settles scheduling state after a completed straight-line batch:
// the issued lanes that did not exit, atPC, sit at endPC. Converged warps
// just move convPC (a warp whose every lane exited finds none at its next
// schedule); a diverged warp materializes the head split's surviving lanes
// (keeping pc[] authoritative for the next schedule or snapshot) and
// advances the split list — dropping the head when all its lanes exited, or
// merging it into the next split when the head caught up with it, which is
// also where batched execution re-detects reconvergence.
func (w *warp) finishRun(endPC int32, atPC uint32) {
	if w.converged {
		w.convPC = endPC
		return
	}
	for m := atPC; m != 0; m &= m - 1 {
		w.pc[bits.TrailingZeros32(m)] = endPC
	}
	switch {
	case atPC == 0:
		w.dropHead()
	case w.nsplits > 1 && w.splits[1].pc == endPC:
		w.splits[1].mask |= atPC
		w.dropHead()
	default:
		w.splits[0] = warpSplit{pc: endPC, mask: atPC}
	}
	if active := w.liveMask &^ w.exitedMask; w.nsplits == 1 && w.splits[0].mask == active {
		w.converged = true
		w.convPC = w.splits[0].pc
	}
}

// runWarpRef is the per-step reference loop, used only when translation is
// off (Device.NoXlate): one schedule() and one interpreted step per
// instruction, every hook checked in place, every trampoline charged at its
// site. It is the differential oracle for runWarp — same issue order, same
// accounting, same pause positions, by the most direct route.
func (blk *blockCtx) runWarpRef(w *warp, budget *budgetCounter, stats *LaunchStats) error {
	ek := blk.ek
	instrs := ek.K.Instrs
	if blk.calls {
		blk.bindCtx(w)
	}
	for {
		minPC, atPC, done := w.schedule()
		if done {
			w.done = true
			return nil
		}
		if minPC < 0 || int(minPC) >= len(instrs) {
			return blk.trapErr(TrapBadPC, int(minPC), 0, "control transfer outside the kernel")
		}
		in := &instrs[minPC]
		execMask := atPC
		if !in.Guard.True() {
			execMask = guardMask(w, in, atPC)
		}

		if !budget.take() {
			return blk.budgetTrap(budget, int(minPC))
		}
		lanes := uint64(popcount(execMask))
		stats.WarpInstrs++
		stats.ThreadInstrs += lanes
		blk.dev.smClocks[blk.smID]++

		armed := blk.calls
		live, lane := blk.live != nil && int32(blk.live[minPC]) == minPC, -1
		if ek.hasBefore(minPC) {
			stats.TrampolineInstrs += TrampolineLen
		}
		if armed {
			blk.callBefore(minPC, execMask)
		}
		if live {
			lane = blk.aim(w, minPC, execMask)
		}

		barrier, kind, faultAddr := blk.step(w, in, minPC, atPC, execMask)
		if kind != 0 {
			return blk.trapErr(kind, int(minPC), faultAddr, "")
		}

		if ek.hasAfter(minPC) {
			stats.TrampolineInstrs += TrampolineLen
		}
		if blk.tally != nil {
			blk.tally[minPC].add(lanes)
		}
		if live {
			blk.hit(w, minPC, execMask, lane)
		}
		if armed {
			blk.callAfter(minPC)
		}

		if barrier {
			if execMask != w.activeMask() {
				return blk.trapErr(TrapInstrLimit, int(minPC), 0, "divergent BAR.SYNC never satisfied")
			}
			w.barWait = true
		}
		if blk.pause.tick(1) {
			return errLaunchPaused
		}
		if barrier {
			return nil
		}
	}
}

// budgetTrap builds the error for a failed budget.take: TrapCancelled when
// the host context was cancelled, otherwise the ordinary instruction-limit
// (hang detector) trap.
func (blk *blockCtx) budgetTrap(b *budgetCounter, pc int) error {
	if b.cancelled {
		return blk.trapErr(TrapCancelled, pc, 0, "host context cancelled the launch")
	}
	return blk.trapErr(TrapInstrLimit, pc, 0, "launch instruction budget exhausted")
}

// trapErr builds the trap error for this block. Device.Run logs it once the
// launch has stopped.
func (blk *blockCtx) trapErr(kind TrapKind, pc int, addr uint32, detail string) error {
	return &Trap{
		Kind:   kind,
		Kernel: blk.ek.K.Name,
		PC:     pc,
		SMID:   blk.smID,
		Addr:   addr,
		Detail: detail,
	}
}
