package gpu

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/sass"
)

// This file is the checkpoint engine: pausable launches (LaunchRun),
// whole-device architectural snapshots (Device.Snapshot / Device.Restore),
// and the canonical state digest used for early-exit re-convergence
// detection. The invariant everything here serves: a run restored from a
// snapshot executes the exact instruction sequence the snapshotted run
// would have executed, bit for bit — pausing, snapshotting, and restoring
// are invisible to the architecture.

// errLaunchPaused is the internal sentinel the warp loops return when the
// pause controller fires; LaunchRun.Resume translates it into (paused=true).
var errLaunchPaused = errors.New("gpu: launch paused")

// pauseCtl arms a launch to stop after a fixed number of issued warp
// instructions. remaining < 0 means disarmed (run freely).
type pauseCtl struct {
	remaining int64
}

// clip shortens the batch [pc, end) so that it ends where the pause is due.
func (p *pauseCtl) clip(pc, end int32) int32 {
	if p != nil && p.remaining > 0 && p.remaining < int64(end-pc) {
		return pc + int32(p.remaining)
	}
	return end
}

// tick consumes n issued warp instructions — never more than remaining: the
// batched loop clips its batches to it — and reports whether the run must
// pause before issuing the next. Firing disarms the controller until the
// next Resume re-arms it. A nil controller never fires.
func (p *pauseCtl) tick(n int64) bool {
	if p == nil || p.remaining < 0 {
		return false
	}
	p.remaining -= n
	if p.remaining == 0 {
		p.remaining = -1
		return true
	}
	return false
}

// LaunchRun is a kernel launch that can be paused at exact dynamic
// warp-instruction boundaries, snapshotted, and resumed. Pause positions are
// defined in terms of the launch's one global instruction order, the order
// Run executes in.
//
// A device runs one launch at a time, so it holds the one LaunchRun
// (Device.run) and BeginRun / Restore hand out that object rewritten: a run
// is valid until the next BeginRun, Restore or Recycle on its device. The
// in-flight block goes back to the pools when the run finishes or traps, and
// Close returns it for a run abandoned while paused.
type LaunchRun struct {
	dev       *Device
	launch    Launch // private copy: SetExecKernel swaps its kernel
	constBank []byte
	plan      *xplan
	budget    budgetCounter
	stats     LaunchStats
	pause     pauseCtl
	counts    []SiteTally
	countBuf  []SiteTally // counts' storage when the run keeps its own
	blk       *blockCtx
	blockLin  int
	finished  bool
	err       error

	// Restore's storage for what a snapshot carries by value.
	params []uint32
	ek     ExecKernel
}

// errRunClosed is the final error of a run closed before it finished.
var errRunClosed = errors.New("gpu: launch run closed")

// resetRun closes the device's previous run and hands its object back
// zeroed, keeping only the parameter and tally buffers.
func (d *Device) resetRun() *LaunchRun {
	r := &d.run
	r.Close()
	*r = LaunchRun{dev: d, params: r.params[:0], countBuf: r.countBuf}
	return r
}

// arm readies a run whose launch is set: constant bank (the device's — one
// launch at a time), plan, budget, and a disarmed pause controller.
func (r *LaunchRun) arm(budget int64) {
	d := r.dev
	d.bank = fillConstBank(d.bank, &r.launch)
	r.constBank = d.bank
	r.plan = d.planFor(r.launch.Kernel.K)
	r.budget.reset(budget, d.cancelCtx)
	r.pause.remaining = -1
}

// BeginRun validates a launch and returns it paused before the first
// instruction. Call Resume to execute. On a device whose cancellation
// context is already done the run is over before it starts: Resume returns
// TrapCancelled without executing an instruction.
func (d *Device) BeginRun(l *Launch) (*LaunchRun, error) {
	budget, err := l.validate()
	if err != nil {
		return nil, err
	}
	r := d.resetRun()
	r.launch = *l
	r.arm(int64(budget))
	if d.cancelCtx != nil && d.cancelCtx.Err() != nil {
		r.finish(&Trap{Kind: TrapCancelled, Kernel: l.Kernel.K.Name, Detail: "host context cancelled before launch"})
	}
	return r, nil
}

// Close abandons the run: the block slot returns to its pool, and a run that
// had not finished reports errRunClosed from then on. Closing a finished or
// closed run does nothing.
func (r *LaunchRun) Close() {
	if r.blk != nil {
		r.blk.release()
		r.blk = nil
	}
	if !r.finished {
		r.finished, r.err = true, errRunClosed
	}
}

// EnableInstrExecCounts makes the run tally thread-level executions per
// static instruction (the same quantity the transient injector counts when
// walking to its target) — through the engine's one in-line tally, so for a
// kernel that carries its own (ExecKernel.Tally, cleared by its tool before
// the launch) the run reads that one instead of keeping a second. Its own
// lives in a buffer the device's runs share, cleared here, so it is valid
// until the next BeginRun or Restore. Must be called before the first Resume.
// The tally belongs to the run, not the architecture: a snapshot does not
// carry it and a restored run does not tally.
func (r *LaunchRun) EnableInstrExecCounts() {
	if r.counts = r.launch.Kernel.Tally; r.counts == nil {
		n := len(r.launch.Kernel.K.Instrs)
		r.countBuf = slices.Grow(r.countBuf[:0], n)[:n]
		clear(r.countBuf)
		r.counts = r.countBuf
	}
}

// InstrExecCounts returns the live per-static-instruction tallies (nil
// unless EnableInstrExecCounts was called).
func (r *LaunchRun) InstrExecCounts() []SiteTally { return r.counts }

// Resume executes up to pauseIn warp instructions (all remaining when
// pauseIn < 0) and reports whether the run paused (true) or finished
// (false). A finished run's error — nil, or the trap that ended it — comes
// back alongside, exactly as Device.Run would have returned it, and the
// trap is logged to the device log the same way.
func (r *LaunchRun) Resume(pauseIn int64) (paused bool, err error) {
	if r.finished {
		return false, r.err
	}
	if pauseIn == 0 {
		return true, nil
	}
	// The pause controller rides on the block only while a pause is armed:
	// a run that will not pause keeps blk.hooked false and runs the plain
	// loop.
	r.pause.remaining = pauseIn
	pause := &r.pause
	if pauseIn < 0 {
		pause = nil
	}
	for {
		if r.blk == nil {
			r.blk = r.claim()
			r.blk.bind(r.blockLin)
		}
		r.blk.pause = pause
		err := r.blk.run(&r.budget, &r.stats)
		if err == errLaunchPaused {
			return true, nil
		}
		if err != nil {
			r.finish(err)
			return false, err
		}
		r.stats.Blocks++
		r.blockLin++
		if r.blockLin >= r.launch.Grid.Count() {
			r.finish(nil)
			return false, nil
		}
		r.blk.bind(r.blockLin)
	}
}

// claim takes the run's block slot: r.blk is non-nil exactly while a block is
// in flight, from the first Resume (or a mid-launch Restore) until the run
// finishes or is closed.
func (r *LaunchRun) claim() *blockCtx {
	blk := claimBlock(r.dev, &r.launch, r.constBank, r.plan)
	blk.runTally = r.counts
	return blk
}

func (r *LaunchRun) finish(err error) {
	r.finished = true
	r.err = err
	r.pause.remaining = -1
	r.Close()
	if t, ok := AsTrap(err); ok {
		r.dev.logf("Xid", "%s", t.Error())
	}
}

// Stats returns the execution counts so far. For a finished run they equal
// what Device.Run would have reported.
func (r *LaunchRun) Stats() LaunchStats { return r.stats }

// Err returns the run's final error (nil until it has completed or trapped).
func (r *LaunchRun) Err() error { return r.err }

// SetBudget gives the run the budget of a launch that began with Budget b
// (0: DefaultBudget): what its from-scratch twin would have left at the
// run's position. The restore path uses it, since a snapshot carries the
// budget of the run that took it. It fails if the run is already past b.
func (r *LaunchRun) SetBudget(b uint64) error {
	b, done := launchBudget(b), r.stats.WarpInstrs
	if b <= done {
		return fmt.Errorf("gpu: budget %d is spent %d warp instructions into the launch", b, done)
	}
	r.budget.remaining = int64(b - done)
	return nil
}

// SetExecKernel swaps the kernel the remaining instructions execute
// through — the hook that attaches instrumentation to a run restored
// mid-launch. The replacement must carry the same instruction stream; it is
// validated by kernel name and instruction count because the restored
// module may be a different (content-identical) decode of the same kernel.
func (r *LaunchRun) SetExecKernel(ek *ExecKernel) error {
	cur := r.launch.Kernel.K
	if ek == nil || ek.K == nil || ek.K.Name != cur.Name || len(ek.K.Instrs) != len(cur.Instrs) {
		return fmt.Errorf("gpu: SetExecKernel: kernel does not match the in-flight launch")
	}
	r.launch.Kernel = ek
	// The replacement may be a different decode or an instrumented rewrite of
	// the kernel: re-derive the plan from the new content (cache hit when the
	// content is unchanged).
	r.plan = r.dev.planFor(ek.K)
	if r.blk != nil {
		// The in-flight block's operand rows are numbered by the plan.
		r.blk.ek = ek
		r.blk.setPlan(r.plan)
		r.blk.fillUniforms(true)
	}
	return nil
}

func blockIdxOf(lin int, g Dim3) Dim3 {
	return Dim3{X: lin % g.X, Y: (lin / g.X) % g.Y, Z: lin / (g.X * g.Y)}
}

// Snapshot is an immutable copy of a device's full architectural state —
// global memory (copy-on-write: clean pages are shared with the live
// device and all forks), SM clocks, the device log, and, when taken
// mid-launch via LaunchRun.Snapshot, the in-flight launch's warp, divergence
// and scheduler state. Restoring it onto a fresh device reproduces the
// device bit for bit.
type Snapshot struct {
	family sass.Family
	numSMs int
	mem    *memSnap
	clocks []uint64
	log    []LogEvent
	launch *launchSnap
}

type launchSnap struct {
	kernel      *sass.Kernel
	grid, block Dim3
	sharedBytes int
	params      []uint32
	budget      int64
	stats       LaunchStats
	blockLin    int
	blk         *blockSnap
}

type blockSnap struct {
	resumeWarp int
	shared     []byte
	warps      []warp
}

// copyWarp deep-copies src's state into dst (a plain struct copy would alias
// the local and stack slices, which keep mutating on the live warp), reusing
// the lane buffers dst already owns. dst must be clean where src holds no
// buffer (a new warp, or one just reset); src's laneMem flag comes along with
// the struct, so whatever is copied in is swept when dst is next reset.
func copyWarp(dst, src *warp) {
	local, stack := dst.local, dst.stack
	*dst = *src
	for lane := 0; lane < WarpSize; lane++ {
		if src.local[lane] != nil {
			local[lane] = append(local[lane][:0], src.local[lane]...)
		}
		if src.stack[lane] != nil {
			stack[lane] = append(stack[lane][:0], src.stack[lane]...)
		}
	}
	dst.local, dst.stack = local, stack
}

// Snapshot captures the device's architectural state between launches.
func (d *Device) Snapshot() *Snapshot { return d.snapshotWith(nil) }

// Snapshot captures the device state plus the run's exact in-launch
// position. Valid only while the run is paused (not finished); the
// resulting snapshot can be restored any number of times, concurrently.
func (r *LaunchRun) Snapshot() (*Snapshot, error) {
	if r.finished {
		return nil, fmt.Errorf("gpu: snapshot of a finished launch")
	}
	return r.dev.snapshotWith(r), nil
}

func (d *Device) snapshotWith(run *LaunchRun) *Snapshot {
	s := &Snapshot{
		family: d.Family,
		numSMs: d.NumSMs,
		mem:    d.Mem.snapshot(),
		clocks: append([]uint64(nil), d.smClocks...),
		log:    append([]LogEvent(nil), d.log...),
	}
	if run == nil {
		return s
	}
	ls := &launchSnap{
		kernel:      run.launch.Kernel.K,
		grid:        run.launch.Grid,
		block:       run.launch.Block,
		sharedBytes: run.launch.SharedBytes,
		params:      append([]uint32(nil), run.launch.Params...),
		budget:      run.budget.remaining,
		stats:       run.stats,
		blockLin:    run.blockLin,
	}
	if blk := run.blk; blk != nil {
		bs := &blockSnap{
			resumeWarp: blk.resumeWarp,
			shared:     append([]byte(nil), blk.shared...),
			warps:      make([]warp, len(blk.warps)),
		}
		for i, w := range blk.warps {
			copyWarp(&bs.warps[i], w)
		}
		ls.blk = bs
	}
	s.launch = ls
	return s
}

// Restore replaces the device's state with the snapshot's. The receiver
// must match the snapshot's family and SM count (normally a fresh
// NewDevice). When the snapshot was taken mid-launch, the restored run is
// returned paused at the identical warp-instruction boundary — resuming it
// executes exactly the instructions the snapshotted run would have.
// Restore only reads the snapshot, so many forks can restore from one
// snapshot concurrently.
func (d *Device) Restore(s *Snapshot) (*LaunchRun, error) {
	if d.Family != s.family || d.NumSMs != s.numSMs {
		return nil, fmt.Errorf("gpu: restore of a %v/%d-SM snapshot onto a %v/%d-SM device",
			s.family, s.numSMs, d.Family, d.NumSMs)
	}
	d.Mem = s.mem.restore()
	copy(d.smClocks, s.clocks)
	d.log = append([]LogEvent(nil), s.log...)
	if s.launch == nil {
		return nil, nil
	}
	ls := s.launch
	r := d.resetRun()
	r.params = append(r.params, ls.params...)
	r.ek.K = ls.kernel
	r.launch = Launch{
		Kernel:      &r.ek,
		Grid:        ls.grid,
		Block:       ls.block,
		SharedBytes: ls.sharedBytes,
		Params:      r.params,
	}
	r.stats = ls.stats
	r.blockLin = ls.blockLin
	r.arm(ls.budget)
	if bs := ls.blk; bs != nil {
		blk := r.claim()
		blk.bind(r.blockLin)
		r.blk = blk
		if len(blk.warps) != len(bs.warps) {
			r.Close()
			return nil, fmt.Errorf("gpu: restore rebuilt %d warps, snapshot has %d", len(blk.warps), len(bs.warps))
		}
		copy(blk.shared, bs.shared)
		for i := range bs.warps {
			copyWarp(blk.warps[i], &bs.warps[i])
			// The snapshot's split list and scheduler mode belong to the
			// device that took it. The per-lane PCs are authoritative at
			// every snapshot boundary, so drop the cache and let this
			// device's scheduler rebuild from them — which also makes
			// snapshots portable across scheduler modes.
			blk.warps[i].scanSched = d.LegacySched
			blk.warps[i].splitsOK = false
		}
		blk.resumeWarp = bs.resumeWarp
	}
	return r, nil
}

// fnv-1a 64-bit parameters.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

type digester struct{ h uint64 }

func newDigester() digester { return digester{h: fnvOffset} }

func (d *digester) byte(b byte) { d.h = (d.h ^ uint64(b)) * fnvPrime }

func (d *digester) bytes(p []byte) {
	h := d.h
	for _, b := range p {
		h = (h ^ uint64(b)) * fnvPrime
	}
	d.h = h
}

func (d *digester) u32(v uint32) {
	d.byte(byte(v))
	d.byte(byte(v >> 8))
	d.byte(byte(v >> 16))
	d.byte(byte(v >> 24))
}

// zeros hashes n zero bytes. Each one is h = (h^0)*prime, so the run is a
// single multiply by prime^n — bit-identical to n byte steps.
func (d *digester) zeros(n int) {
	f, p := uint64(1), fnvPrime
	for ; n > 0; n >>= 1 {
		if n&1 != 0 {
			f *= p
		}
		p *= p
	}
	d.h *= f
}

func (d *digester) u64(v uint64) {
	d.u32(uint32(v))
	d.u32(uint32(v >> 32))
}

func (d *digester) bool(v bool) {
	if v {
		d.byte(1)
	} else {
		d.byte(0)
	}
}

func allZeroBytes(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// Digest hashes the device's architectural state between launches. See
// LaunchRun.Digest for the guarantees.
func (d *Device) Digest() uint64 { return d.digestWith(nil) }

// Digest returns a 64-bit FNV-1a hash of the full architectural state: all
// of global memory, SM clocks, device-log length, and the in-flight
// launch's warp state (registers and predicates of every existing lane,
// per-lane PCs, divergence and call-stack state, shared and local memory,
// scheduler position). Representation caches hash as their architectural
// values — the converged fast path's stale per-lane PCs hash as the shared
// convPC, never-written memory pages and never-touched local windows hash
// the same as explicitly zeroed ones — so two runs in identical
// architectural states at the same execution position digest equally and,
// from there on, evolve identically. Equal digests at aligned boundaries
// are what licenses early-exit Masked classification; a hash collision is
// the only unsoundness, at FNV-64 odds. Modeled time (budget remaining,
// LaunchStats, trampoline accounting) is deliberately excluded: a restored
// experiment and the golden recording run carry different budgets and tool
// overhead while being architecturally identical.
func (r *LaunchRun) Digest() uint64 { return r.dev.digestWith(r) }

func (d *Device) digestWith(run *LaunchRun) uint64 {
	dg := newDigester()
	dg.u32(d.Mem.next)
	dg.u32(uint32(len(d.Mem.allocs)))
	for i := range d.Mem.allocs {
		a := &d.Mem.allocs[i]
		dg.u32(a.base)
		dg.u32(a.size)
		for pg := range a.pages {
			p := a.pages[pg]
			if p == nil || allZeroBytes(p) {
				dg.byte(0)
				continue
			}
			dg.byte(1)
			dg.bytes(p)
		}
	}
	for _, c := range d.smClocks {
		dg.u64(c)
	}
	dg.u32(uint32(len(d.log)))
	if run == nil {
		return dg.h
	}
	dg.u32(uint32(run.blockLin))
	blk := run.blk
	if blk == nil {
		return dg.h
	}
	dg.u32(uint32(blk.resumeWarp))
	dg.bytes(blk.shared)
	for _, w := range blk.warps {
		dg.u32(w.liveMask)
		dg.u32(w.exitedMask)
		dg.bool(w.barWait)
		dg.bool(w.done)
		if w.done {
			continue
		}
		active := w.activeMask()
		for lane := 0; lane < WarpSize; lane++ {
			bit := uint32(1) << uint(lane)
			if w.liveMask&bit == 0 {
				continue
			}
			// Registers and predicates of every existing lane: exited
			// lanes' values are still observable through cross-lane ops.
			// The visiting order (lane outer, register inner) is the
			// digest's canonical form, deliberately not the storage
			// order: digests are comparable across engine versions.
			// Rows at or above dirtyRegs are zero by invariant: hash them
			// as one run instead of walking them.
			dirty := int(w.dirtyRegs)
			for reg := 0; reg < dirty; reg++ {
				dg.u32(w.regs[reg][lane])
			}
			dg.zeros(4 * (sass.NumRegs - dirty))
			for p := 0; p < sass.NumPreds; p++ {
				dg.bool(w.preds[p]&bit != 0)
			}
			if active&bit == 0 {
				continue
			}
			if w.converged {
				dg.u32(uint32(w.convPC))
			} else {
				dg.u32(uint32(w.pc[lane]))
			}
			dg.u32(uint32(len(w.stack[lane])))
			for _, v := range w.stack[lane] {
				dg.u32(uint32(v))
			}
			if loc := w.local[lane]; loc != nil && !allZeroBytes(loc) {
				dg.byte(1)
				dg.bytes(loc)
			} else {
				dg.byte(0)
			}
		}
	}
	return dg.h
}
