package cuda

import (
	"bytes"
	"fmt"
	"math"

	"repro/internal/gpu"
)

// This file is the driver-level half of the checkpoint-and-fork experiment
// engine. A recording context runs the workload once (the golden trajectory),
// journals every driver call with its result, and drops device snapshots at a
// fixed global warp-instruction stride. A replaying context then re-runs the
// same workload host code but:
//
//   - short-circuits every driver call before the chosen restore point,
//     feeding back the recorded results (the host code cannot tell the
//     difference, because the golden run is deterministic);
//   - restores the device snapshot mid-launch at the restore point and
//     resumes real execution there, with the experiment's instrumentation
//     attached to the in-flight launch;
//   - after the fault has fired, compares a state digest against the
//     recorded trajectory at every later checkpoint boundary, and on a match
//     declares the run re-converged: the remaining calls short-circuit to
//     the recorded results (early exit).
//
// Soundness of the early exit rests on two observations. First, the digest
// covers the full architectural state at an exact dynamic warp-instruction
// boundary, so equal digests at the same boundary mean the two executions
// are bit-identical from there on. Second, host-visible divergence before
// the match (a DtoH that returned corrupted bytes, a trap, an allocation at
// a different address, any call sequence drift) permanently disables the
// early exit — the mismatch flag — because recorded suffix results are only
// valid if the host state matches the recording too.

// callKind discriminates journaled driver calls.
type callKind uint8

const (
	callMalloc callKind = iota
	callFree
	callHtoD
	callDtoH
	callLaunch
)

func (k callKind) String() string {
	switch k {
	case callMalloc:
		return "cuMemAlloc"
	case callFree:
		return "cuMemFree"
	case callHtoD:
		return "cuMemcpyHtoD"
	case callDtoH:
		return "cuMemcpyDtoH"
	case callLaunch:
		return "cuLaunchKernel"
	}
	return "unknown"
}

// traceCall is one journaled driver call with its recorded result.
type traceCall struct {
	kind  callKind
	size  int             // malloc: requested size; memcpy: byte count
	ptr   DevPtr          // malloc: result; free/memcpy: target address
	data  []byte          // dtoh: the bytes returned
	fn    string          // launch: kernel name
	stats gpu.LaunchStats // launch: execution counts
}

// Checkpoint is one device snapshot on the golden trajectory, taken at an
// exact global warp-instruction boundary (a multiple of the stride), which
// always falls inside some launch.
type Checkpoint struct {
	Global      uint64 // global warp-instruction position across all launches
	CallIdx     int    // index of the enclosing launch in the call journal
	LaunchLocal uint64 // warp instructions into that launch
	Kernel      string // kernel name of the enclosing launch

	digest    uint64        // state digest at this boundary
	snap      *gpu.Snapshot // full architectural snapshot (COW memory)
	instrExec []uint64      // launch-local thread executions per static instruction
}

// Trace is a recorded golden trajectory: the driver-call journal, the
// checkpoints, and the end state needed to finish a replay that exits early.
type Trace struct {
	calls    []traceCall
	ckpts    []*Checkpoint
	stride   uint64
	finalLog []gpu.LogEvent
	failed   error // first recording anomaly; a failed trace is unusable
}

// Checkpoints returns the number of snapshots the trace carries.
func (t *Trace) Checkpoints() int { return len(t.ckpts) }

// Stride returns the global warp-instruction checkpoint stride.
func (t *Trace) Stride() uint64 { return t.stride }

// Calls returns the number of journaled driver calls.
func (t *Trace) Calls() int { return len(t.calls) }

// ReplayPlan tells a replaying context where to restore and when early exit
// is allowed.
type ReplayPlan struct {
	// RestoreCall is the journal index of the launch to restore into;
	// -1 runs everything live (no usable checkpoint before the fault).
	RestoreCall int
	// Ckpt is the snapshot to restore (nil iff RestoreCall < 0).
	Ckpt *Checkpoint
	// FaultCall is the journal index of the launch the fault targets;
	// -1 when the target launch does not exist in the trace (the fault can
	// never activate). Early-exit probing starts at this call.
	FaultCall int
	// CounterBase primes the injector's eligible-execution counter with the
	// executions of the target static instruction that happened before the
	// checkpoint (site-resolved selections only).
	CounterBase uint64
	// Probe reports whether the fault has fired; digests are only compared
	// after it returns true. Nil disables early exit.
	Probe func() bool
	// NoEarlyExit disables digest comparison (checkpointed restore only).
	NoEarlyExit bool
}

// PlanRestore chooses the latest usable checkpoint for a site-resolved
// transient injection into the kernelCount-th launch of kernelName, with
// instrCount counting eligible executions of static instruction
// staticInstrIdx. A checkpoint is usable if it lies strictly before the
// target launch, or inside it but before the target dynamic execution.
// threadMode restricts to pre-launch checkpoints (per-thread counting is
// not reconstructible from the aggregate execution tallies).
func (t *Trace) PlanRestore(kernelName string, kernelCount, staticInstrIdx int, instrCount uint64, threadMode bool) ReplayPlan {
	plan := ReplayPlan{RestoreCall: -1, FaultCall: -1}
	seen := 0
	for i, call := range t.calls {
		if call.kind != callLaunch || call.fn != kernelName {
			continue
		}
		if seen == kernelCount {
			plan.FaultCall = i
			break
		}
		seen++
	}
	if plan.FaultCall < 0 {
		return plan
	}
	for _, ck := range t.ckpts {
		switch {
		case ck.CallIdx < plan.FaultCall:
			plan.RestoreCall = ck.CallIdx
			plan.Ckpt = ck
			plan.CounterBase = 0
		case ck.CallIdx == plan.FaultCall && !threadMode &&
			staticInstrIdx >= 0 && staticInstrIdx < len(ck.instrExec) &&
			ck.instrExec[staticInstrIdx] <= instrCount:
			plan.RestoreCall = ck.CallIdx
			plan.Ckpt = ck
			plan.CounterBase = ck.instrExec[staticInstrIdx]
		}
	}
	return plan
}

// recorder is the recording-mode state hung off a Context.
type recorder struct {
	trace  *Trace
	global uint64 // warp instructions across completed launches
}

// StartRecording puts the context in recording mode: every driver call is
// journaled and executed for real, and launches drop checkpoints at global
// warp-instruction multiples of stride (0 disables checkpointing but still
// journals).
func (c *Context) StartRecording(stride uint64) error {
	if c.rec != nil || c.rep != nil {
		return fmt.Errorf("cuda: context already recording or replaying")
	}
	c.rec = &recorder{trace: &Trace{stride: stride}}
	return nil
}

// FinishRecording leaves recording mode and returns the trace. It fails if
// any recorded call misbehaved (errored, trapped) — such a trajectory is
// not a golden run and cannot anchor replays.
func (c *Context) FinishRecording() (*Trace, error) {
	rec := c.rec
	if rec == nil {
		return nil, fmt.Errorf("cuda: context is not recording")
	}
	c.rec = nil
	t := rec.trace
	t.finalLog = append([]gpu.LogEvent(nil), c.dev.LogEvents()...)
	if t.failed != nil {
		return nil, fmt.Errorf("cuda: recording unusable: %w", t.failed)
	}
	return t, nil
}

func (rec *recorder) fail(format string, args ...any) {
	if rec.trace.failed == nil {
		rec.trace.failed = fmt.Errorf(format, args...)
	}
}

// replayer is the replay-mode state hung off a Context.
type replayer struct {
	trace *Trace
	plan  ReplayPlan
	pos   int // index of the next journaled call

	restored    bool
	earlyExited bool
	mismatch    bool  // host-visible divergence from the recording
	err         error // fatal replay error (pre-restore divergence)
}

// BeginReplay puts the context in replay mode against a recorded trace.
// The context must be fresh: nothing loaded, nothing allocated, nothing
// launched.
func (c *Context) BeginReplay(t *Trace, plan ReplayPlan) error {
	if c.rec != nil || c.rep != nil {
		return fmt.Errorf("cuda: context already recording or replaying")
	}
	if t == nil || t.failed != nil {
		return fmt.Errorf("cuda: replay of an unusable trace")
	}
	if (plan.RestoreCall >= 0) != (plan.Ckpt != nil) {
		return fmt.Errorf("cuda: replay plan restore call and checkpoint disagree")
	}
	c.rep = &replayer{trace: t, plan: plan}
	return nil
}

// ReplayRestored reports whether the replay restored from a checkpoint.
func (c *Context) ReplayRestored() bool { return c.rep != nil && c.rep.restored }

// ReplayEarlyExited reports whether the replay re-converged with the golden
// trajectory and exited early.
func (c *Context) ReplayEarlyExited() bool { return c.rep != nil && c.rep.earlyExited }

// ReplayErr returns the fatal replay error, if any: the workload's driver
// calls diverged from the recording before the restore point, so the replay
// is meaningless and the experiment must be re-run from scratch.
func (c *Context) ReplayErr() error {
	if c.rep == nil {
		return nil
	}
	return c.rep.err
}

// replayDivergence marks a fatal pre-restore divergence: the workload did
// not repeat the recorded call sequence, so the snapshot does not describe
// this execution. Every subsequent call fails with the same error.
func (rep *replayer) replayDivergence(got string, want *traceCall) error {
	if rep.err == nil {
		wantS := "end of journal"
		if want != nil {
			wantS = want.kind.String()
		}
		rep.err = fmt.Errorf("cuda: replay diverged at call %d: workload issued %s, recording has %s",
			rep.pos, got, wantS)
	}
	return rep.err
}

// next returns the journaled call at the current position, advancing it.
func (rep *replayer) next() *traceCall {
	if rep.pos >= len(rep.trace.calls) {
		return nil
	}
	call := &rep.trace.calls[rep.pos]
	rep.pos++
	return call
}

// shortCircuit reports whether the current call must be served from the
// journal instead of executed: before the restore point, or after an early
// exit.
func (rep *replayer) shortCircuit() bool {
	if rep.earlyExited {
		return true
	}
	return rep.pos < rep.plan.RestoreCall
}

// live reports whether replay bookkeeping still matters for real execution
// (boundary probing and mismatch tracking).
func (rep *replayer) live() bool { return !rep.earlyExited && rep.err == nil }

// recMalloc journals a real allocation.
func (c *Context) recMalloc(size int) (DevPtr, error) {
	rec := c.rec
	if c.sticky != Success {
		rec.fail("cuMemAlloc on a poisoned context")
		return 0, c.sticky
	}
	p, err := c.dev.Mem.Alloc(size)
	if err != nil {
		rec.fail("cuMemAlloc(%d): %v", size, err)
		return 0, fmt.Errorf("cuMemAlloc: %w", err)
	}
	rec.trace.calls = append(rec.trace.calls, traceCall{kind: callMalloc, size: size, ptr: p})
	return p, nil
}

// repMalloc serves or verifies an allocation during replay.
func (c *Context) repMalloc(size int) (DevPtr, error) {
	rep := c.rep
	if rep.err != nil {
		return 0, rep.err
	}
	if rep.shortCircuit() {
		call := rep.next()
		if call == nil || call.kind != callMalloc || call.size != size {
			return 0, rep.replayDivergence(fmt.Sprintf("cuMemAlloc(%d)", size), call)
		}
		return call.ptr, nil
	}
	call := rep.next()
	if c.sticky != Success {
		rep.mismatch = true
		return 0, c.sticky
	}
	p, err := c.dev.Mem.Alloc(size)
	if err != nil {
		rep.mismatch = true
		return 0, fmt.Errorf("cuMemAlloc: %w", err)
	}
	if rep.live() && (call == nil || call.kind != callMalloc || call.ptr != p) {
		rep.mismatch = true
	}
	return p, nil
}

// recFree journals a real free.
func (c *Context) recFree(p DevPtr) error {
	if err := c.dev.Mem.Free(p); err != nil {
		c.rec.fail("cuMemFree(0x%x): %v", p, err)
		return fmt.Errorf("cuMemFree: %w", err)
	}
	c.rec.trace.calls = append(c.rec.trace.calls, traceCall{kind: callFree, ptr: p})
	return nil
}

// repFree serves or verifies a free during replay.
func (c *Context) repFree(p DevPtr) error {
	rep := c.rep
	if rep.err != nil {
		return rep.err
	}
	if rep.shortCircuit() {
		call := rep.next()
		if call == nil || call.kind != callFree || call.ptr != p {
			return rep.replayDivergence(fmt.Sprintf("cuMemFree(0x%x)", p), call)
		}
		return nil
	}
	call := rep.next()
	if rep.live() && (call == nil || call.kind != callFree || call.ptr != p) {
		rep.mismatch = true
	}
	if err := c.dev.Mem.Free(p); err != nil {
		rep.mismatch = true
		return fmt.Errorf("cuMemFree: %w", err)
	}
	return nil
}

// recHtoD journals a real host-to-device copy.
func (c *Context) recHtoD(dst DevPtr, src []byte) error {
	rec := c.rec
	if c.sticky != Success {
		rec.fail("cuMemcpyHtoD on a poisoned context")
		return c.sticky
	}
	if err := c.dev.Mem.WriteBytes(dst, src); err != nil {
		rec.fail("cuMemcpyHtoD(0x%x, %d): %v", dst, len(src), err)
		return err
	}
	rec.trace.calls = append(rec.trace.calls, traceCall{kind: callHtoD, ptr: dst, size: len(src)})
	return nil
}

// repHtoD serves or verifies a host-to-device copy during replay. The copied
// bytes are not compared against the recording — the snapshot already holds
// their effect — only the call shape is.
func (c *Context) repHtoD(dst DevPtr, src []byte) error {
	rep := c.rep
	if rep.err != nil {
		return rep.err
	}
	if rep.shortCircuit() {
		call := rep.next()
		if call == nil || call.kind != callHtoD || call.ptr != dst || call.size != len(src) {
			return rep.replayDivergence(fmt.Sprintf("cuMemcpyHtoD(0x%x, %d)", dst, len(src)), call)
		}
		return nil
	}
	call := rep.next()
	if rep.live() && (call == nil || call.kind != callHtoD || call.ptr != dst || call.size != len(src)) {
		rep.mismatch = true
	}
	if c.sticky != Success {
		rep.mismatch = true
		return c.sticky
	}
	return c.dev.Mem.WriteBytes(dst, src)
}

// recDtoH journals a real device-to-host copy, including the returned bytes
// (they are the recorded results fed back during replay short-circuits).
func (c *Context) recDtoH(src DevPtr, n int) ([]byte, error) {
	rec := c.rec
	if c.sticky != Success {
		rec.fail("cuMemcpyDtoH on a poisoned context")
		return nil, c.sticky
	}
	b, err := c.dev.Mem.ReadBytes(src, n)
	if err != nil {
		rec.fail("cuMemcpyDtoH(0x%x, %d): %v", src, n, err)
		return nil, err
	}
	rec.trace.calls = append(rec.trace.calls,
		traceCall{kind: callDtoH, ptr: src, size: n, data: append([]byte(nil), b...)})
	return b, nil
}

// repDtoH serves or verifies a device-to-host copy during replay. In the
// live phase the real bytes are returned to the host, and any difference
// from the recording disables early exit: the host has observed corrupted
// data, so its state can no longer be assumed to match the recording.
func (c *Context) repDtoH(src DevPtr, n int) ([]byte, error) {
	rep := c.rep
	if rep.err != nil {
		return nil, rep.err
	}
	if rep.shortCircuit() {
		call := rep.next()
		if call == nil || call.kind != callDtoH || call.ptr != src || call.size != n {
			return nil, rep.replayDivergence(fmt.Sprintf("cuMemcpyDtoH(0x%x, %d)", src, n), call)
		}
		return append([]byte(nil), call.data...), nil
	}
	call := rep.next()
	if c.sticky != Success {
		rep.mismatch = true
		return nil, c.sticky
	}
	b, err := c.dev.Mem.ReadBytes(src, n)
	if err != nil {
		rep.mismatch = true
		return nil, err
	}
	if rep.live() {
		if call == nil || call.kind != callDtoH || call.ptr != src || call.size != n {
			rep.mismatch = true
		} else if !bytes.Equal(call.data, b) {
			rep.mismatch = true
		}
	}
	return b, nil
}

// resolveBudget applies the launch-budget defaulting chain exactly as
// gpu.Device.Run would.
func (c *Context) resolveBudget(cfg LaunchConfig) uint64 {
	b := cfg.Budget
	if b == 0 {
		b = c.defaultBudget
	}
	if b == 0 {
		b = gpu.DefaultBudget
	}
	if b > math.MaxInt64 {
		b = math.MaxInt64
	}
	return b
}

// finishLaunch is the post-execution tail of every launch path: stats
// accumulation, trap poisoning, subscriber completion.
func (c *Context) finishLaunch(ev *LaunchEvent, f *Function, stats gpu.LaunchStats, err error) error {
	ev.Stats = stats
	c.total.WarpInstrs += stats.WarpInstrs
	c.total.ThreadInstrs += stats.ThreadInstrs
	c.total.TrampolineInstrs += stats.TrampolineInstrs
	c.total.Blocks += stats.Blocks
	if err != nil {
		if t, ok := gpu.AsTrap(err); ok {
			ev.Trap = t
			c.poison(t)
		} else {
			for _, s := range c.subscribers {
				s.OnLaunchEnd(ev)
			}
			return fmt.Errorf("cuLaunchKernel %q: %w", f.k.Name, err)
		}
	}
	for _, s := range c.subscribers {
		s.OnLaunchEnd(ev)
	}
	return nil
}

// launchRecorded runs a launch for real on a recording context, pausing at
// every global stride boundary to snapshot.
func (c *Context) launchRecorded(ev *LaunchEvent, f *Function, cfg LaunchConfig) error {
	rec := c.rec
	callIdx := len(rec.trace.calls)
	r, err := c.dev.BeginRun(c.deviceLaunch(ev.Exec, cfg, c.resolveBudget(cfg)))
	if err != nil {
		rec.fail("cuLaunchKernel %q: %v", f.k.Name, err)
		for _, s := range c.subscribers {
			s.OnLaunchEnd(ev)
		}
		return fmt.Errorf("cuLaunchKernel %q: %w", f.k.Name, err)
	}
	r.EnableInstrExecCounts()
	stride := rec.trace.stride
	var runErr error
	for {
		pauseIn := int64(-1)
		if stride > 0 {
			cur := rec.global + r.Stats().WarpInstrs
			pauseIn = int64((cur/stride+1)*stride - cur)
		}
		paused, err := r.Resume(pauseIn)
		if !paused {
			runErr = err
			break
		}
		snap, err := r.Snapshot()
		if err != nil {
			rec.fail("snapshot at launch %d: %v", callIdx, err)
			continue
		}
		local := r.Stats().WarpInstrs
		rec.trace.ckpts = append(rec.trace.ckpts, &Checkpoint{
			Global:      rec.global + local,
			CallIdx:     callIdx,
			LaunchLocal: local,
			Kernel:      f.k.Name,
			digest:      r.Digest(),
			snap:        snap,
			instrExec:   threadCounts(r.InstrExecCounts()),
		})
	}
	stats := r.Stats()
	rec.global += stats.WarpInstrs
	if runErr != nil {
		rec.fail("cuLaunchKernel %q: %v", f.k.Name, runErr)
	}
	rec.trace.calls = append(rec.trace.calls,
		traceCall{kind: callLaunch, fn: f.k.Name, stats: stats})
	return c.finishLaunch(ev, f, stats, runErr)
}

// threadCounts copies the thread-level counts out of a run's tally.
func threadCounts(tally []gpu.SiteTally) []uint64 {
	out := make([]uint64, len(tally))
	for i := range tally {
		out[i] = tally[i].Threads
	}
	return out
}

// launchReplayed handles a launch on a replaying context: short-circuit,
// restore-and-resume, or live with early-exit probing.
func (c *Context) launchReplayed(ev *LaunchEvent, f *Function, cfg LaunchConfig) error {
	rep := c.rep
	if rep.err != nil {
		return rep.err
	}

	// Short-circuit phase: the launch "happens" with its recorded results.
	// Subscribers still see begin/end so instance counting (and therefore
	// injector arming) stays aligned with the recording.
	if rep.shortCircuit() {
		call := rep.next()
		if call == nil || call.kind != callLaunch || call.fn != f.k.Name {
			return rep.replayDivergence(fmt.Sprintf("cuLaunchKernel %q", f.k.Name), call)
		}
		for _, s := range c.subscribers {
			s.OnLaunchBegin(ev)
		}
		return c.finishLaunch(ev, f, call.stats, nil)
	}

	restoreHere := rep.pos == rep.plan.RestoreCall && !rep.restored
	callIdx := rep.pos
	call := rep.next()
	if rep.live() && (call == nil || call.kind != callLaunch || call.fn != f.k.Name) {
		if restoreHere {
			// The restore target itself diverged: the checkpoint does not
			// describe this execution.
			return rep.replayDivergence(fmt.Sprintf("cuLaunchKernel %q", f.k.Name), call)
		}
		rep.mismatch = true
	}
	if c.sticky != Success {
		rep.mismatch = true
		ev.Skipped = true
		for _, s := range c.subscribers {
			s.OnLaunchEnd(ev)
		}
		return c.sticky
	}

	for _, s := range c.subscribers {
		s.OnLaunchBegin(ev)
	}

	var r *gpu.LaunchRun
	var err error
	budget := c.resolveBudget(cfg)
	if restoreHere {
		ck := rep.plan.Ckpt
		if budget <= ck.LaunchLocal {
			return rep.replayDivergence(
				fmt.Sprintf("cuLaunchKernel %q with budget %d below checkpoint offset %d",
					f.k.Name, budget, ck.LaunchLocal), call)
		}
		r, err = c.dev.Restore(ck.snap)
		if err == nil && r == nil {
			err = fmt.Errorf("checkpoint holds no in-flight launch")
		}
		if err == nil {
			err = r.SetExecKernel(ev.Exec)
		}
		if err != nil {
			if rep.err == nil {
				rep.err = fmt.Errorf("cuda: restore at call %d: %w", callIdx, err)
			}
			return rep.err
		}
		r.SetBudgetRemaining(int64(budget - ck.LaunchLocal))
		rep.restored = true
	} else {
		r, err = c.dev.BeginRun(c.deviceLaunch(ev.Exec, cfg, budget))
		if err != nil {
			rep.mismatch = true
			for _, s := range c.subscribers {
				s.OnLaunchEnd(ev)
			}
			return fmt.Errorf("cuLaunchKernel %q: %w", f.k.Name, err)
		}
	}

	// Early-exit probing: pause at this launch's recorded checkpoint
	// boundaries once the fault can have fired, and compare digests.
	probing := rep.live() && !rep.plan.NoEarlyExit && rep.plan.Probe != nil &&
		rep.plan.FaultCall >= 0 && callIdx >= rep.plan.FaultCall
	var runErr error
	for {
		var boundary *Checkpoint
		if probing && !rep.mismatch {
			local := r.Stats().WarpInstrs
			for _, ck := range rep.trace.ckpts {
				if ck.CallIdx == callIdx && ck.LaunchLocal > local {
					boundary = ck
					break
				}
			}
		}
		pauseIn := int64(-1)
		if boundary != nil {
			pauseIn = int64(boundary.LaunchLocal - r.Stats().WarpInstrs)
		}
		paused, err := r.Resume(pauseIn)
		if !paused {
			runErr = err
			break
		}
		if boundary == nil || rep.mismatch || !rep.plan.Probe() {
			continue
		}
		if r.Digest() == boundary.digest {
			// Re-converged with the golden trajectory at an identical
			// boundary: the rest of this execution is the recording.
			r.Close()
			rep.earlyExited = true
			c.dev.SetLog(rep.trace.finalLog)
			var stats gpu.LaunchStats
			if call != nil {
				stats = call.stats
			}
			return c.finishLaunch(ev, f, stats, nil)
		}
	}
	if rep.live() {
		if runErr != nil {
			rep.mismatch = true
		} else if call != nil && call.stats.WarpInstrs != r.Stats().WarpInstrs {
			// The launch executed a different instruction count than the
			// recording: architecturally fine, but the trajectories have
			// diverged for good as far as boundary alignment is concerned.
			rep.mismatch = true
		}
	}
	return c.finishLaunch(ev, f, r.Stats(), runErr)
}
