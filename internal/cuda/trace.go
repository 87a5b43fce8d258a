package cuda

import (
	"bytes"
	"fmt"
	"slices"

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
//
// Recording and replaying are not separate copies of the driver: both are a
// journal the context's one body per driver call consults (see journal).

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

// traceCall is one driver call with its results: what every call hands the
// journal, and what a recording keeps of it.
type traceCall struct {
	kind        callKind
	size        int             // malloc: requested size; memcpy: byte count; launch: shared bytes
	ptr         DevPtr          // malloc: result; free/memcpy: target address
	data        []byte          // dtoh: the bytes returned
	fn          string          // launch: kernel name
	grid, block gpu.Dim3        // launch: the configuration
	params      []uint32        // launch: the parameter words
	stats       gpu.LaunchStats // launch: execution counts
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
	calls []traceCall
	// words holds every recorded launch's parameter words back to back;
	// each call keeps a capped subslice of it (keepWords).
	words    []uint32
	ckpts    []*Checkpoint
	stride   uint64
	finalLog []gpu.LogEvent
	failed   error // first recording anomaly; a failed trace is unusable
}

// Checkpoints returns the number of snapshots the trace carries.
func (t *Trace) Checkpoints() int { return len(t.ckpts) }

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

// journal is a recording or replaying context's driver-call journal; a plain
// context has none (Context.j is nil, and the methods the driver calls make —
// serve, note, restore, started, pauseIn — do nothing on a nil journal). Each driver call is written once, for all three kinds of
// context: it describes itself as a traceCall, asks serve whether the journal
// answers it, runs for real otherwise, and hands its outcome to note. A
// launch also takes its pause points (pauseIn) and what to do at a pause
// (paused) from here.
type journal struct {
	trace  *Trace
	replay bool // a replaying journal; else a recording one

	// Recording: warp instructions across completed launches.
	global uint64

	// Replaying.
	plan        ReplayPlan
	pos         int // index of the next journaled call
	restored    bool
	earlyExited bool
	mismatch    bool  // host-visible divergence from the recording
	err         error // fatal replay error (pre-restore divergence)
	// probing says whether the launch in flight compares digests at its
	// recorded checkpoints, and boundary is the one it pauses at next.
	probing  bool
	boundary *Checkpoint
}

// String describes the call as the workload issued it.
func (r *traceCall) String() string {
	switch r.kind {
	case callMalloc:
		return fmt.Sprintf("cuMemAlloc(%d)", r.size)
	case callFree:
		return fmt.Sprintf("cuMemFree(0x%x)", r.ptr)
	case callHtoD, callDtoH:
		return fmt.Sprintf("%v(0x%x, %d)", r.kind, r.ptr, r.size)
	}
	return fmt.Sprintf("cuLaunchKernel %q", r.fn)
}

// sameRequest reports whether c, issued in the recorded call r's place, is
// the same call with the same arguments — for a launch, the kernel, its grid,
// block and shared bytes and every parameter word. An allocation's address is
// its result, not an argument.
func (r *traceCall) sameRequest(c *traceCall) bool {
	return r.kind == c.kind && r.size == c.size && r.fn == c.fn &&
		(r.kind == callMalloc || r.ptr == c.ptr) &&
		r.grid == c.grid && r.block == c.block && slices.Equal(r.params, c.params)
}

// sameResult reports whether c returned what the recorded call r did: the
// same address, the same bytes, the same launch length.
func (r *traceCall) sameResult(c *traceCall) bool {
	return r.ptr == c.ptr && r.stats.WarpInstrs == c.stats.WarpInstrs && bytes.Equal(r.data, c.data)
}

// StartRecording puts the context in recording mode: every driver call is
// journaled and executed for real, and launches drop checkpoints at global
// warp-instruction multiples of stride (0 disables checkpointing but still
// journals).
func (c *Context) StartRecording(stride uint64) error {
	if c.j != nil {
		return fmt.Errorf("cuda: context already recording or replaying")
	}
	c.j = &journal{trace: &Trace{stride: stride}}
	return nil
}

// FinishRecording leaves recording mode and returns the trace. It fails if
// any recorded call misbehaved (errored, trapped) — such a trajectory is
// not a golden run and cannot anchor replays.
func (c *Context) FinishRecording() (*Trace, error) {
	j := c.j
	if j == nil || j.replay {
		return nil, fmt.Errorf("cuda: context is not recording")
	}
	c.j = nil
	t := j.trace
	t.finalLog = append([]gpu.LogEvent(nil), c.dev.LogEvents()...)
	if t.failed != nil {
		return nil, fmt.Errorf("cuda: recording unusable: %w", t.failed)
	}
	return t, nil
}

func (j *journal) fail(format string, args ...any) {
	if j.trace.failed == nil {
		j.trace.failed = fmt.Errorf(format, args...)
	}
}

// BeginReplay puts the context in replay mode against a recorded trace.
// The context must be fresh: nothing loaded, nothing allocated, nothing
// launched.
func (c *Context) BeginReplay(t *Trace, plan ReplayPlan) error {
	if c.j != nil {
		return fmt.Errorf("cuda: context already recording or replaying")
	}
	if t == nil || t.failed != nil {
		return fmt.Errorf("cuda: replay of an unusable trace")
	}
	if (plan.RestoreCall >= 0) != (plan.Ckpt != nil) {
		return fmt.Errorf("cuda: replay plan restore call and checkpoint disagree")
	}
	c.j = &journal{trace: t, replay: true, plan: plan}
	return nil
}

// ReplayRestored reports whether the replay restored from a checkpoint.
func (c *Context) ReplayRestored() bool { return c.j != nil && c.j.restored }

// ReplayEarlyExited reports whether the replay re-converged with the golden
// trajectory and exited early.
func (c *Context) ReplayEarlyExited() bool { return c.j != nil && c.j.earlyExited }

// ReplayErr returns the fatal replay error, if any: the workload's driver
// calls diverged from the recording before the restore point, so the replay
// is meaningless and the experiment must be re-run from scratch.
func (c *Context) ReplayErr() error {
	if c.j == nil {
		return nil
	}
	return c.j.err
}

// diverge marks a fatal divergence: the workload did not repeat the recorded
// call sequence where the replay relies on it (before the restore point, at
// it, or after an early exit), so the snapshot or the recorded results do not
// describe this execution. Every later call fails with the same error.
func (j *journal) diverge(call, rec *traceCall) error {
	if j.err == nil {
		want := "end of journal"
		if rec != nil {
			want = rec.kind.String()
		}
		j.err = fmt.Errorf("cuda: replay diverged at call %d: workload issued %s, recording has %s",
			j.pos, call.String(), want)
	}
	return j.err
}

// recorded returns the journaled call at the replay's position, nil past the
// end of the journal.
func (j *journal) recorded() *traceCall {
	if j.pos >= len(j.trace.calls) {
		return nil
	}
	return &j.trace.calls[j.pos]
}

// serve answers call from the recording while a replay short-circuits —
// before the restore call, and after an early exit: it fills in the recorded
// results, or fails with the divergence error when the workload issued
// another call, and the driver runs nothing. After a fatal replay error it
// fails every call. Otherwise the call runs, and serve reports false.
func (j *journal) serve(call *traceCall) (served bool, err error) {
	if j == nil || !j.replay {
		return false, nil
	}
	if j.err != nil {
		return true, j.err
	}
	if !j.earlyExited && j.pos >= j.plan.RestoreCall {
		return false, nil
	}
	rec := j.recorded()
	if rec == nil || !rec.sameRequest(call) {
		return true, j.diverge(call, rec)
	}
	j.pos++
	call.ptr, call.stats = rec.ptr, rec.stats
	if call.kind == callDtoH {
		call.data = append([]byte(nil), rec.data...)
	}
	return true, nil
}

// note hands the journal a call the driver ran, with its error: a recording
// journal appends it, or fails the recording when the call failed; a
// replaying one consumes the recorded call in its place, and marks the replay
// mismatched when the call failed or differs from it in arguments or results
// — the host has seen something the recording did not, so recorded results
// can no longer stand in for this execution's.
func (j *journal) note(call *traceCall, err error) {
	switch {
	case j == nil:
	case !j.replay:
		j.global += call.stats.WarpInstrs
		if err != nil {
			j.fail("%s: %v", call.String(), err)
			return
		}
		rec := *call
		// The recorded bytes are the results fed back while a replay
		// short-circuits: the host may write to its own. A launch's
		// parameter words are the context's scratch.
		rec.data, rec.params = bytes.Clone(call.data), j.trace.keepWords(call.params)
		j.trace.calls = append(j.trace.calls, rec)
	case j.err == nil:
		rec := j.recorded()
		j.pos++
		if err != nil || rec == nil || !rec.sameRequest(call) || !rec.sameResult(call) {
			j.mismatch = true
		}
	}
}

// keepWords copies a launch's parameter words to the end of the trace's
// slab and returns the copy, capped so that nothing appends past it. append
// grows the slab by a constant factor, so recording N launches allocates
// O(log N) times for their words; a copy made before a growth stays on the
// old array, which nothing writes again.
func (t *Trace) keepWords(w []uint32) []uint32 {
	n := len(t.words)
	t.words = append(t.words, w...)
	return t.words[n:len(t.words):len(t.words)]
}

// restore starts the launch at the replay's restore call: the checkpoint's
// run, restored mid-launch, continued through the launch's kernel and budget.
// For every other launch it returns nil, nil.
func (j *journal) restore(dev *gpu.Device, call *traceCall, exec *gpu.ExecKernel, budget uint64) (*gpu.LaunchRun, error) {
	if j == nil || !j.replay || j.pos != j.plan.RestoreCall {
		return nil, nil
	}
	if rec := j.recorded(); rec == nil || !rec.sameRequest(call) {
		// The restore target itself diverged: the checkpoint does not
		// describe this execution.
		return nil, j.diverge(call, rec)
	}
	r, err := dev.Restore(j.plan.Ckpt.snap)
	if err == nil && r == nil {
		err = fmt.Errorf("checkpoint holds no in-flight launch")
	}
	if err == nil {
		err = r.SetExecKernel(exec)
	}
	if err == nil {
		err = r.SetBudget(budget)
	}
	if err != nil {
		j.err = fmt.Errorf("cuda: restore at call %d: %w", j.pos, err)
		return nil, j.err
	}
	j.restored = true
	return r, nil
}

// started readies the journal for the launch run r of call: a recording
// tallies executions per static instruction for its checkpoints; a replay
// decides whether the launch probes for re-convergence — once the fault can
// have fired, while nothing mismatched, and only in the recorded launch.
func (j *journal) started(r *gpu.LaunchRun, call *traceCall) {
	switch {
	case j == nil:
	case !j.replay:
		r.EnableInstrExecCounts()
	default:
		rec := j.recorded()
		j.probing = !j.mismatch && !j.plan.NoEarlyExit && j.plan.Probe != nil &&
			j.plan.FaultCall >= 0 && j.pos >= j.plan.FaultCall &&
			rec != nil && rec.sameRequest(call)
	}
}

// pauseIn is how many warp instructions the launch run r executes before its
// next pause: to the recording's next global stride boundary, or — while a
// replay probes — to the launch's next recorded checkpoint; -1 runs it to the
// end.
func (j *journal) pauseIn(r *gpu.LaunchRun) int64 {
	switch {
	case j == nil:
	case !j.replay:
		if s := j.trace.stride; s > 0 {
			cur := j.global + r.Stats().WarpInstrs
			return int64((cur/s+1)*s - cur)
		}
	case j.probing:
		local := r.Stats().WarpInstrs
		j.boundary = nil
		for _, ck := range j.trace.ckpts {
			if ck.CallIdx == j.pos && ck.LaunchLocal > local {
				j.boundary = ck
				return int64(ck.LaunchLocal - local)
			}
		}
	}
	return -1
}

// paused handles a pause of the launch run r of call. A recording snapshots
// the run as a checkpoint. A replay, once the fault has fired, compares the
// run's digest with the recorded one at this boundary; on a match the
// execution has re-converged with the golden trajectory at an identical
// boundary, so the rest of it is the recording: the run is dropped, the
// journal answers the launch (call's recorded stats) and every call after
// it, and paused reports true.
func (j *journal) paused(dev *gpu.Device, r *gpu.LaunchRun, call *traceCall) (exited bool) {
	if !j.replay {
		callIdx := len(j.trace.calls)
		snap, err := r.Snapshot()
		if err != nil {
			j.fail("snapshot at launch %d: %v", callIdx, err)
			return false
		}
		local := r.Stats().WarpInstrs
		j.trace.ckpts = append(j.trace.ckpts, &Checkpoint{
			Global:      j.global + local,
			CallIdx:     callIdx,
			LaunchLocal: local,
			Kernel:      call.fn,
			digest:      r.Digest(),
			snap:        snap,
			instrExec:   threadCounts(r.InstrExecCounts()),
		})
		return false
	}
	if j.boundary == nil || !j.plan.Probe() || r.Digest() != j.boundary.digest {
		return false
	}
	r.Close()
	dev.SetLog(j.trace.finalLog)
	j.earlyExited = true
	j.serve(call)
	return true
}

// threadCounts copies the thread-level counts out of a run's tally.
func threadCounts(tally []gpu.SiteTally) []uint64 {
	out := make([]uint64, len(tally))
	for i := range tally {
		out[i] = tally[i].Threads
	}
	return out
}

// finishLaunch is the post-execution tail of every launch: stats
// accumulation, trap poisoning, subscriber completion.
func (c *Context) finishLaunch(ev *LaunchEvent, f *Function, stats gpu.LaunchStats, err error) error {
	ev.Stats = stats
	c.total.WarpInstrs += stats.WarpInstrs
	c.total.ThreadInstrs += stats.ThreadInstrs
	c.total.TrampolineInstrs += stats.TrampolineInstrs
	c.total.Blocks += stats.Blocks
	if t, ok := gpu.AsTrap(err); ok {
		ev.Trap = t
		c.poison(t)
		err = nil
	} else if err != nil {
		err = fmt.Errorf("cuLaunchKernel %q: %w", f.k.Name, err)
	}
	for _, s := range c.subscribers {
		s.OnLaunchEnd(ev)
	}
	return err
}
