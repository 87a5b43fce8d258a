package campaign

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/nvbit"
)

// Checkpoint-and-fork campaign mode. A transient campaign spends most of its
// time re-executing the fault-free prefix of every experiment: a fault at
// dynamic instruction k replays k golden instructions before anything
// diverges. This mode records the golden trajectory once with device
// snapshots at a fixed warp-instruction stride, then starts each experiment
// from the snapshot nearest its injection point and, once the fault has
// fired, compares a state digest against the recorded trajectory at every
// later checkpoint boundary — a match proves the run re-converged and the
// rest of its classification can be taken from the recording (early exit).
// DESIGN.md section 3.4 gives the soundness argument.

// DefaultCheckpointCount is the number of checkpoints the automatic stride
// aims for across the golden run: enough that an average experiment skips
// ~97% of its prefix, few enough that snapshot memory stays bounded.
const DefaultCheckpointCount = 32

// MinCheckpointStride floors the automatic checkpoint stride (in warp
// instructions) so short workloads do not snapshot after every handful of
// instructions.
const MinCheckpointStride = 256

// autoCheckpointStride derives the checkpoint stride from the golden run's
// warp-instruction total.
func autoCheckpointStride(goldenWarpInstrs uint64) uint64 {
	return max(goldenWarpInstrs/DefaultCheckpointCount, MinCheckpointStride)
}

// RecordTrace re-runs the workload fault-free on a recording context,
// journaling every driver call and snapshotting the device at every stride
// warp instructions. The recording must reproduce the golden output exactly
// — a workload whose host code is nondeterministic cannot anchor replays.
func (r Runner) RecordTrace(w Workload, golden *GoldenResult, stride uint64) (*cuda.Trace, error) {
	r = r.applyDefaults()
	ctx, err := r.newContext()
	if err != nil {
		return nil, err
	}
	ctx.SetDefaultBudget(r.GoldenBudget)
	if err := ctx.StartRecording(stride); err != nil {
		return nil, err
	}
	out, runErr := w.Run(ctx)
	trace, err := ctx.FinishRecording()
	if err != nil {
		return nil, fmt.Errorf("campaign: recording %s: %w", w.Name(), err)
	}
	if runErr != nil {
		return nil, fmt.Errorf("campaign: recording run of %s failed: %w", w.Name(), runErr)
	}
	if out == nil || !out.Equal(golden.Output) || out.ExitCode != golden.Output.ExitCode {
		return nil, fmt.Errorf("campaign: recording run of %s diverged from the golden output", w.Name())
	}
	return trace, nil
}

// runTransientCheckpointed performs one transient experiment against a
// recorded trace: the workload's driver calls replay from the journal up to
// the checkpoint nearest the injection point, the device restores there,
// and execution is real from then on, with early-exit probing at recorded
// boundaries. If the workload's calls diverge from the journal before the
// restore point — a nondeterministic host — the experiment transparently
// falls back to a from-scratch run. A cancelled hostCtx aborts the
// experiment promptly, as in RunTransient.
func (r Runner) runTransientCheckpointed(hostCtx context.Context, w Workload, golden *GoldenResult,
	trace *cuda.Trace, p core.TransientParams, noEarlyExit bool) (*RunResult, error) {
	if err := hostCtx.Err(); err != nil {
		return nil, err
	}
	r = r.applyDefaults()
	ctx, err := r.newContext()
	if err != nil {
		return nil, err
	}
	ctx.SetCancel(hostCtx)
	ctx.SetDefaultBudget(r.experimentBudget(golden))
	inj, err := core.NewTransientInjector(p)
	if err != nil {
		return nil, err
	}
	staticIdx := -1
	if p.SiteResolved {
		staticIdx = p.StaticInstrIdx
	}
	plan := trace.PlanRestore(p.KernelName, p.KernelCount, staticIdx, p.InstrCount, p.Thread != nil)
	plan.NoEarlyExit = noEarlyExit
	plan.Probe = func() bool { return inj.Record().Activated }
	inj.SetCounterBase(plan.CounterBase)
	if err := ctx.BeginReplay(trace, plan); err != nil {
		return nil, err
	}
	att, err := nvbit.Attach(ctx, inj)
	if err != nil {
		return nil, err
	}

	start := time.Now()
	out, runErr := w.Run(ctx)
	d := time.Since(start)
	att.Detach()
	if err := hostCtx.Err(); err != nil {
		// The run was cut short by cancellation; whatever output it produced
		// does not describe the fault's behaviour, so classify nothing.
		return nil, err
	}
	if repErr := ctx.ReplayErr(); repErr != nil {
		// The host did not repeat the recorded call sequence, so the
		// snapshot does not describe this execution. Classify nothing;
		// rerun the experiment from scratch.
		return r.RunTransient(hostCtx, w, golden, p)
	}
	if out == nil {
		out = NewOutput()
	}
	res := &RunResult{
		Class:     Classify(w, golden.Output, out, runErr, ctx),
		Injection: inj.Record(),
		Duration:  d,
		Stats:     ctx.AccumulatedStats(),
		Restored:  ctx.ReplayRestored(),
		EarlyExit: ctx.ReplayEarlyExited(),
	}
	// A fork gives back the pages it dirtied (the snapshot's stay shared) and
	// the block an early exit left paused.
	ctx.Device().Recycle()
	return res, nil
}
