package campaign

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/faultmodel"
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
	ctx, out, _, runErr := r.setupRun(context.Background(), w, "recording", func(c *cuda.Context) error {
		return c.StartRecording(stride)
	})
	if ctx == nil {
		return nil, runErr
	}
	trace, err := ctx.FinishRecording()
	if err != nil {
		return nil, fmt.Errorf("campaign: recording %s: %w", w.Name(), err)
	}
	if runErr != nil {
		return nil, runErr
	}
	if !out.Equal(golden.Output) || out.ExitCode != golden.Output.ExitCode {
		return nil, fmt.Errorf("campaign: recording run of %s diverged from the golden output", w.Name())
	}
	return trace, nil
}

// restorePoint is where a checkpointed experiment starts: the workload's
// driver calls replay from the recorded journal up to plan's checkpoint,
// the device restores there, and execution is real from then on, with
// early-exit probing at later recorded boundaries. The zero restorePoint
// (no trace) starts from scratch.
type restorePoint struct {
	trace *cuda.Trace
	plan  cuda.ReplayPlan
}

// errReplayDiverged reports a host that did not repeat the recorded driver
// calls before the restore point: the snapshot does not describe the
// execution, so the experiment classified nothing and must be rerun from
// scratch.
var errReplayDiverged = errors.New("campaign: replay diverged from the recording before the restore point")

// restoreAt plans where p's experiment starts: from the latest checkpoint
// before its injection point when the plan recorded a trace, from scratch
// otherwise.
func (pl *ShardPlan) restoreAt(p core.TransientParams) restorePoint {
	if pl.trace == nil {
		return restorePoint{}
	}
	staticIdx := -1
	if p.SiteResolved {
		staticIdx = p.StaticInstrIdx
	}
	plan := pl.trace.PlanRestore(p.KernelName, p.KernelCount, staticIdx, p.InstrCount, p.Thread != nil)
	plan.NoEarlyExit = pl.cfg.NoEarlyExit
	return restorePoint{trace: pl.trace, plan: plan}
}

// begin puts a fresh experiment context in replay mode for inj: the
// injector's countdown resumes where the snapshot left it, and early exit
// probes whether the fault has fired. Only a model with CapCheckpoint gets
// here, and its injector counts like the transient flip's.
func (rp restorePoint) begin(cctx *cuda.Context, inj faultmodel.Injector) error {
	counter, ok := inj.(interface{ SetCounterBase(uint64) })
	if !ok {
		return fmt.Errorf("campaign: injector %s cannot start from a checkpoint", inj.Name())
	}
	plan := rp.plan
	plan.Probe = func() bool { return inj.Record().Activated }
	counter.SetCounterBase(plan.CounterBase)
	return cctx.BeginReplay(rp.trace, plan)
}
