package benchkit

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/faultmodel"
	"repro/internal/gpu"
	"repro/internal/nvbit"
	"repro/internal/sass"
)

// The runner's defaults, mirrored: the traced run rebuilds each experiment
// from public calls exactly as campaign.Runner does, and Runner's own
// defaulting is unexported. The classification check against the real
// campaign catches any drift.
const (
	runnerFamily       = sass.FamilyVolta
	runnerSMs          = 8
	runnerBudgetFactor = 10
)

// checkpointStride is the automatic checkpoint stride NewShardPlan derives
// from the golden run (campaign.autoCheckpointStride, unexported).
func checkpointStride(golden *campaign.GoldenResult) uint64 {
	return max(golden.Stats.WarpInstrs/campaign.DefaultCheckpointCount, campaign.MinCheckpointStride)
}

// tracedPart is a prepared part plus the per-campaign state its experiments
// share: the model and its env, or the recorded golden trajectory.
type tracedPart struct {
	*prepared
	model faultmodel.Model
	env   faultmodel.Env
	trace *cuda.Trace
}

func newTracedPart(p *prepared) (*tracedPart, error) {
	tp := &tracedPart{prepared: p}
	switch {
	case p.cfg.Model != "":
		m, err := faultmodel.Lookup(p.cfg.Model)
		if err != nil {
			return nil, err
		}
		tp.model, tp.env = m, campaign.ModelEnv(runner, p.golden, p.profile)
	case p.cfg.Checkpoint:
		tr, err := runner.RecordTrace(p.w, p.golden, checkpointStride(p.golden))
		if err != nil {
			return nil, err
		}
		tp.trace = tr
	}
	return tp, nil
}

// selectAll is the campaign's parameter list: every shard's selection, in
// order — what RunTransientCampaign selects for the same config.
func (tp *tracedPart) selectAll() ([]core.TransientParams, error) {
	var params []core.TransientParams
	for s := 0; s < tp.cfg.NumShards(); s++ {
		shard, err := campaign.SelectShard(tp.profile, tp.cfg, s)
		if err != nil {
			return nil, err
		}
		params = append(params, shard...)
	}
	return params, nil
}

// launchSpans is the pair of benchmark-owned driver subscribers around
// nvbit's: before is subscribed ahead of nvbit.Attach and after behind it,
// so the interval between their OnLaunchBegin calls is nvbit's decision and
// JIT time, and the rest of the launch is device time plus nvbit's
// completion callback.
type launchSpans struct {
	buf    *spanBuf
	run    int // the workload.run span launches hang under
	launch int // open launch span, -1 between launches
	stage  int // open child of the launch span
}

type beforeNvbit struct{ *launchSpans }
type afterNvbit struct{ *launchSpans }

func (beforeNvbit) OnModuleLoad(*cuda.Module) {}
func (afterNvbit) OnModuleLoad(*cuda.Module)  {}

func (s beforeNvbit) OnLaunchBegin(*cuda.LaunchEvent) {
	s.launch = s.buf.begin("launch", s.run)
	s.stage = s.buf.begin("nvbit.launch_begin", s.launch)
}

func (s afterNvbit) OnLaunchBegin(ev *cuda.LaunchEvent) {
	s.buf.end(s.stage)
	s.buf.spans[s.launch].Armed = ev.Exec.Instrumented()
	s.stage = s.buf.begin("gpu.run", s.launch)
}

// A launch skipped on a poisoned context gets OnLaunchEnd without a begin;
// it has no span.
func (s beforeNvbit) OnLaunchEnd(*cuda.LaunchEvent) {
	if s.launch < 0 {
		return
	}
	s.buf.end(s.stage)
	s.stage = s.buf.begin("nvbit.launch_end", s.launch)
}

func (s afterNvbit) OnLaunchEnd(*cuda.LaunchEvent) {
	if s.launch < 0 {
		return
	}
	s.buf.end(s.stage)
	s.buf.end(s.launch)
	s.launch = -1
}

// experiment is one rebuilt experiment's result, in the fields the real
// campaign's RunResult carries.
type experiment struct {
	class        campaign.Classification
	injection    core.InjectionRecord
	stats        gpu.LaunchStats
	restored     bool
	earlyExit    bool
	jitBuilds    int
	instrumented int
	launches     int
}

// runExperiment performs one experiment the way Runner.RunTransient,
// RunModel and the checkpointed runner do, from the same public calls in the
// same order, with a span around each: device, context, injector, (restore
// plan, replay), attach, run, classify, recycle, detach.
func (tp *tracedPart) runExperiment(ctx context.Context, buf *spanBuf, p core.TransientParams) (*experiment, error) {
	root := buf.begin("experiment", -1)
	defer buf.end(root)
	span := func(name string) func() {
		id := buf.begin(name, root)
		return func() { buf.end(id) }
	}

	done := span("gpu.new_device")
	dev, err := gpu.NewDevice(runnerFamily, runnerSMs)
	done()
	if err != nil {
		return nil, err
	}
	done = span("cuda.new_context")
	cctx, err := cuda.NewContext(dev)
	done()
	if err != nil {
		return nil, err
	}
	cctx.SetCancel(ctx)
	cctx.SetDefaultBudget(runnerBudgetFactor * max(tp.golden.Stats.WarpInstrs, campaign.MinBudgetCalibration))

	var inj faultmodel.Injector
	var transient *core.TransientInjector
	var tool nvbit.Tool
	if tp.model != nil {
		done = span("faultmodel.new_injector")
		inj, err = tp.model.NewInjector(p, tp.cfg.ModelParam, tp.env)
		tool = inj
	} else {
		done = span("core.new_injector")
		transient, err = core.NewTransientInjector(p)
		tool = transient
	}
	done()
	if err != nil {
		return nil, err
	}

	if tp.trace != nil {
		staticIdx := -1
		if p.SiteResolved {
			staticIdx = p.StaticInstrIdx
		}
		done = span("cuda.plan_restore")
		plan := tp.trace.PlanRestore(p.KernelName, p.KernelCount, staticIdx, p.InstrCount, p.Thread != nil)
		done()
		plan.NoEarlyExit = tp.cfg.NoEarlyExit
		plan.Probe = func() bool { return transient.Record().Activated }
		transient.SetCounterBase(plan.CounterBase)
		done = span("cuda.begin_replay")
		err = cctx.BeginReplay(tp.trace, plan)
		done()
		if err != nil {
			return nil, err
		}
	}

	ls := &launchSpans{buf: buf, launch: -1}
	unsubBefore := cctx.Subscribe(beforeNvbit{ls})
	defer unsubBefore()
	done = span("nvbit.attach")
	att, err := nvbit.Attach(cctx, tool)
	done()
	if err != nil {
		return nil, err
	}
	unsubAfter := cctx.Subscribe(afterNvbit{ls})
	defer unsubAfter()
	detach := func() {
		done := span("nvbit.detach")
		att.Detach()
		done()
	}

	ls.run = buf.begin("workload.run", root)
	out, runErr := tp.w.Run(cctx)
	buf.end(ls.run)
	if tp.trace != nil {
		// The checkpointed runner detaches before it classifies.
		detach()
		if err := cctx.ReplayErr(); err != nil {
			return nil, fmt.Errorf("benchkit: replay diverged: %w", err)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if out == nil {
		out = campaign.NewOutput()
	}
	done = span("campaign.classify")
	class := campaign.Classify(tp.w, tp.golden.Output, out, runErr, cctx)
	done()
	e := &experiment{
		class:        class,
		stats:        cctx.AccumulatedStats(),
		restored:     cctx.ReplayRestored(),
		earlyExit:    cctx.ReplayEarlyExited(),
		jitBuilds:    att.JITBuilds(),
		instrumented: att.InstrumentedLaunches(),
		launches:     att.TotalLaunches(),
	}
	if inj != nil {
		e.injection = inj.Record()
	} else {
		e.injection = transient.Record()
	}
	if tp.trace == nil {
		done = span("gpu.recycle")
		dev.Recycle()
		done()
		detach()
	}
	return e, nil
}

// tracedRep runs the part's whole campaign as rebuilt experiments with the
// config's parallelism, one span buffer per experiment, and returns the
// experiments and their buffers.
func (tp *tracedPart) tracedRep(ctx context.Context, epoch time.Time, firstExp int) ([]*experiment, []*spanBuf, error) {
	params, err := tp.selectAll()
	if err != nil {
		return nil, nil, err
	}
	exps := make([]*experiment, len(params))
	bufs := make([]*spanBuf, len(params))
	errs := make([]error, len(params))
	var wg sync.WaitGroup
	sem := make(chan struct{}, max(1, tp.cfg.Parallel))
	for i := range params {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			bufs[i] = &spanBuf{epoch: epoch, exp: firstExp + i}
			exps[i], errs[i] = tp.runExperiment(ctx, bufs[i], params[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return exps, bufs, nil
}
