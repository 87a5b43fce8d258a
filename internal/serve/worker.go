package serve

import (
	"context"
	"errors"
	"fmt"
	"log"
	"runtime"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
)

// coreProfileMode is the profiling mode every worker uses to rebuild a
// job's fault-site population. It must be a fixed, exact mode: approximate
// profiles could differ between workers and change fault selection.
const coreProfileMode = core.Exact

// Worker leases shards from a Backend and runs them with campaign.Runner —
// the same engine, strata, and checkpoint machinery as the in-process
// campaign, so a shard's results do not depend on where it ran. Per-spec
// setup (golden run, profile, recorded trace) is built on the first
// lease of a spec and reused for later shards and later jobs of that spec.
type Worker struct {
	Backend Backend
	// Runner is the worker-side experiment engine. Its determinism knobs
	// (family, SM count, budget factor) must match the coordinator's; the
	// golden digest check catches divergence.
	Runner campaign.Runner
	// Name labels the worker in leases and events.
	Name string
	// Logf, when set, receives worker progress lines.
	Logf func(format string, args ...any)

	// plans is touched only by the goroutine in Run.
	plans []*specPlan
}

// planCacheSize bounds how many specs' campaign state a worker keeps. A
// golden result, a profile and a ShardPlan are the worker's largest live
// objects, so the cache holds the few specs a fleet interleaves, not every
// job it ever saw.
const planCacheSize = 4

// heartbeatFraction is the heartbeat period as a fraction of the lease TTL,
// so a held lease is renewed about three times per TTL.
const heartbeatFraction = 1.0 / 3

// planKey is what a worker's campaign state is a pure function of (given
// its Runner): two jobs with the same workload and config share one plan.
type planKey struct {
	workload string
	cfg      campaign.TransientCampaignConfig
}

// specPlan is one spec's worker-side campaign state, or the error building
// it ended in.
type specPlan struct {
	key    planKey
	plan   *campaign.ShardPlan
	digest string // of this worker's own golden run
	err    error
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

// Run registers the worker and processes shards until ctx is cancelled or
// the backend becomes unreachable. Between shards it waits inside Lease,
// which blocks until the coordinator has something to run. Cancelling ctx
// deregisters the worker, which ends that wait and hands any held shard
// back at no cost to its attempts, and aborts in-flight work promptly: the
// context threads through campaign.Runner into the device interpreter, so
// even a mid-kernel golden run or experiment stops within its cancellation
// poll stride.
func (w *Worker) Run(ctx context.Context) error {
	id, err := w.Backend.Register(WorkerInfo{Name: w.Name})
	if err != nil {
		return fmt.Errorf("serve: worker registration: %w", err)
	}
	w.logf("worker %s registered", id)

	// Lease takes no context, so leaving is its own call: this goroutine
	// deregisters once Run is over, for whatever reason, and Run waits for it.
	runCtx, stop := context.WithCancel(ctx)
	left := make(chan struct{})
	go func() {
		defer close(left)
		<-runCtx.Done()
		if err := w.Backend.Deregister(id); err != nil {
			w.logf("worker %s: deregister: %v", id, err)
		}
	}()
	defer func() {
		stop()
		<-left
	}()

	for {
		grant, err := w.Backend.Lease(id)
		if cerr := ctx.Err(); cerr != nil {
			// Whatever Lease said, deregistration is under way and covers it.
			return cerr
		}
		if err != nil {
			return fmt.Errorf("serve: lease: %w", err)
		}
		if grant != nil {
			w.runShard(runCtx, id, grant)
		}
	}
}

// plan returns the campaign state for a grant's spec, building it on first
// use, and verifies the golden digest on every grant: a worker whose
// simulator configuration diverges from the coordinator's must not run any
// experiments, because its classifications would be against the wrong
// reference. A build cut short by ctx is not the spec's result and is not
// kept.
func (w *Worker) plan(ctx context.Context, grant *LeaseGrant) (*campaign.ShardPlan, string, error) {
	key := planKey{workload: grant.Spec.Workload, cfg: grant.Spec.Config}
	var sp *specPlan
	for i, c := range w.plans {
		if c.key == key {
			// Most recently used first; the last entry is the one evicted.
			copy(w.plans[1:i+1], w.plans[:i])
			w.plans[0], sp = c, c
			break
		}
	}
	if sp == nil {
		sp = &specPlan{key: key}
		sp.plan, sp.digest, sp.err = w.buildPlan(ctx, key)
		if err := ctx.Err(); err != nil {
			return nil, "", err
		}
		w.plans = append([]*specPlan{sp}, w.plans[:min(len(w.plans), planCacheSize-1)]...)
	}
	if sp.err != nil {
		return nil, "", sp.err
	}
	if sp.digest != grant.GoldenDigest {
		return nil, "", fmt.Errorf("serve: golden digest mismatch: worker computed %.12s, coordinator expects %.12s",
			sp.digest, grant.GoldenDigest)
	}
	return sp.plan, sp.digest, nil
}

// buildPlan runs a spec's golden and profiling runs and builds its plan.
func (w *Worker) buildPlan(ctx context.Context, key planKey) (*campaign.ShardPlan, string, error) {
	wl, err := ResolveWorkload(key.workload)
	if err != nil {
		return nil, "", err
	}
	golden, err := w.Runner.GoldenContext(ctx, wl)
	if err != nil {
		return nil, "", fmt.Errorf("serve: worker golden run: %w", err)
	}
	digest := golden.Output.Digest()
	profile, _, err := w.Runner.ProfileContext(ctx, wl, coreProfileMode)
	if err != nil {
		return nil, digest, fmt.Errorf("serve: worker profiling run: %w", err)
	}
	plan, err := campaign.NewShardPlan(w.Runner, wl, golden, profile, key.cfg)
	return plan, digest, err
}

// runShard executes one leased shard under a heartbeat loop and reports the
// outcome. A lost lease (expiry beat the heartbeat, or the coordinator gave
// the shard away) cancels the run and reports nothing — the result would
// double-count. A cancelled ctx reports nothing either: the shard did not
// fail, the worker is leaving, and Deregister hands the shard back.
func (w *Worker) runShard(ctx context.Context, workerID string, grant *LeaseGrant) {
	// A parked Lease is answered in the same instant as the submitter's
	// acknowledgement and the job's first events. What follows here computes
	// without blocking, so with as many pool workers as cores those replies
	// would wait for the scheduler to preempt a shard, 10-20 ms and a
	// different share of jobs every run. Let what is already runnable go first.
	runtime.Gosched()
	plan, digest, err := w.plan(ctx, grant)
	if ctx.Err() != nil {
		return
	}
	if err != nil {
		w.logf("worker %s: job %s shard %d unrunnable: %v", workerID, grant.Job, grant.Shard, err)
		_ = w.Backend.Fail(workerID, grant.LeaseID, err.Error())
		return
	}

	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var lost bool
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	period := time.Duration(heartbeatFraction * float64(grant.TTLSeconds) * float64(time.Second))
	if period <= 0 {
		period = time.Second
	}
	go func() {
		defer hbWG.Done()
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-sctx.Done():
				return
			case <-t.C:
				if err := w.Backend.Heartbeat(workerID, grant.LeaseID); err != nil {
					if errors.Is(err, ErrLeaseLost) {
						lost = true
						cancel()
						return
					}
					w.logf("worker %s: heartbeat: %v", workerID, err)
				}
			}
		}
	}()

	start := time.Now()
	results, runErr := plan.RunShard(sctx, grant.Shard)
	cancel()
	hbWG.Wait()

	if lost {
		w.logf("worker %s: job %s shard %d lease lost after %v; dropping result",
			workerID, grant.Job, grant.Shard, time.Since(start).Round(time.Millisecond))
		return
	}
	if runErr != nil {
		if ctx.Err() != nil {
			return
		}
		w.logf("worker %s: job %s shard %d failed: %v", workerID, grant.Job, grant.Shard, runErr)
		if err := w.Backend.Fail(workerID, grant.LeaseID, runErr.Error()); err != nil && !errors.Is(err, ErrLeaseLost) {
			w.logf("worker %s: fail report: %v", workerID, err)
		}
		return
	}
	res := ShardResult{Tally: campaign.TallyRuns(results), GoldenDigest: digest}
	if err := w.Backend.Complete(workerID, grant.LeaseID, res); err != nil {
		if !errors.Is(err, ErrLeaseLost) {
			w.logf("worker %s: complete report: %v", workerID, err)
		}
		return
	}
	w.logf("worker %s: job %s shard %d done in %v (%s)",
		workerID, grant.Job, grant.Shard, time.Since(start).Round(time.Millisecond), res.Tally)
}

// Pool runs n in-process workers against a backend until ctx cancels —
// `nvbitfi serve -workers N` and the tests use it to colocate compute with
// the coordinator.
func Pool(ctx context.Context, backend Backend, r campaign.Runner, n int, logf func(string, ...any)) *sync.WaitGroup {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w := &Worker{Backend: backend, Runner: r, Name: fmt.Sprintf("local-%d", i), Logf: logf}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
				log.Printf("serve: worker exited: %v", err)
			}
		}()
	}
	return &wg
}
