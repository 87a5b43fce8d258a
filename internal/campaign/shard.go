package campaign

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/faultmodel"
	"repro/internal/sass"
)

// Sharded fault selection. A campaign's experiments are split into fixed-
// size shards, and each shard draws its parameter tuples from a dedicated
// RNG seeded by (campaign seed, shard index). The single-process runner
// selects shard by shard in order, so the full parameter list is the
// concatenation of the per-shard lists — which is exactly what lets the
// campaign service hand shard s to any worker, at any time, in any order:
// the worker reconstructs shard s's parameters from the seed pair alone,
// and the union over shards is a partition of the single-process selection.
// shard_test.go proves the equivalence; serve's end-to-end test proves the
// resulting tallies byte-identical.

// DefaultShardSize is the default experiments-per-shard granularity: small
// enough that a 100-injection campaign spreads across a handful of workers
// and a lost shard re-runs cheaply, large enough that per-shard setup
// (golden verification, lease traffic) amortizes.
const DefaultShardSize = 25

// ShardSeed derives shard s's selection seed from the campaign seed with a
// splitmix64-style mix, so neighbouring shards get decorrelated streams
// even for adjacent campaign seeds.
func ShardSeed(seed int64, shard int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(shard+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// modelSeed folds the fault-model name into the campaign seed: the model is
// part of the campaign's selection identity, so campaigns differing only by
// model draw decorrelated parameter streams, and a worker reconstructing a
// shard for model m lands on the submitting process's stream.
func modelSeed(seed int64, model string) int64 {
	if model == "" {
		return seed
	}
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(model); i++ {
		h = (h ^ uint64(model[i])) * 0x100000001b3
	}
	return int64(uint64(seed) ^ h)
}

// Population is the fault population a campaign under cfg draws from: the
// config's group (by default the fault model's own), narrowed to the opcodes
// a non-default model can inject at, and resolved to static sites when the
// model or any acceleration reasons about them. It is the one selection rule:
// SelectShard draws a campaign's shards from it, and `nvbitfi select` draws
// one fault.
func Population(profile *core.Profile, cfg TransientCampaignConfig) (*core.FaultPopulation, error) {
	cfg = cfg.withDefaults()
	var eligible func(sass.Op) bool
	if cfg.Model != "" {
		m, err := faultmodel.Lookup(cfg.Model)
		if err != nil {
			return nil, err
		}
		eligible = m.EligibleOp
	}
	resolve := cfg.ResolveSites || cfg.Checkpoint || cfg.TargetCI > 0
	return profile.Population(cfg.Group, resolve, eligible)
}

// SelectShard selects the parameter tuples of one shard from the profile:
// experiments [lo, hi) of the campaign, drawn from the shard's own seeded
// stream. It is pure selection — no workload runs — so a worker can call it
// for any shard it leases. A non-default fault model narrows the site
// population to its eligible opcodes and shifts the seed by the model name;
// the per-experiment stream shape (one Int63n, two Float64) is unchanged.
func SelectShard(profile *core.Profile, cfg TransientCampaignConfig, shard int) ([]core.TransientParams, error) {
	cfg = cfg.withDefaults()
	if shard < 0 || shard >= cfg.NumShards() {
		return nil, fmt.Errorf("campaign: shard %d out of range (campaign has %d shards)", shard, cfg.NumShards())
	}
	population, err := Population(profile, cfg)
	if err != nil {
		return nil, err
	}
	lo, hi := cfg.ShardRange(shard)
	rng := rand.New(rand.NewSource(ShardSeed(modelSeed(cfg.Seed, cfg.Model), shard)))
	params := make([]core.TransientParams, 0, hi-lo)
	for i := lo; i < hi; i++ {
		p, err := population.Select(cfg.BitFlip, rng)
		if err != nil {
			return nil, err
		}
		params = append(params, *p)
	}
	return params, nil
}

// ShardPlan is the per-job execution state a campaign shares across its
// shards: the runner, the golden reference, the profile, and — when the
// config asks for them — the adaptive strata and the recorded golden trace.
// Building the plan once and running many shards against it is what both
// the in-process campaign and a service worker do, so the two paths cannot
// drift: an experiment executes identically whether its shard ran locally
// or was leased over HTTP.
type ShardPlan struct {
	runner  Runner
	w       Workload
	golden  *GoldenResult
	profile *core.Profile
	cfg     TransientCampaignConfig
	trace   *cuda.Trace
	// strat and weights are set when the config enables adaptive stratified
	// sampling (TargetCI > 0): strat assigns each resolved site to its
	// stratum, weights is the full-selection stratum composition the
	// stopping rule pools against.
	strat   *stratifier
	weights []StratumWeight
	// model builds every experiment's injector: the config's fault model, the
	// transient flip for the default. env is what a non-default model builds
	// against; the transient flip ignores it, so a transient plan leaves it
	// zero.
	model faultmodel.Model
	env   faultmodel.Env
}

// NewShardPlan validates the config against the golden result and performs
// the shared per-campaign setup: the adaptive strata (TargetCI) and the
// recorded golden trajectory (Checkpoint).
func NewShardPlan(r Runner, w Workload, golden *GoldenResult, profile *core.Profile,
	cfg TransientCampaignConfig) (*ShardPlan, error) {
	cfg = cfg.withDefaults()
	m, err := cfg.model()
	if err != nil {
		return nil, err
	}
	plan := &ShardPlan{runner: r, w: w, golden: golden, profile: profile, cfg: cfg, model: m}
	if (cfg.Model != "" || cfg.TargetCI > 0) && golden.Kernels == nil {
		return nil, fmt.Errorf("campaign: a fault model or adaptive sampling needs the golden kernel view, but the golden result carries no kernels; rebuild it with Runner.Golden")
	}
	if cfg.Model != "" {
		plan.env = ModelEnv(r, golden, profile)
	}
	if cfg.TargetCI > 0 {
		plan.strat = newStratifier(golden, cfg)
		weights, err := AdaptiveStrata(golden, profile, cfg)
		if err != nil {
			return nil, err
		}
		plan.weights = weights
	}
	if cfg.Checkpoint {
		stride := cfg.CkptStride
		if stride == 0 {
			stride = autoCheckpointStride(golden.Stats.WarpInstrs)
		}
		trace, err := r.RecordTrace(w, golden, stride)
		if err != nil {
			return nil, err
		}
		plan.trace = trace
	}
	return plan, nil
}

// Config returns the plan's defaults-applied campaign config.
func (pl *ShardPlan) Config() TransientCampaignConfig { return pl.cfg }

// NumShards returns the number of shards the plan's campaign splits into.
func (pl *ShardPlan) NumShards() int { return pl.cfg.NumShards() }

// selectAll concatenates every shard's selection: the single-process
// parameter list, identical to what the shards produce separately.
func (pl *ShardPlan) selectAll() ([]core.TransientParams, error) {
	params := make([]core.TransientParams, 0, pl.cfg.Injections)
	for s := 0; s < pl.cfg.NumShards(); s++ {
		shard, err := SelectShard(pl.profile, pl.cfg, s)
		if err != nil {
			return nil, err
		}
		params = append(params, shard...)
	}
	return params, nil
}

// runOne executes a single experiment: the model's injector for p, started
// from the latest checkpoint before p's fault when the plan recorded a
// trace. A host that diverges from the recording before that checkpoint
// gets the experiment again from scratch, with a fresh injector.
func (pl *ShardPlan) runOne(ctx context.Context, p core.TransientParams) (*RunResult, error) {
	inj, err := pl.model.NewInjector(p, pl.cfg.ModelParam, pl.env)
	if err != nil {
		return nil, err
	}
	res, err := pl.runner.run(ctx, pl.w, pl.golden, inj, pl.restoreAt(p))
	if !errors.Is(err, errReplayDiverged) {
		return res, err
	}
	if inj, err = pl.model.NewInjector(p, pl.cfg.ModelParam, pl.env); err != nil {
		return nil, err
	}
	return pl.runner.run(ctx, pl.w, pl.golden, inj, restorePoint{})
}

// summarize is summarize over the plan's campaign, echoing its fault model.
func (pl *ShardPlan) summarize(results []RunResult, errs []error) (*CampaignResult, error) {
	res, err := summarize(pl.w.Name(), pl.golden, results, errs, nil)
	if res != nil {
		res.Model, res.ModelParam = pl.cfg.Model, pl.cfg.ModelParam
	}
	return res, err
}

// runRange executes one experiment per parameter tuple with the plan's
// Parallel bound, returning results and errors index-aligned with params.
// A cancelled ctx stops dispatching and marks the remaining experiments
// with the context's error; already-running experiments abort promptly via
// the device cancellation hook. When the plan runs adaptively each
// completed result is labelled with its sampling stratum.
func (pl *ShardPlan) runRange(ctx context.Context, params []core.TransientParams) ([]RunResult, []error) {
	results := make([]RunResult, len(params))
	errs := make([]error, len(params))
	runClaimed(ctx, pl.cfg.Parallel, len(params), errs, func(i int) error {
		res, err := pl.runOne(ctx, params[i])
		if err == nil {
			results[i] = *res
		}
		return err
	})
	if pl.strat != nil {
		for i := range results {
			if errs[i] == nil {
				results[i].Stratum, _ = pl.strat.classify(params[i])
			}
		}
	}
	return results, errs
}

// runClaimed is every campaign's worker loop: min(parallel, n) long-lived
// workers (the caller is the first) claim the indexes 0..n-1 in order from
// one cursor and store exp(i)'s error in errs[i]; an index claimed after
// ctx is done gets ctx's error without running. An experiment lasts a
// fraction of a millisecond, and a goroutine spawned and handed back per
// experiment cost two futex round trips each.
func runClaimed(ctx context.Context, parallel, n int, errs []error, exp func(i int) error) {
	var cursor atomic.Int64
	work := func() {
		for {
			i := int(cursor.Add(1)) - 1
			if i >= n {
				return
			}
			if err := ctx.Err(); err != nil {
				errs[i] = err
				continue
			}
			// Back-to-back experiments would hold the processor for a whole
			// scheduler time slice, and whatever else is queued there — under
			// the campaign service the submitter's reply, event streams,
			// heartbeats — would wait 10-20 ms. Let it run first.
			runtime.Gosched()
			errs[i] = exp(i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(parallel, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// RunShard selects and executes one shard, returning its per-run results in
// experiment order. Unlike the whole-campaign path there is no partial
// degradation: a shard either completes or fails as a unit, because the
// service retries failed shards whole.
func (pl *ShardPlan) RunShard(ctx context.Context, shard int) ([]RunResult, error) {
	params, err := SelectShard(pl.profile, pl.cfg, shard)
	if err != nil {
		return nil, err
	}
	results, errs := pl.runRange(ctx, params)
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return results, nil
}

// TallyRuns folds a slice of per-run results into a tally, exactly as the
// whole-campaign summary does: per-shard tallies built with it merge into
// the single-process campaign tally (see Tally.Merge).
func TallyRuns(results []RunResult) *Tally {
	tally := NewTally()
	for i := range results {
		tally.Add(results[i].Class)
		if results[i].Stratum != "" {
			tally.addStratum(results[i].Stratum, results[i].Class.Outcome)
		}
		if !results[i].Injection.Activated && results[i].Activations == 0 {
			tally.NotActivated++
		}
		if results[i].Restored {
			tally.Restored++
		}
		if results[i].EarlyExit {
			tally.EarlyExits++
		}
	}
	return tally
}
