package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/faultmodel"
	"repro/internal/gpu"
	"repro/internal/nvbit"
	"repro/internal/sass"
	"repro/internal/sassan"
	"repro/internal/stats"
)

// Runner executes workloads under injection tools, one fresh device and
// context per run, replicating the paper's campaign scripts (Figure 1).
type Runner struct {
	// Family is the simulated architecture family (default Volta).
	Family sass.Family
	// NumSMs is the device's SM count (default 8).
	NumSMs int
	// BudgetFactor multiplies the golden run's warp-instruction count to
	// form the hang-detection budget (default 10).
	BudgetFactor uint64
	// GoldenBudget is the per-launch warp-instruction cap for golden and
	// profiling runs, which execute before any workload-derived budget can
	// be calibrated. Default DefaultGoldenBudget: a buggy or
	// non-terminating workload then traps with TrapInstrLimit instead of
	// hanging the campaign.
	GoldenBudget uint64
	// VerifyModules makes every context this runner builds verify modules
	// at load time (cuda.VerifyEnforce): a module whose static verification
	// produces errors fails to load, so a broken workload is rejected
	// before any experiment wastes a run on it.
	VerifyModules bool
	// device, when set, adjusts every device this runner builds before its
	// context exists. Only the differential suites set it (WithDevice in
	// export_test.go), to run a campaign on one of gpu.Device's oracles.
	device func(*gpu.Device)
}

// DefaultGoldenBudget is the Runner.GoldenBudget default: large enough
// that no real workload in the suite comes near it (the biggest golden
// runs execute a few million warp instructions), small enough that an
// accidental infinite loop traps in seconds rather than hanging for the
// 2^32 instructions of the device's own last-resort budget.
const DefaultGoldenBudget = 1 << 28

// MinBudgetCalibration floors the golden warp-instruction count when
// calibrating per-experiment hang budgets: a near-empty workload (a golden
// run of a handful of instructions) would otherwise get a budget so tight
// that legitimate fault behaviour — a corrupted loop bound iterating a few
// hundred extra times — is misclassified as a hang instead of running to
// its real outcome.
const MinBudgetCalibration = 1000

// experimentBudget is the per-launch warp-instruction cap applied to every
// injection experiment: BudgetFactor times the golden run's count, floored
// by MinBudgetCalibration. Must be called on a defaults-applied Runner.
func (r Runner) experimentBudget(golden *GoldenResult) uint64 {
	return r.BudgetFactor * max(golden.Stats.WarpInstrs, MinBudgetCalibration)
}

// applyDefaults fills zero fields.
func (r Runner) applyDefaults() Runner {
	if r.Family == 0 {
		r.Family = sass.FamilyVolta
	}
	if r.NumSMs == 0 {
		r.NumSMs = 8
	}
	if r.BudgetFactor == 0 {
		r.BudgetFactor = 10
	}
	if r.GoldenBudget == 0 {
		r.GoldenBudget = DefaultGoldenBudget
	}
	return r
}

// newContext builds a fresh device and context.
func (r Runner) newContext() (*cuda.Context, error) {
	r = r.applyDefaults()
	dev, err := gpu.NewDevice(r.Family, r.NumSMs)
	if err != nil {
		return nil, err
	}
	if r.device != nil {
		r.device(dev)
	}
	ctx, err := cuda.NewContext(dev)
	if err != nil {
		return nil, err
	}
	if r.VerifyModules {
		ctx.SetVerifyMode(cuda.VerifyEnforce)
	}
	return ctx, nil
}

// setupRun runs the workload once, fault-free, on a fresh context under the
// golden budget — the shape of every run a campaign makes before its
// experiments (golden, profiling, recording, lint). prep readies the context
// first; what names the run in errors. A crashed run, a sticky CUDA error or
// a nonzero exit code is an error — a set-up run describes the fault-free
// program — and once hostCtx is done its error replaces any result. The
// context comes back unless it could not be built and readied.
func (r Runner) setupRun(hostCtx context.Context, w Workload, what string,
	prep func(*cuda.Context) error) (*cuda.Context, *Output, time.Duration, error) {
	r = r.applyDefaults()
	ctx, err := r.newContext()
	if err != nil {
		return nil, nil, 0, err
	}
	armCancel(ctx, hostCtx)
	ctx.SetDefaultBudget(r.GoldenBudget)
	if prep != nil {
		if err := prep(ctx); err != nil {
			return nil, nil, 0, err
		}
	}
	start := time.Now()
	out, err := w.Run(ctx)
	d := time.Since(start)
	if cerr := hostCtx.Err(); cerr != nil {
		return ctx, nil, d, cerr
	}
	if err != nil {
		return ctx, nil, d, fmt.Errorf("campaign: %s run of %s failed: %w", what, w.Name(), err)
	}
	if ctx.LastError() != cuda.Success {
		return ctx, out, d, fmt.Errorf("campaign: %s run of %s hit %v", what, w.Name(), ctx.LastError())
	}
	if out.ExitCode != 0 {
		return ctx, out, d, fmt.Errorf("campaign: %s run of %s exited with %d", what, w.Name(), out.ExitCode)
	}
	return ctx, out, d, nil
}

// LintWorkload runs the workload once on a context in VerifyWarn mode and
// returns every static-verification diagnostic its modules produced — the
// campaign-level entry point behind `sasslint -workloads`. The run itself
// must succeed; lint findings are returned, not treated as failures.
func (r Runner) LintWorkload(w Workload) ([]sassan.Diagnostic, error) {
	ctx, _, _, err := r.setupRun(context.Background(), w, "lint", func(c *cuda.Context) error {
		c.SetVerifyMode(cuda.VerifyWarn)
		return nil
	})
	if ctx == nil {
		return nil, err
	}
	return ctx.VerifyDiagnostics(), err
}

// GoldenResult is a reference run: the fault-free output plus the execution
// counts that calibrate hang budgets and overhead measurements.
type GoldenResult struct {
	Output   *Output
	Stats    gpu.LaunchStats
	Duration time.Duration

	// Kernels maps kernel name to the decoded kernel of every module the
	// golden run loaded — the static view site-resolved fault models and
	// adaptive strata reason over. A name defined by more than one module is
	// dropped: injection parameters address kernels by name, so an ambiguous
	// name cannot be reasoned about statically.
	Kernels map[string]*sass.Kernel
}

// Golden runs the workload with no tool attached and records the reference
// output.
func (r Runner) Golden(w Workload) (*GoldenResult, error) {
	return r.GoldenContext(context.Background(), w)
}

// armCancel arms prompt launch cancellation on a set-up run's context. A
// context that can never be cancelled leaves the device unarmed, so Golden
// and Profile run exactly the engine path they always have.
func armCancel(cctx *cuda.Context, hostCtx context.Context) {
	if hostCtx.Done() != nil {
		cctx.SetCancel(hostCtx)
	}
}

// GoldenContext is Golden for a caller that may give up: once hostCtx is
// done the run's launches trap within the cancellation poll stride and
// hostCtx's error is returned in place of a result.
func (r Runner) GoldenContext(hostCtx context.Context, w Workload) (*GoldenResult, error) {
	ctx, out, d, err := r.setupRun(hostCtx, w, "golden", nil)
	if err != nil {
		return nil, err
	}
	kernels := make(map[string]*sass.Kernel)
	dup := make(map[string]bool)
	for _, m := range ctx.Modules() {
		for _, k := range m.Kernels() {
			if _, seen := kernels[k.Name]; seen {
				dup[k.Name] = true
			}
			kernels[k.Name] = k
		}
	}
	for name := range dup {
		delete(kernels, name)
	}
	return &GoldenResult{
		Output:   out,
		Stats:    ctx.AccumulatedStats(),
		Duration: d,
		Kernels:  kernels,
	}, nil
}

// Profile runs the workload under the profiler and returns the resulting
// instruction profile together with the profiling run's duration (the
// profiling-overhead axis of Figure 4).
func (r Runner) Profile(w Workload, mode core.ProfileMode) (*core.Profile, time.Duration, error) {
	return r.ProfileContext(context.Background(), w, mode)
}

// ProfileContext is Profile for a caller that may give up; cancellation
// behaves as in GoldenContext.
func (r Runner) ProfileContext(hostCtx context.Context, w Workload, mode core.ProfileMode) (*core.Profile, time.Duration, error) {
	prof, err := core.NewProfiler(w.Name(), mode)
	if err != nil {
		return nil, 0, err
	}
	var att *nvbit.Attachment
	_, _, d, err := r.setupRun(hostCtx, w, "profiling", func(c *cuda.Context) (err error) {
		att, err = nvbit.Attach(c, prof)
		return err
	})
	if att != nil {
		att.Detach()
	}
	if err != nil {
		return nil, d, err
	}
	return prof.Finish(), d, nil
}

// RunResult is one injection experiment's result. A campaign result holds
// one per experiment for as long as it lives, so the fields are packed
// (144 bytes): the one-byte fields sit together, beside Activations.
type RunResult struct {
	Class Classification
	// Restored marks a checkpointed experiment that started from a
	// mid-trajectory device snapshot instead of replaying its golden prefix.
	Restored bool
	// EarlyExit marks a checkpointed experiment whose post-fault state
	// digest re-converged with the golden trajectory at a checkpoint
	// boundary, so its tail was settled from the recording.
	EarlyExit bool
	// Activations counts fault-site exercises for models with repeated
	// activation (permanent, stuck, memory), saturating at 2^32-1; zero for
	// single-shot models.
	Activations uint32
	// Injection is what the injector reports it did: every fault model maps
	// its outcome onto the transient record's shape; the permanent fault of
	// RunPermanent reports the zero record.
	Injection core.InjectionRecord
	Duration  time.Duration
	Stats     gpu.LaunchStats
	// Stratum is the sampling stratum this run's injection site falls in
	// when the campaign runs with adaptive stratified sampling
	// ("kernel:classID", or "~" for unclassable sites). Empty otherwise.
	Stratum string
}

// run performs one experiment — Figure 1's loop body, the one every entry
// point shares: a fresh context with cancellation and the hang budget
// armed, inj attached, the workload run, the outcome classified against
// golden, and the device's pages handed back for the next experiment.
// A non-zero restore starts the run from a recorded checkpoint instead of
// from scratch (see restorePoint); a workload whose driver calls diverge
// from the recording before the restore point yields errReplayDiverged,
// and since injectors are single-use the caller reruns with a fresh one. A
// cancelled ctx aborts the experiment promptly — in-flight launches trap
// with gpu.TrapCancelled instead of draining the hang budget — and the
// context's error is returned in place of a classification.
func (r Runner) run(ctx context.Context, w Workload, golden *GoldenResult, inj faultmodel.Injector,
	restore restorePoint) (*RunResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r = r.applyDefaults()
	cctx, err := r.newContext()
	if err != nil {
		return nil, err
	}
	cctx.SetCancel(ctx)
	cctx.SetDefaultBudget(r.experimentBudget(golden))
	if restore.trace != nil {
		if err := restore.begin(cctx, inj); err != nil {
			return nil, err
		}
	}
	att, err := nvbit.Attach(cctx, inj)
	if err != nil {
		return nil, err
	}

	start := time.Now()
	out, runErr := w.Run(cctx)
	d := time.Since(start)
	att.Detach()
	if err := ctx.Err(); err != nil {
		// The run was cut short by cancellation; whatever output it produced
		// does not describe the fault's behaviour, so classify nothing.
		return nil, err
	}
	// The context is dead once classified (or abandoned): a fresh device
	// gives back its pages, a fork the pages it dirtied (the snapshot's stay
	// shared) and the block an early exit left paused.
	defer cctx.Device().Recycle()
	if cctx.ReplayErr() != nil {
		return nil, errReplayDiverged
	}
	if out == nil {
		out = NewOutput()
	}
	return &RunResult{
		Class:       Classify(w, golden.Output, out, runErr, cctx),
		Injection:   inj.Record(),
		Activations: uint32(min(inj.Activations(), math.MaxUint32)),
		Duration:    d,
		Stats:       cctx.AccumulatedStats(),
		Restored:    cctx.ReplayRestored(),
		EarlyExit:   cctx.ReplayEarlyExited(),
	}, nil
}

// RunTransient performs one transient-fault experiment (see run).
func (r Runner) RunTransient(ctx context.Context, w Workload, golden *GoldenResult, p core.TransientParams) (*RunResult, error) {
	inj, err := core.NewTransientInjector(p)
	if err != nil {
		return nil, err
	}
	return r.run(ctx, w, golden, inj, restorePoint{})
}

// ModelEnv derives the faultmodel.Env a campaign's experiments share: the
// runner's device shape plus the golden kernel view and the profile's opcode
// activity. Pure derivation — no workload runs.
func ModelEnv(r Runner, golden *GoldenResult, profile *core.Profile) faultmodel.Env {
	r = r.applyDefaults()
	env := faultmodel.Env{Family: r.Family, NumSMs: r.NumSMs, Kernels: golden.Kernels}
	if profile != nil {
		env.OpcodeTotals = profile.OpcodeTotals()
	}
	return env
}

// RunModel performs one experiment under an arbitrary fault model: the
// model's injector for p, built against env (see run).
func (r Runner) RunModel(ctx context.Context, w Workload, golden *GoldenResult,
	m faultmodel.Model, p core.TransientParams, param string, env faultmodel.Env) (*RunResult, error) {
	inj, err := m.NewInjector(p, param, env)
	if err != nil {
		return nil, err
	}
	return r.run(ctx, w, golden, inj, restorePoint{})
}

// RunPermanent performs one permanent-fault experiment (see run). gate, when
// non-nil, makes the fault intermittent; dict, when non-nil, overrides
// corruption per opcode.
func (r Runner) RunPermanent(ctx context.Context, w Workload, golden *GoldenResult, p core.PermanentParams,
	gate core.ActivationGate, dict core.FaultDictionary) (*RunResult, error) {
	r = r.applyDefaults()
	inj, err := core.NewPermanentInjector(p, r.Family, r.NumSMs)
	if err != nil {
		return nil, err
	}
	if gate != nil {
		inj.SetGate(gate)
	}
	if dict != nil {
		inj.SetDictionary(dict)
	}
	return r.run(ctx, w, golden, inj, restorePoint{})
}

// TransientCampaignConfig parameterizes RunTransientCampaign.
type TransientCampaignConfig struct {
	// Injections is the number of faults to inject (paper: 100 per program
	// for the example campaign; 1000 for tighter confidence).
	Injections int
	// Group is the arch state id to sample from (default G_GPPR: any
	// instruction with a destination).
	Group sass.Group
	// BitFlip is the corruption model (default FLIP_SINGLE_BIT).
	BitFlip core.BitFlipModel
	// Seed makes site selection reproducible.
	Seed int64
	// Parallel bounds concurrent experiments. Zero defaults to
	// runtime.NumCPU(). Outcomes are independent of Parallel: every
	// experiment gets a fresh device and its fault parameters are selected
	// up front from the seed. Parallel 1 runs experiments one at a time, so
	// per-run durations measure interpreter time, not scheduler contention —
	// the setting for Figure 4-style overhead measurements.
	Parallel int
	// ResolveSites selects faults with core.SelectTransientFaultSite: the
	// same seeded stream and the same site distribution, but every parameter
	// tuple carries the static instruction index it landed on. Requires a
	// profile with site data.
	ResolveSites bool
	// Checkpoint enables the checkpoint-and-fork engine: the golden
	// trajectory is recorded once with device snapshots, and every
	// experiment restores from the snapshot nearest its injection point
	// instead of re-executing the fault-free prefix, with early-exit
	// classification at later checkpoint boundaries. Implies ResolveSites.
	// Per-run classifications are identical to a from-scratch campaign with
	// the same seed — the differential test in checkpoint_test.go holds the
	// two byte-equal.
	Checkpoint bool
	// CkptStride overrides the automatic checkpoint stride (in global warp
	// instructions). Zero derives it from the golden run's length
	// (autoCheckpointStride).
	CkptStride uint64
	// NoEarlyExit keeps checkpointed restores but disables early-exit
	// classification, forcing every experiment to run to completion.
	NoEarlyExit bool
	// TargetCI enables adaptive statistical sampling: the campaign stops at
	// the first shard boundary where the stratified Wilson interval on the
	// SDC share has half-width at most TargetCI at the Confidence level,
	// instead of running all MaxInjections experiments. Selection is
	// unchanged — the seeded per-shard streams are simply consumed in order
	// until the estimate converges — so the decision is a pure function of
	// (seed, completed-shard prefix) and a distributed run stops at exactly
	// the same shard as the in-process runner. Implies ResolveSites. Zero
	// (the default) disables adaptive sampling; the new fields are omitted
	// from the encoding so fixed-count campaigns keep their prior bytes.
	TargetCI float64 `json:",omitempty"`
	// Confidence is the adaptive stopping rule's confidence level (default
	// 0.95). Only meaningful with TargetCI > 0.
	Confidence float64 `json:",omitempty"`
	// MaxInjections caps an adaptive campaign's selection budget (default:
	// Injections). With TargetCI > 0 the campaign's selection identity —
	// shard count, per-shard streams — is that of a fixed MaxInjections-
	// experiment campaign; convergence just stops consuming it early.
	MaxInjections int `json:",omitempty"`
	// Model names the fault model (internal/faultmodel registry). Empty means
	// the default transient destination-register flip, and encodes to the
	// byte-identical config of builds that predate the subsystem. A non-default
	// model implies site-resolved selection filtered to the model's eligible
	// opcodes, and folds the model name into the selection seed — the model is
	// part of the campaign's identity, like Seed and ShardSize.
	Model string `json:",omitempty"`
	// ModelParam is the model's parameter string (e.g. "value=0,bit=17" for
	// stuck). Validated by the model; empty is always valid.
	ModelParam string `json:",omitempty"`
	// ShardSize is the number of experiments per selection shard (default
	// DefaultShardSize). Fault selection is blocked by shard: experiments
	// [s*ShardSize, (s+1)*ShardSize) draw their parameters from a dedicated
	// RNG seeded with ShardSeed(Seed, s), so a distributed campaign whose
	// workers select their own shards produces exactly the parameter list —
	// hence exactly the tally — of a single process with the same Seed and
	// ShardSize. Changing ShardSize changes which faults a given seed
	// selects; it is part of the campaign's identity, like Seed.
	ShardSize int
}

// Canonical returns the config with an explicit default-model name folded
// to the empty string, so that `-model=transient` configs encode
// byte-identically to configs that never mention a model. It is the config
// as a job journal and status carry it; withDefaults starts from it.
func (c TransientCampaignConfig) Canonical() TransientCampaignConfig {
	if c.Model == faultmodel.DefaultName {
		c.Model = ""
	}
	return c
}

// UnmarshalJSON decodes a config, reading the Prune and Classes flags that
// older builds wrote as ResolveSites: both drew from the site-resolved
// population, so a parent spec keeps selecting the faults it selected.
func (c *TransientCampaignConfig) UnmarshalJSON(b []byte) error {
	type plain TransientCampaignConfig
	var w struct {
		plain
		Prune, Classes bool
	}
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*c = TransientCampaignConfig(w.plain)
	c.ResolveSites = c.ResolveSites || w.Prune || w.Classes
	return nil
}

// withDefaults is the one place a config's defaults are applied: every
// campaign, shard plan, selection and adaptive decision runs on its result.
func (c TransientCampaignConfig) withDefaults() TransientCampaignConfig {
	c = c.Canonical()
	if c.Injections == 0 {
		c.Injections = 100
	}
	if c.Group == 0 {
		c.Group = sass.GroupGPPR
		if c.Model != "" {
			if m, err := faultmodel.Lookup(c.Model); err == nil {
				c.Group = m.DefaultGroup()
			}
		}
	}
	if c.BitFlip == 0 {
		c.BitFlip = core.FlipSingleBit
	}
	if c.Parallel <= 0 {
		c.Parallel = runtime.NumCPU()
	}
	if c.ShardSize <= 0 {
		c.ShardSize = DefaultShardSize
	}
	if c.TargetCI > 0 {
		if c.Confidence == 0 {
			c.Confidence = DefaultConfidence
		}
		if c.MaxInjections == 0 {
			c.MaxInjections = c.Injections
		}
		// The selection identity of an adaptive campaign is the full
		// MaxInjections budget; NumShards/ShardRange and the per-shard
		// streams are those of a fixed MaxInjections-experiment campaign.
		c.Injections = c.MaxInjections
	}
	return c
}

// model resolves the config's fault model — the transient flip for the
// default — and holds the config to it. These are the guard rails
// NewShardPlan and the service's spec validation share: the model must
// exist and accept ModelParam, checkpointing needs a model that declares it
// sound (snapshot restore assumes a single-shot fault, so an unsound
// combination is refused rather than silently miscounted), a bit-flip model
// or instruction group that is
// set must be a valid one, the counts must not be negative, a target CI and
// its confidence must lie in (0,1), and the checkpoint knobs need Checkpoint.
// It holds before and after withDefaults alike.
func (c TransientCampaignConfig) model() (faultmodel.Model, error) {
	m, err := faultmodel.Lookup(c.Model)
	if err != nil {
		return nil, err
	}
	if err := m.ValidateParam(c.ModelParam); err != nil {
		return nil, err
	}
	if c.Checkpoint && !m.Caps().Has(faultmodel.CapCheckpoint) {
		return nil, fmt.Errorf("campaign: fault model %q does not support checkpointing (-checkpoint: snapshot restore assumes a single-shot fault after a fault-free prefix)", m.Name())
	}
	if c.BitFlip != 0 && !c.BitFlip.Valid() {
		return nil, fmt.Errorf("campaign: invalid bit-flip model %d", c.BitFlip)
	}
	if c.Group != 0 && !c.Group.Valid() {
		return nil, fmt.Errorf("campaign: invalid instruction group %v", c.Group)
	}
	if c.Injections < 0 || c.MaxInjections < 0 {
		return nil, fmt.Errorf("campaign: negative injection count (%d, max %d)", c.Injections, c.MaxInjections)
	}
	if c.TargetCI < 0 || c.TargetCI >= 1 {
		return nil, fmt.Errorf("campaign: target CI %v outside (0,1)", c.TargetCI)
	}
	// Zero is the default confidence; anything else the stopping rule cannot
	// evaluate would never converge and silently run the whole budget.
	if !(c.Confidence >= 0 && c.Confidence < 1) {
		return nil, fmt.Errorf("campaign: confidence %v outside (0,1)", c.Confidence)
	}
	if (c.CkptStride != 0 || c.NoEarlyExit) && !c.Checkpoint {
		return nil, fmt.Errorf("campaign: a checkpoint stride or no-early-exit needs checkpointing (-ckpt-stride and -no-early-exit require -ckpt)")
	}
	return m, nil
}

// Validate applies NewShardPlan's guard rails to the config alone, before
// any workload runs — what a campaign service checks at submission.
func (c TransientCampaignConfig) Validate() error {
	_, err := c.model()
	return err
}

// DefaultConfidence is the adaptive stopping rule's default confidence
// level.
const DefaultConfidence = 0.95

// NumShards returns how many selection shards the campaign splits into.
func (c TransientCampaignConfig) NumShards() int {
	c = c.withDefaults()
	return (c.Injections + c.ShardSize - 1) / c.ShardSize
}

// ShardRange returns the half-open experiment range [lo, hi) of one shard.
func (c TransientCampaignConfig) ShardRange(shard int) (lo, hi int) {
	c = c.withDefaults()
	lo = shard * c.ShardSize
	hi = min(lo+c.ShardSize, c.Injections)
	return lo, hi
}

// CampaignResult aggregates one campaign.
type CampaignResult struct {
	Program       string
	Tally         *Tally
	Weighted      *stats.WeightedTally // permanent campaigns: weighted by opcode activity
	Runs          []RunResult
	GoldenTime    time.Duration
	TotalRunTime  time.Duration // sum of experiment durations
	MedianRunTime time.Duration
	// Adaptive describes the stopping decision of an adaptive campaign
	// (TargetCI > 0); nil otherwise.
	Adaptive *AdaptiveResult
	// Model and ModelParam echo the campaign's fault model (empty for the
	// default transient flip).
	Model      string
	ModelParam string
}

// RunTransientCampaign selects cfg.Injections faults from the profile and
// runs one experiment per fault (Figure 1 repeated N times; the data behind
// Figure 2). Selection is blocked by shard (see ShardSeed), so the same
// campaign distributed over internal/serve workers produces a byte-identical
// tally. Cancelling ctx stops in-flight experiments promptly and returns
// the partial result alongside the context error.
func RunTransientCampaign(ctx context.Context, r Runner, w Workload, golden *GoldenResult,
	profile *core.Profile, cfg TransientCampaignConfig) (*CampaignResult, error) {
	plan, err := NewShardPlan(r, w, golden, profile, cfg)
	if err != nil {
		return nil, err
	}
	if plan.cfg.TargetCI > 0 {
		return runAdaptiveCampaign(ctx, plan)
	}
	params, err := plan.selectAll()
	if err != nil {
		return nil, err
	}
	return plan.summarize(plan.runRange(ctx, params))
}

// filterOK returns the results whose runs completed without error.
func filterOK(results []RunResult, errs []error) []RunResult {
	ok := make([]RunResult, 0, len(results))
	for i := range results {
		if errs[i] == nil {
			ok = append(ok, results[i])
		}
	}
	return ok
}

// RunPermanentCampaign runs one permanent fault per executed opcode and
// weights each outcome by that opcode's share of dynamic instructions (the
// data behind Figure 3). bf, seed and parallel are the config fields of the
// same names, held to the same rules and defaults. Cancelling ctx stops
// in-flight experiments promptly and returns the partial result alongside
// the context error.
func RunPermanentCampaign(ctx context.Context, r Runner, w Workload, golden *GoldenResult,
	profile *core.Profile, bf core.BitFlipModel, seed int64, parallel int) (*CampaignResult, error) {
	cfg := TransientCampaignConfig{BitFlip: bf, Seed: seed, Parallel: parallel}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	r = r.applyDefaults()
	faults, err := core.SelectPermanentFaults(profile, r.Family, r.NumSMs, cfg.BitFlip, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return nil, err
	}
	results := make([]RunResult, len(faults))
	errs := make([]error, len(faults))
	runClaimed(ctx, cfg.Parallel, len(faults), errs, func(i int) error {
		res, err := r.RunPermanent(ctx, w, golden, *faults[i], nil, nil)
		if err == nil {
			results[i] = *res
		}
		return err
	})
	totals := profile.OpcodeTotals()
	opset := sass.OpcodeSet(r.Family)
	weighted := &stats.WeightedTally{}
	for i := range results {
		if errs[i] == nil {
			weighted.Add(results[i].Class.Outcome.String(), float64(totals[opset[faults[i].OpcodeID]]))
		}
	}
	return summarize(w.Name(), golden, results, errs, weighted)
}

// summarize folds the runs that completed (errs[i] == nil) into a campaign
// result and returns it with the other runs' errors joined: a campaign with
// failed or cancelled experiments degrades to its partial result. A tally
// that is not conserved is an error, with no result.
func summarize(name string, golden *GoldenResult, results []RunResult, errs []error,
	weighted *stats.WeightedTally) (*CampaignResult, error) {
	err := errors.Join(errs...)
	if err != nil {
		results = filterOK(results, errs)
	}
	tally := TallyRuns(results)
	if weighted != nil {
		// Fig. 3 weighs every opcode's outcome, fired on the target lane or
		// not; a permanent campaign has never counted NotActivated.
		tally.NotActivated = 0
	}
	if cerr := conserved(tally, len(results)); cerr != nil {
		return nil, errors.Join(err, cerr)
	}
	var total time.Duration
	durs := make([]time.Duration, 0, len(results))
	for i := range results {
		total += results[i].Duration
		durs = append(durs, results[i].Duration)
	}
	return &CampaignResult{
		Program:       name,
		Tally:         tally,
		Weighted:      weighted,
		Runs:          results,
		GoldenTime:    golden.Duration,
		TotalRunTime:  total,
		MedianRunTime: median(durs),
	}, err
}

// conserved checks a tally before a campaign returns it: its counters agree
// with one another (Tally.Check), and N counts exactly the runs it was folded
// from.
func conserved(t *Tally, runs int) error {
	if err := t.Check(); err != nil {
		return err
	}
	if t.N != runs {
		return fmt.Errorf("campaign: tally counts %d runs, %d completed", t.N, runs)
	}
	return nil
}

func median(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := slices.Clone(d)
	slices.Sort(s)
	return s[len(s)/2]
}
