package campaign

import (
	"context"
	"errors"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/faultmodel"
	"repro/internal/sass"
	"repro/internal/sassan"
	"repro/internal/stats"
)

// Adaptive statistical sampling. A fixed-count campaign runs every selected
// experiment; the adaptive engine (TargetCI > 0) instead treats the
// Masked/SDC/DUE shares as estimates and stops at the first shard boundary
// where the pooled SDC-share interval is tight enough. The estimator is
// post-stratified over fault-equivalence classes: the seeded selection
// stream is untouched (so determinism and the distributed byte-identity
// invariant survive unchanged), but each resolved site is assigned to a
// stratum — its sassan equivalence class, or the residual stratum of
// unclassable sites — and per-stratum outcome proportions are pooled with
// the full selection's stratum composition as weights. Provably-masked
// classes are *certain* strata: their outcome is statically invariant, so
// they contribute population weight but zero sampling variance.

// ResidualStratum keys the stratum of sites no equivalence class covers:
// unresolved sites, untrusted kernels, and unclassable shadows.
const ResidualStratum = "~"

// stratifier assigns resolved injection sites to sampling strata: the
// sassan fault-equivalence class (sassan.BuildClassTable) of the site, data-
// bearing classes included, since strata need only be homogeneous-ish, not
// provably outcome-invariant. It only trusts kernels the golden run decoded
// and that pass static verification; sites in any other kernel fall in the
// residual stratum.
type stratifier struct {
	kernels map[string]*sass.Kernel
	tables  map[string]*sassan.ClassTable // nil entry: kernel not statically trustworthy
	// noCertain suppresses the certain (zero-variance) marking of provably-
	// masked strata: the masked proof holds for destination-flip semantics,
	// so fault models without CapCertainStrata keep the stratum keys (the
	// grouping is still variance-reducing) but sample every stratum.
	noCertain bool
}

func newStratifier(golden *GoldenResult, cfg TransientCampaignConfig) *stratifier {
	return &stratifier{kernels: golden.Kernels, tables: make(map[string]*sassan.ClassTable), noCertain: noCertainStrata(cfg)}
}

// table returns the cached class table for a kernel, or nil when the kernel
// is unknown or fails static verification.
func (st *stratifier) table(name string) *sassan.ClassTable {
	if t, ok := st.tables[name]; ok {
		return t
	}
	var t *sassan.ClassTable
	if k := st.kernels[name]; k != nil {
		if a := sassan.Analyze(k); !sassan.HasErrors(a.Verify()) {
			t = a.BuildClassTable()
		}
	}
	st.tables[name] = t
	return t
}

// classify returns the stratum key of a parameter tuple's injection site
// and whether the stratum's outcome is statically certain (a provably-
// masked class).
func (st *stratifier) classify(p core.TransientParams) (string, bool) {
	if !p.SiteResolved {
		return ResidualStratum, false
	}
	t := st.table(p.KernelName)
	if t == nil {
		return ResidualStratum, false
	}
	instrs := st.kernels[p.KernelName].Instrs
	i := p.StaticInstrIdx
	if i < 0 || i >= len(instrs) {
		return ResidualStratum, false
	}
	if !sass.GroupContains(p.Group, instrs[i].Op) {
		return ResidualStratum, false
	}
	c := t.ClassOf(i)
	if c == nil {
		return ResidualStratum, false
	}
	return p.KernelName + ":" + c.ID, c.Masked && !st.noCertain
}

// noCertainStrata reports whether the config's fault model forfeits
// certain-stratum pooling (it lacks CapCertainStrata).
func noCertainStrata(cfg TransientCampaignConfig) bool {
	m, err := faultmodel.Lookup(cfg.Model)
	if err != nil {
		return true
	}
	return !m.Caps().Has(faultmodel.CapCertainStrata)
}

// StratumWeight is one stratum's share of the full selection: how many of
// the campaign's MaxInjections experiments land in it. Weights are a pure
// function of (profile, config) — no workload runs — so the submitting
// coordinator, every worker, and the in-process runner all derive the same
// composition.
type StratumWeight struct {
	Key     string `json:"key"`
	Count   int    `json:"count"`
	Certain bool   `json:"certain,omitempty"`
}

// AdaptiveStrata computes the full-selection stratum composition of an
// adaptive campaign by selecting every shard (pure selection, no runs) and
// classifying each site. Returns nil when the config is not adaptive.
func AdaptiveStrata(golden *GoldenResult, profile *core.Profile, cfg TransientCampaignConfig) ([]StratumWeight, error) {
	cfg = cfg.withDefaults()
	if cfg.TargetCI <= 0 {
		return nil, nil
	}
	st := newStratifier(golden, cfg)
	counts := make(map[string]*StratumWeight)
	order := make([]string, 0, 8)
	for s := 0; s < cfg.NumShards(); s++ {
		params, err := SelectShard(profile, cfg, s)
		if err != nil {
			return nil, err
		}
		for i := range params {
			key, certain := st.classify(params[i])
			w := counts[key]
			if w == nil {
				w = &StratumWeight{Key: key, Certain: certain}
				counts[key] = w
				order = append(order, key)
			}
			w.Count++
		}
	}
	weights := make([]StratumWeight, 0, len(order))
	for _, key := range order {
		weights = append(weights, *counts[key])
	}
	sort.Slice(weights, func(i, j int) bool { return weights[i].Key < weights[j].Key })
	return weights, nil
}

// AdaptivePooled builds the stratified estimator for an accumulated tally
// against the full-selection stratum composition — the shared pooling step
// behind the stopping rule, the report, and the submit CLI.
func AdaptivePooled(t *Tally, weights []StratumWeight) *stats.StratifiedTally {
	st := stats.NewStratified()
	for _, w := range weights {
		st.AddStratum(w.Key, float64(w.Count), w.Certain)
	}
	for _, s := range t.Strata {
		st.Observe(s.Key, "SDC", s.SDC)
		st.Observe(s.Key, "DUE", s.DUE)
		st.Observe(s.Key, "Masked", s.Masked)
	}
	return st
}

// AdaptiveDecision evaluates the shard-boundary stopping rule on an
// accumulated tally: the achieved half-width of the stratified Wilson
// interval on the SDC share, and whether it meets cfg.TargetCI at
// cfg.Confidence. The decision depends only on the tally's strata and the
// selection-derived weights, both pure functions of (seed, completed-shard
// prefix) — which is what makes in-process and distributed runs stop at the
// identical shard.
func AdaptiveDecision(t *Tally, weights []StratumWeight, cfg TransientCampaignConfig) (halfWidth float64, converged bool) {
	cfg = cfg.withDefaults()
	if t == nil || t.N == 0 {
		return math.Inf(1), false
	}
	iv, err := AdaptivePooled(t, weights).ShareCI("SDC", cfg.Confidence)
	if err != nil {
		return math.Inf(1), false
	}
	hw := (iv.Hi - iv.Lo) / 2
	return hw, hw <= cfg.TargetCI
}

// AdaptiveResult describes an adaptive campaign's stopping decision.
type AdaptiveResult struct {
	// TargetCI, Confidence, and MaxInjections echo the defaults-applied
	// config the decision ran under.
	TargetCI      float64
	Confidence    float64
	MaxInjections int
	// Converged reports whether the stopping rule fired before the budget
	// ran out; StopShard is the last shard that ran (the stopping shard when
	// converged, the final shard otherwise).
	Converged bool
	StopShard int
	// AchievedCI is the stratified Wilson half-width on the SDC share over
	// the shards that ran.
	AchievedCI float64
	// Strata is the full-selection stratum composition the estimator pooled
	// against.
	Strata []StratumWeight
}

// runAdaptiveCampaign is the in-process adaptive loop: run shards in order,
// evaluate the stopping rule at each boundary on the accumulated tally, and
// stop at the first shard where the pooled estimate converges. The tally it
// merged shard by shard must be conserved over the runs, as the result's own.
func runAdaptiveCampaign(ctx context.Context, plan *ShardPlan) (*CampaignResult, error) {
	cfg := plan.cfg
	var all []RunResult
	var allErrs []error
	acc := NewTally()
	converged := false
	achieved := math.Inf(1)
	last := -1
	for s := 0; s < cfg.NumShards(); s++ {
		params, err := SelectShard(plan.profile, cfg, s)
		if err != nil {
			return nil, err
		}
		results, errs := plan.runRange(ctx, params)
		all = append(all, results...)
		allErrs = append(allErrs, errs...)
		if errors.Join(errs...) != nil {
			return plan.summarize(all, allErrs)
		}
		last = s
		acc.Merge(TallyRuns(results))
		achieved, converged = AdaptiveDecision(acc, plan.weights, cfg)
		if converged {
			break
		}
	}
	res, err := plan.summarize(all, nil) // every shard above completed
	if err != nil {
		return nil, err
	}
	if err := conserved(acc, len(all)); err != nil {
		return nil, err
	}
	res.Adaptive = cfg.Adaptive(converged, last, achieved, plan.weights)
	return res, nil
}

// Adaptive is the stopping decision of a campaign under c that ran up to
// stopShard, echoing c's defaults-applied stopping rule; nil when c is not
// adaptive. A campaign service rebuilds the in-process result from it.
func (c TransientCampaignConfig) Adaptive(converged bool, stopShard int, achieved float64, strata []StratumWeight) *AdaptiveResult {
	if c.TargetCI <= 0 {
		return nil
	}
	c = c.withDefaults()
	return &AdaptiveResult{
		TargetCI:      c.TargetCI,
		Confidence:    c.Confidence,
		MaxInjections: c.MaxInjections,
		Converged:     converged,
		StopShard:     stopShard,
		AchievedCI:    achieved,
		Strata:        strata,
	}
}
