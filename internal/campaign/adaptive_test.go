package campaign_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/report"
	"repro/internal/stats"
)

// adaptiveFixture runs golden+profile once for the class-heavy workload.
func adaptiveFixture(tb testing.TB) (campaign.Runner, campaign.Workload, *campaign.GoldenResult, *core.Profile) {
	tb.Helper()
	w := classWorkload{}
	r := campaign.Runner{}
	golden, err := r.Golden(w)
	if err != nil {
		tb.Fatal(err)
	}
	profile, _, err := r.Profile(w, core.Exact)
	if err != nil {
		tb.Fatal(err)
	}
	return r, w, golden, profile
}

// TestAdaptiveFullRunMatchesExhaustive is the estimator's exactness proof: on
// a run that never converges (unreachably tight target), the campaign
// consumes its whole budget, and the stratified pooled share must equal the
// exhaustive unstratified tally fraction bit for bit — post-stratification
// reweights by realized counts, so full sampling collapses every expansion
// factor to exactly one. The runs themselves must match a plain fixed-count
// campaign on the same seed, classification for classification.
func TestAdaptiveFullRunMatchesExhaustive(t *testing.T) {
	r, w, golden, profile := adaptiveFixture(t)
	fixed := campaign.TransientCampaignConfig{Injections: 150, Seed: 17, ResolveSites: true}
	plain, err := campaign.RunTransientCampaign(context.Background(), r, w, golden, profile, fixed)
	if err != nil {
		t.Fatal(err)
	}
	adaptiveCfg := fixed
	adaptiveCfg.TargetCI = 1e-9 // unreachable: forces the full budget
	res, err := campaign.RunTransientCampaign(context.Background(), r, w, golden, profile, adaptiveCfg)
	if err != nil {
		t.Fatal(err)
	}
	a := res.Adaptive
	if a == nil {
		t.Fatal("adaptive campaign returned no Adaptive block")
	}
	if a.Converged {
		t.Fatalf("campaign converged at shard %d against a 1e-9 target", a.StopShard)
	}
	if want := fixed.NumShards() - 1; a.StopShard != want {
		t.Fatalf("non-converged campaign stopped at shard %d, want final shard %d", a.StopShard, want)
	}
	if res.Tally.N != plain.Tally.N {
		t.Fatalf("adaptive full run N=%d, fixed N=%d", res.Tally.N, plain.Tally.N)
	}
	for i := range res.Runs {
		if res.Runs[i].Class != plain.Runs[i].Class {
			t.Fatalf("run %d classified %v adaptive vs %v fixed", i, res.Runs[i].Class, plain.Runs[i].Class)
		}
	}
	pooled := campaign.AdaptivePooled(res.Tally, a.Strata)
	for _, cat := range []struct {
		name string
		o    campaign.Outcome
	}{{"SDC", campaign.SDC}, {"DUE", campaign.DUE}, {"Masked", campaign.Masked}} {
		got := pooled.Share(cat.name)
		if want := res.Tally.Fraction(cat.o); got != want {
			t.Errorf("%s pooled share %v != exhaustive fraction %v", cat.name, got, want)
		}
	}
	// The design-effect interval must bracket the estimate and beat (or
	// match) simple random sampling on this certain-strata-heavy workload.
	iv, err := pooled.ShareCI("SDC", campaign.DefaultConfidence)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Lo > iv.P || iv.P > iv.Hi {
		t.Errorf("SDC interval %+v does not bracket its estimate", iv)
	}
	srs, err := stats.ProportionCI(res.Tally.Counts[campaign.SDC], res.Tally.N, campaign.DefaultConfidence)
	if err != nil {
		t.Fatal(err)
	}
	if (iv.Hi - iv.Lo) > (srs.Hi-srs.Lo)+1e-12 {
		t.Errorf("stratified interval %+v wider than SRS %+v", iv, srs)
	}
}

// TestAdaptiveEarlyStopDeterministic: a realistic target on the class-heavy
// workload converges well inside the budget, and two identical runs stop at
// the identical shard with byte-identical tallies — the stopping rule is a
// pure function of (seed, completed-shard prefix).
func TestAdaptiveEarlyStopDeterministic(t *testing.T) {
	r, w, golden, profile := adaptiveFixture(t)
	budget, err := stats.RequiredSamples(0.02, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	cfg := campaign.TransientCampaignConfig{Injections: budget, Seed: 31, TargetCI: 0.02}
	first, err := campaign.RunTransientCampaign(context.Background(), r, w, golden, profile, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := first.Adaptive
	if a == nil || !a.Converged {
		t.Fatalf("campaign did not converge within %d experiments: %+v", budget, a)
	}
	if a.AchievedCI > cfg.TargetCI {
		t.Errorf("converged with achieved half-width %v above target %v", a.AchievedCI, cfg.TargetCI)
	}
	if first.Tally.N >= budget {
		t.Errorf("converged campaign still ran the whole %d budget", budget)
	}
	second, err := campaign.RunTransientCampaign(context.Background(), r, w, golden, profile, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if second.Adaptive.StopShard != a.StopShard {
		t.Fatalf("stop shard differs across identical runs: %d vs %d", second.Adaptive.StopShard, a.StopShard)
	}
	tj1, err := json.Marshal(first.Tally)
	if err != nil {
		t.Fatal(err)
	}
	tj2, err := json.Marshal(second.Tally)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tj1, tj2) {
		t.Fatalf("tallies diverge across identical adaptive runs:\n%s\n%s", tj1, tj2)
	}
	t.Logf("converged at shard %d: %d of %d selected, achieved ±%.4f", a.StopShard, first.Tally.N, budget, a.AchievedCI)
}

// TestAdaptiveSavings holds the engine to its headline claim: reaching a
// ±2% 95% interval on the SDC share must cost at least 3x fewer executed
// experiments than the fixed budget sized for the same guarantee. A
// fixed-count campaign executes its entire selection by construction, so the
// baseline is the budget itself.
func TestAdaptiveSavings(t *testing.T) {
	r, w, golden, profile := adaptiveFixture(t)
	budget, err := stats.RequiredSamples(0.02, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	cfg := campaign.TransientCampaignConfig{Injections: budget, Seed: 31, TargetCI: 0.02}
	res, err := campaign.RunTransientCampaign(context.Background(), r, w, golden, profile, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Adaptive.Converged {
		t.Fatalf("campaign did not converge within the %d budget", budget)
	}
	executed := res.Tally.N
	if 3*executed > budget {
		t.Fatalf("adaptive campaign executed %d experiments; want at least 3x under the %d fixed budget", executed, budget)
	}
	// The summary must surface the statistical block.
	if sum := report.Summary(res); !strings.Contains(sum, "converged at shard") {
		t.Errorf("summary does not surface convergence: %q", sum)
	}
	var buf bytes.Buffer
	if err := report.WriteSummaryJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"statistical"`, `"target_ci"`, `"strata"`} {
		if !strings.Contains(buf.String(), key) {
			t.Errorf("summary JSON missing %s: %s", key, buf.String())
		}
	}
	t.Logf("adaptive executed %d vs fixed %d (%.1fx fewer)", executed, budget, float64(budget)/float64(executed))
}

// TestAdaptiveOffByteIdentity: with TargetCI zero, no adaptive field may
// leak into any output surface — config, tally, summary JSON, or run log —
// so fixed-count campaigns stay byte-identical to builds predating the
// adaptive engine.
func TestAdaptiveOffByteIdentity(t *testing.T) {
	r, w, golden, profile := adaptiveFixture(t)
	cfg := campaign.TransientCampaignConfig{Injections: 50, Seed: 3, ResolveSites: true}
	cj, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"TargetCI", "Confidence", "MaxInjections"} {
		if strings.Contains(string(cj), key) {
			t.Errorf("fixed-count config JSON leaks %s: %s", key, cj)
		}
	}
	res, err := campaign.RunTransientCampaign(context.Background(), r, w, golden, profile, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Adaptive != nil {
		t.Error("fixed-count campaign carries an Adaptive block")
	}
	tj, err := json.Marshal(res.Tally)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(tj), `"strata"`) {
		t.Errorf("fixed-count tally JSON leaks strata: %s", tj)
	}
	var sj bytes.Buffer
	if err := report.WriteSummaryJSON(&sj, res); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sj.String(), `"statistical"`) {
		t.Errorf("fixed-count summary JSON leaks the statistical block: %s", sj.String())
	}
}

// benchAdaptiveCampaign reports how many experiments a ±2%/95% campaign
// executes with the adaptive engine on versus the fixed budget sized for the
// same guarantee; BENCH_campaign.json tracks the ratio.
func benchAdaptiveCampaign(b *testing.B, adaptive bool) {
	r, w, golden, profile := adaptiveFixture(b)
	budget, err := stats.RequiredSamples(0.02, 0.95)
	if err != nil {
		b.Fatal(err)
	}
	cfg := campaign.TransientCampaignConfig{Injections: budget, Seed: 31, Parallel: 1}
	if adaptive {
		cfg.TargetCI = 0.02
	}
	b.ResetTimer()
	var executed int
	for i := 0; i < b.N; i++ {
		res, err := campaign.RunTransientCampaign(context.Background(), r, w, golden, profile, cfg)
		if err != nil {
			b.Fatal(err)
		}
		executed = res.Tally.N
		if adaptive && 3*executed > budget {
			b.Fatalf("adaptive campaign executed %d of the %d budget, want at least 3x fewer", executed, budget)
		}
	}
	b.ReportMetric(float64(executed), "experiments/op")
}

func BenchmarkTransientCampaignAdaptive(b *testing.B)    { benchAdaptiveCampaign(b, true) }
func BenchmarkTransientCampaignFixedBudget(b *testing.B) { benchAdaptiveCampaign(b, false) }

// classSrc is a kernel engineered to be class-heavy, so adaptive strata have
// something to pool: most sites sit in provably-masked equivalence classes,
// which are certain (zero-variance) strata. Eight identical dead immediate
// moves form one empty-shadow class, and sixteen transitively-dead MOV/IADD
// chains — each MOV is read once, but only by an IADD whose result dies —
// form two masked classes. The live tail (address chain plus four IADD→STG
// idioms) classes as a data-bearing shadow, a sampled stratum: whether a
// stored corruption reaches the checked output is dynamic.
const classSrc = `
.kernel classk
.param outptr
    S2R R0, SR_TID.X
    SHL R3, R0, 0x2
    IADD R4, R3, c0[outptr]
    MOV R10, 0x1
    MOV R11, 0x1
    MOV R12, 0x1
    MOV R13, 0x1
    MOV R14, 0x1
    MOV R15, 0x1
    MOV R16, 0x1
    MOV R17, 0x1
    MOV R20, R0
    IADD R21, R20, 0x1
    MOV R20, R0
    IADD R21, R20, 0x2
    MOV R20, R0
    IADD R21, R20, 0x3
    MOV R20, R0
    IADD R21, R20, 0x4
    MOV R20, R0
    IADD R21, R20, 0x5
    MOV R20, R0
    IADD R21, R20, 0x6
    MOV R20, R0
    IADD R21, R20, 0x7
    MOV R20, R0
    IADD R21, R20, 0x8
    MOV R20, R0
    IADD R21, R20, 0x9
    MOV R20, R0
    IADD R21, R20, 0xa
    MOV R20, R0
    IADD R21, R20, 0xb
    MOV R20, R0
    IADD R21, R20, 0xc
    MOV R20, R0
    IADD R21, R20, 0xd
    MOV R20, R0
    IADD R21, R20, 0xe
    MOV R20, R0
    IADD R21, R20, 0xf
    MOV R20, R0
    IADD R21, R20, 0x10
    IADD R5, R0, 0x1
    STG.32 [R4], R5
    IADD R5, R0, 0x2
    STG.32 [R4+0x100], R5
    IADD R5, R0, 0x3
    STG.32 [R4+0x200], R5
    IADD R5, R0, 0x4
    STG.32 [R4+0x300], R5
    EXIT
`

// classWorkload drives classSrc: 64 threads, the full output buffer printed
// to stdout so every live corruption is observable.
type classWorkload struct{}

func (classWorkload) Name() string        { return "classheavy" }
func (classWorkload) Description() string { return "kernel with repeated classable injection idioms" }

func (classWorkload) Run(ctx *cuda.Context) (*campaign.Output, error) {
	out := campaign.NewOutput()
	mod, err := ctx.LoadModule("classes", classSrc)
	if err != nil {
		return out, err
	}
	fn, err := mod.Function("classk")
	if err != nil {
		return out, err
	}
	buf, err := ctx.Malloc(4 * 0x100)
	if err != nil {
		return out, err
	}
	cfg := cuda.LaunchConfig{Grid: gpu.Dim3{X: 1, Y: 1, Z: 1}, Block: gpu.Dim3{X: 64, Y: 1, Z: 1}}
	_ = ctx.Launch(fn, cfg, buf)
	b, err := ctx.MemcpyDtoH(buf, 4*0x100)
	if err != nil {
		return out, nil
	}
	for i := 0; i+4 <= len(b); i += 4 {
		out.Printf("%d ", binary.LittleEndian.Uint32(b[i:]))
	}
	return out, nil
}

func (classWorkload) Check(golden, observed *campaign.Output) bool { return golden.Equal(observed) }
