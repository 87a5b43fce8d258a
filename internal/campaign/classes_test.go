package campaign_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/report"
	"repro/internal/specaccel"
)

// classSrc is a kernel engineered to be class-heavy in the way the campaign
// can exploit: most sites sit in provably-masked equivalence classes. Eight
// identical dead immediate moves form one empty-shadow class (the pruner's
// case, here the degenerate class), and sixteen transitively-dead MOV/IADD
// chains — each MOV is read once, but only by an IADD whose result dies —
// form two masked classes the pruner cannot prove but the shadow pass can.
// The live tail (address chain plus four IADD→STG idioms) classes as a
// data-bearing shadow, which the campaign deliberately runs individually:
// whether a stored corruption reaches the checked output is dynamic, so
// only masked classes may answer members.
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

// runPair runs the same campaign with class sampling off and on and returns
// both results.
func runPair(t *testing.T, w campaign.Workload, injections int, seed int64) (off, on *campaign.CampaignResult) {
	t.Helper()
	r := campaign.Runner{}
	golden, err := r.Golden(w)
	if err != nil {
		t.Fatal(err)
	}
	profile, _, err := r.Profile(w, core.Exact)
	if err != nil {
		t.Fatal(err)
	}
	base := campaign.TransientCampaignConfig{Injections: injections, Seed: seed, ResolveSites: true}
	off, err = campaign.RunTransientCampaign(context.Background(), r, w, golden, profile, base)
	if err != nil {
		t.Fatal(err)
	}
	classed := base
	classed.Classes = true
	on, err = campaign.RunTransientCampaign(context.Background(), r, w, golden, profile, classed)
	if err != nil {
		t.Fatal(err)
	}
	return off, on
}

// assertRunsMatch holds the class-sampled campaign to the full campaign
// run for run: every answered member's inherited classification must equal
// what actually injecting that member produced.
func assertRunsMatch(t *testing.T, w campaign.Workload, off, on *campaign.CampaignResult) {
	t.Helper()
	if on.Tally.N != off.Tally.N {
		t.Fatalf("%s: run counts differ: classed %d, full %d", w.Name(), on.Tally.N, off.Tally.N)
	}
	for i := range on.Runs {
		if on.Runs[i].Class != off.Runs[i].Class {
			t.Fatalf("%s: run %d classified %v classed vs %v full (site %s#%d, answered=%v)",
				w.Name(), i, on.Runs[i].Class, off.Runs[i].Class,
				on.Runs[i].Injection.Kernel, on.Runs[i].Injection.InstrIdx, on.Runs[i].ClassAnswered)
		}
		a, b := on.Runs[i].Injection, off.Runs[i].Injection
		if a.Kernel != b.Kernel || a.InstrIdx != b.InstrIdx {
			t.Fatalf("%s: run %d site %s#%d classed vs %s#%d full",
				w.Name(), i, a.Kernel, a.InstrIdx, b.Kernel, b.InstrIdx)
		}
	}
	for _, o := range []campaign.Outcome{campaign.Masked, campaign.SDC, campaign.DUE} {
		if on.Tally.Counts[o] != off.Tally.Counts[o] {
			t.Errorf("%s: %v count: classed %d, full %d", w.Name(), o, on.Tally.Counts[o], off.Tally.Counts[o])
		}
	}
	if on.Tally.PotentialDUEs != off.Tally.PotentialDUEs {
		t.Errorf("%s: potential DUEs: classed %d, full %d", w.Name(), on.Tally.PotentialDUEs, off.Tally.PotentialDUEs)
	}
	if off.Tally.ClassReps != 0 || off.Tally.ClassAnswered != 0 {
		t.Errorf("%s: campaign without class sampling reported class counters: %+v", w.Name(), off.Tally)
	}
}

// TestClassSampleDifferential is the within-class consistency proof the
// design demands: a >=200-injection campaign with class sampling enabled
// answers a substantial fraction of its injections from representatives,
// and every answered member must classify exactly as actually injecting it
// does — which the full campaign on the same seed did, run for run.
func TestClassSampleDifferential(t *testing.T) {
	w := classWorkload{}
	off, on := runPair(t, w, 240, 31)
	if on.Tally.ClassAnswered == 0 {
		t.Fatal("class-heavy campaign answered no members from representatives")
	}
	if on.Tally.ClassReps == 0 {
		t.Fatal("class-heavy campaign ran no representatives")
	}
	assertRunsMatch(t, w, off, on)
	// Answered members must point at real class members: site resolved, not
	// activated-flag laundering.
	answered := 0
	for i := range on.Runs {
		if !on.Runs[i].ClassAnswered {
			continue
		}
		answered++
		if on.Runs[i].ClassID == "" {
			t.Errorf("answered run %d carries no class ID", i)
		}
		if !off.Runs[i].Injection.Activated {
			t.Errorf("run %d was answered by a representative but its injected twin never activated", i)
		}
	}
	if answered != on.Tally.ClassAnswered {
		t.Errorf("tally says %d answered, runs say %d", on.Tally.ClassAnswered, answered)
	}
	if sum := report.Summary(on); !strings.Contains(sum, "class reps answered") {
		t.Errorf("CLI summary does not surface class sampling: %q", sum)
	}
	t.Logf("classed campaign: %d reps answered %d of %d injections; tallies %v",
		on.Tally.ClassReps, on.Tally.ClassAnswered, on.Tally.N, on.Tally)
}

// TestClassSampleDifferentialWorkloads sweeps the bundled SPEC ACCEL
// workloads: on every one, the classed campaign must match the full
// campaign run for run. Real kernels class far more sparsely than the
// synthetic workload — many singleton classes, many unclassable sites — so
// this is the soundness check on real code, not a coverage check.
func TestClassSampleDifferentialWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite differential sweep")
	}
	answered := 0
	for _, w := range specaccel.All() {
		off, on := runPair(t, w, 40, 7)
		assertRunsMatch(t, w, off, on)
		answered += on.Tally.ClassAnswered
	}
	t.Logf("bundled workloads: %d injections answered from representatives", answered)
}

// TestClassesOffByteIdentity: with Classes off, every output surface —
// tally JSON, summary JSON, run log — must be byte-identical to what the
// pipeline produced before class sampling existed: no class fields, no
// class annotations.
func TestClassesOffByteIdentity(t *testing.T) {
	w := classWorkload{}
	r := campaign.Runner{}
	golden, err := r.Golden(w)
	if err != nil {
		t.Fatal(err)
	}
	profile, _, err := r.Profile(w, core.Exact)
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.RunTransientCampaign(context.Background(), r, w, golden, profile,
		campaign.TransientCampaignConfig{Injections: 50, Seed: 3, ResolveSites: true, Prune: true})
	if err != nil {
		t.Fatal(err)
	}
	tj, err := json.Marshal(res.Tally)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(tj), `"class_reps"`) || strings.Contains(string(tj), `"class_answered"`) {
		t.Errorf("tally JSON leaks class fields with classing off: %s", tj)
	}
	var sj bytes.Buffer
	if err := report.WriteSummaryJSON(&sj, res); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sj.String(), `"classes"`) {
		t.Errorf("summary JSON leaks class fields with classing off: %s", sj.String())
	}
	var rl bytes.Buffer
	if err := report.WriteRunLog(&rl, res); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(rl.String(), " class=") {
		t.Errorf("run log leaks class annotations with classing off:\n%s", rl.String())
	}
	if campaign.ClassWeighted(res.Runs) != nil {
		t.Error("ClassWeighted is non-nil for a campaign without class sampling")
	}
}

// TestClassShardEquivalence: running every shard separately through
// ShardPlan.RunShard (the service worker path) and merging the per-shard
// tallies must reproduce the in-process classed campaign byte for byte —
// the no-double-counting guarantee class-partitioned job specs rely on.
func TestClassShardEquivalence(t *testing.T) {
	w := classWorkload{}
	r := campaign.Runner{}
	golden, err := r.Golden(w)
	if err != nil {
		t.Fatal(err)
	}
	profile, _, err := r.Profile(w, core.Exact)
	if err != nil {
		t.Fatal(err)
	}
	cfg := campaign.TransientCampaignConfig{Injections: 120, Seed: 9, Classes: true}
	inproc, err := campaign.RunTransientCampaign(context.Background(), r, w, golden, profile, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := campaign.NewShardPlan(r, w, golden, profile, cfg)
	if err != nil {
		t.Fatal(err)
	}
	merged := campaign.NewTally()
	for s := 0; s < plan.NumShards(); s++ {
		results, err := plan.RunShard(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		merged.Merge(campaign.TallyRuns(results))
	}
	got, err := json.Marshal(merged)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(inproc.Tally)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("per-shard tallies diverge from in-process campaign:\nshards:     %s\nin-process: %s", got, want)
	}
}

// TestClassWeightedAggregation: the weighted view gives each representative
// the weight of the injections it answers for, and the effective sample
// size honestly reflects that a representative is one observation.
func TestClassWeightedAggregation(t *testing.T) {
	w := classWorkload{}
	_, on := runPair(t, w, 240, 31)
	wt := campaign.ClassWeighted(on.Runs)
	if wt == nil {
		t.Fatal("classed campaign has no weighted view")
	}
	executed := float64(on.Tally.N - on.Tally.ClassAnswered - on.Tally.Pruned)
	if total := wt.Total(); math.Abs(total-float64(on.Tally.N-on.Tally.Pruned)) > 1e-6 {
		t.Errorf("weighted total %v, want %d (N minus pruned)", total, on.Tally.N-on.Tally.Pruned)
	}
	neff := wt.EffectiveSampleSize()
	if neff <= 0 || neff > executed {
		t.Errorf("effective sample size %v outside (0, %v]", neff, executed)
	}
	for _, cat := range []string{"SDC", "Masked"} {
		iv, err := wt.ShareCI(cat, report.ClassConfidence)
		if err != nil {
			t.Fatal(err)
		}
		if iv.Lo > iv.P || iv.P > iv.Hi {
			t.Errorf("%s interval %+v does not bracket its estimate", cat, iv)
		}
	}
	var buf bytes.Buffer
	if err := report.WriteSummaryJSON(&buf, on); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"classes":{"reps":`) {
		t.Errorf("summary JSON missing classes block: %s", buf.String())
	}
}

// TestClassesRequireKernels: class sampling against a golden result that
// predates kernel capture must fail loudly instead of silently running
// everything.
func TestClassesRequireKernels(t *testing.T) {
	w := classWorkload{}
	r := campaign.Runner{}
	golden, err := r.Golden(w)
	if err != nil {
		t.Fatal(err)
	}
	profile, _, err := r.Profile(w, core.Exact)
	if err != nil {
		t.Fatal(err)
	}
	stale := *golden
	stale.Kernels = nil
	_, err = campaign.RunTransientCampaign(context.Background(), r, w, &stale, profile,
		campaign.TransientCampaignConfig{Injections: 4, Seed: 1, Classes: true})
	if err == nil || !strings.Contains(err.Error(), "no kernels") {
		t.Fatalf("class sampling with kernel-less golden result: err = %v", err)
	}
}

// benchClassCampaign times a 240-injection site-resolved campaign over the
// class-heavy workload with and without class sampling, reporting how many
// experiments actually executed. The classed campaign must execute at least
// 2x fewer experiments for the identical outcome tally (hence an identical
// N-based confidence interval; the conservative Kish interval is reported
// alongside in the summary).
func benchClassCampaign(b *testing.B, classes bool) {
	w := classWorkload{}
	r := campaign.Runner{}
	golden, err := r.Golden(w)
	if err != nil {
		b.Fatal(err)
	}
	profile, _, err := r.Profile(w, core.Exact)
	if err != nil {
		b.Fatal(err)
	}
	cfg := campaign.TransientCampaignConfig{
		Injections: 240, Seed: 31, ResolveSites: true, Classes: classes, Parallel: 1,
	}
	b.ResetTimer()
	var executed int
	for i := 0; i < b.N; i++ {
		res, err := campaign.RunTransientCampaign(context.Background(), r, w, golden, profile, cfg)
		if err != nil {
			b.Fatal(err)
		}
		executed = res.Tally.N - res.Tally.ClassAnswered - res.Tally.Pruned
		if classes && 2*executed > res.Tally.N {
			b.Fatalf("classed campaign executed %d of %d experiments, want at most half", executed, res.Tally.N)
		}
	}
	b.ReportMetric(float64(executed), "experiments/op")
}

func BenchmarkTransientCampaignUnclassed(b *testing.B) { benchClassCampaign(b, false) }
func BenchmarkTransientCampaignClassed(b *testing.B)   { benchClassCampaign(b, true) }
