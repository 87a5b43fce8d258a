package campaign_test

import (
	"context"
	"testing"
	"unsafe"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/sass"
	"repro/internal/specaccel"
)

// TestRunResultSize pins the per-run record's size. A campaign result holds
// one per experiment for as long as it lives, and a benchmark window holds
// every repetition's result, so growing it should be a visible decision:
// change this figure and RunResult's packing comment together.
func TestRunResultSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the size is pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(campaign.RunResult{}); got != 144 {
		t.Fatalf("RunResult is %d bytes, want 144", got)
	}
}

// TestCampaignDeterminism: the same seed reproduces an identical tally,
// run by run.
func TestCampaignDeterminism(t *testing.T) {
	w, err := specaccel.ByName("314.omriq")
	if err != nil {
		t.Fatal(err)
	}
	r := campaign.Runner{}
	golden, err := r.Golden(w)
	if err != nil {
		t.Fatal(err)
	}
	profile, _, err := r.Profile(w, core.Exact)
	if err != nil {
		t.Fatal(err)
	}
	cfg := campaign.TransientCampaignConfig{Injections: 12, Seed: 99}
	a, err := campaign.RunTransientCampaign(context.Background(), r, w, golden, profile, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := campaign.RunTransientCampaign(context.Background(), r, w, golden, profile, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Runs {
		if a.Runs[i].Class != b.Runs[i].Class || a.Runs[i].Injection != b.Runs[i].Injection {
			t.Fatalf("run %d differs between identical campaigns", i)
		}
	}
}

// TestCampaignParallelEquivalence: running experiments concurrently must
// not change any outcome (each experiment has its own device).
func TestCampaignParallelEquivalence(t *testing.T) {
	w, err := specaccel.ByName("314.omriq")
	if err != nil {
		t.Fatal(err)
	}
	r := campaign.Runner{}
	golden, err := r.Golden(w)
	if err != nil {
		t.Fatal(err)
	}
	profile, _, err := r.Profile(w, core.Exact)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := campaign.RunTransientCampaign(context.Background(), r, w, golden, profile,
		campaign.TransientCampaignConfig{Injections: 10, Seed: 5, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := campaign.RunTransientCampaign(context.Background(), r, w, golden, profile,
		campaign.TransientCampaignConfig{Injections: 10, Seed: 5, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq.Runs {
		if seq.Runs[i].Class != par.Runs[i].Class {
			t.Fatalf("run %d: sequential %v vs parallel %v",
				i, seq.Runs[i].Class, par.Runs[i].Class)
		}
	}
}

// TestCampaignPartialResult: when every experiment fails with an
// infrastructure error, the campaign must return the joined error together
// with a partial (zero-run) result rather than discarding the summary.
func TestCampaignPartialResult(t *testing.T) {
	w, err := specaccel.ByName("314.omriq")
	if err != nil {
		t.Fatal(err)
	}
	good := campaign.Runner{}
	golden, err := good.Golden(w)
	if err != nil {
		t.Fatal(err)
	}
	profile, _, err := good.Profile(w, core.Exact)
	if err != nil {
		t.Fatal(err)
	}
	// NumSMs < 0 survives default-filling and makes every device
	// construction — hence every experiment — fail.
	broken := campaign.Runner{NumSMs: -1}
	res, err := campaign.RunTransientCampaign(context.Background(), broken, w, golden, profile,
		campaign.TransientCampaignConfig{Injections: 4, Seed: 7})
	if err == nil {
		t.Fatal("campaign with a broken runner reported no error")
	}
	if res == nil {
		t.Fatal("campaign error did not come with a partial result")
	}
	if res.Tally.N != 0 {
		t.Fatalf("partial tally counted %d runs, want 0", res.Tally.N)
	}
}

// TestGoldenRejectsFaultyWorkload: a workload that fails fault-free cannot
// anchor a campaign.
func TestGoldenRejectsFaultyWorkload(t *testing.T) {
	r := campaign.Runner{}
	if _, err := r.Golden(&brokenWorkload{}); err == nil {
		t.Fatal("golden accepted a failing workload")
	}
}

type brokenWorkload struct{}

func (b *brokenWorkload) Name() string        { return "broken" }
func (b *brokenWorkload) Description() string { return "fails fault-free" }
func (b *brokenWorkload) Run(*cuda.Context) (*campaign.Output, error) {
	o := campaign.NewOutput()
	o.ExitCode = 7
	return o, nil
}
func (b *brokenWorkload) Check(_, _ *campaign.Output) bool { return true }

// TestPermanentCampaignWeighting: outcome weights follow the profile's
// per-opcode dynamic-instruction counts.
func TestPermanentCampaignWeighting(t *testing.T) {
	w, err := specaccel.ByName("314.omriq")
	if err != nil {
		t.Fatal(err)
	}
	r := campaign.Runner{}
	golden, err := r.Golden(w)
	if err != nil {
		t.Fatal(err)
	}
	profile, _, err := r.Profile(w, core.Exact)
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.RunPermanentCampaign(context.Background(), r, w, golden, profile, core.RandomValue, 11, 1)
	if err != nil {
		t.Fatal(err)
	}
	var profTotal uint64
	for _, c := range profile.OpcodeTotals() {
		profTotal += c
	}
	if got := uint64(res.Weighted.Total()); got != profTotal {
		t.Fatalf("weighted total = %d, profile total = %d", got, profTotal)
	}
	// Shares sum to 1.
	sum := 0.0
	for _, cat := range res.Weighted.Categories() {
		sum += res.Weighted.Share(cat)
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("weighted shares sum to %v", sum)
	}
}

// TestPermanentCampaignRefusesInvalidBitFlip: a permanent campaign holds its
// bit-flip model to the transient campaign's rule, and refuses an invalid one
// with the same error before it runs anything.
func TestPermanentCampaignRefusesInvalidBitFlip(t *testing.T) {
	w, err := specaccel.ByName("314.omriq")
	if err != nil {
		t.Fatal(err)
	}
	r := campaign.Runner{}
	golden, err := r.Golden(w)
	if err != nil {
		t.Fatal(err)
	}
	profile, _, err := r.Profile(w, core.Exact)
	if err != nil {
		t.Fatal(err)
	}
	bad := core.BitFlipModel(9)
	want := campaign.TransientCampaignConfig{BitFlip: bad}.Validate()
	if want == nil {
		t.Fatal("a transient campaign accepts bit-flip model 9")
	}
	res, err := campaign.RunPermanentCampaign(context.Background(), r, w, golden, profile, bad, 11, 1)
	if err == nil || err.Error() != want.Error() || res != nil {
		t.Fatalf("permanent campaign with bit-flip model 9: %v (result returned: %v), want %q", err, res != nil, want)
	}
}

// TestHangInjectionClassifiedAsTimeout: a fault that creates an infinite
// loop is caught by the budget monitor and classified DUE/timeout.
func TestHangInjectionClassifiedAsTimeout(t *testing.T) {
	w, err := specaccel.ByName("303.ostencil")
	if err != nil {
		t.Fatal(err)
	}
	r := campaign.Runner{BudgetFactor: 3}
	golden, err := r.Golden(w)
	if err != nil {
		t.Fatal(err)
	}
	profile, _, err := r.Profile(w, core.Exact)
	if err != nil {
		t.Fatal(err)
	}
	// Sweep seeded ZERO_VALUE faults on predicate registers — loop-exit
	// predicates zeroed out are the classic hang — until one times out.
	found := false
	cfg := campaign.TransientCampaignConfig{
		Injections: 60, Seed: 1234,
		Group:   sass.GroupGP,
		BitFlip: core.RandomValue,
	}
	res, err := campaign.RunTransientCampaign(context.Background(), r, w, golden, profile, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range res.Runs {
		if run.Class.Symptom == campaign.SymptomTimeout {
			found = true
		}
	}
	if !found {
		t.Skip("no hang among 60 sampled faults on this program (possible but rare)")
	}
}
