package campaign_test

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/modcache"
	"repro/internal/sass"
	"repro/internal/specaccel"
)

// setupCampaign runs golden + exact profile for the named program.
func setupCampaign(t *testing.T, r campaign.Runner, name string) (campaign.Workload, *campaign.GoldenResult, *core.Profile) {
	t.Helper()
	w, err := specaccel.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := r.Golden(w)
	if err != nil {
		t.Fatal(err)
	}
	profile, _, err := r.Profile(w, core.Exact)
	if err != nil {
		t.Fatal(err)
	}
	return w, golden, profile
}

// expectSameCampaign compares two campaigns experiment by experiment:
// classification, injection record, and accumulated LaunchStats (which
// include the trampoline accounting) must be identical. Durations are
// wall-clock and excluded.
func expectSameCampaign(t *testing.T, label string, ref, got *campaign.CampaignResult) {
	t.Helper()
	if len(ref.Runs) != len(got.Runs) {
		t.Fatalf("%s: %d runs vs %d", label, len(got.Runs), len(ref.Runs))
	}
	for i := range ref.Runs {
		if ref.Runs[i].Class != got.Runs[i].Class {
			t.Errorf("%s: run %d classified %v, want %v", label, i, got.Runs[i].Class, ref.Runs[i].Class)
		}
		if ref.Runs[i].Injection != got.Runs[i].Injection {
			t.Errorf("%s: run %d injection\n%+v\nwant\n%+v", label, i, got.Runs[i].Injection, ref.Runs[i].Injection)
		}
		if ref.Runs[i].Stats != got.Runs[i].Stats {
			t.Errorf("%s: run %d stats %+v, want %+v", label, i, got.Runs[i].Stats, ref.Runs[i].Stats)
		}
	}
	if !reflect.DeepEqual(ref.Tally, got.Tally) {
		t.Errorf("%s: tally %+v, want %+v", label, got.Tally, ref.Tally)
	}
}

// TestLegacyPathCampaignEquivalence: campaigns on the optimized engine (the
// batched loop, the transient flip spent once it lands) must produce
// classifications, injection records, stats, and tallies identical to the
// slow paths — the per-step reference loop and the legacy scheduler —
// experiment by experiment.
func TestLegacyPathCampaignEquivalence(t *testing.T) {
	cfg := campaign.TransientCampaignConfig{Injections: 20, Seed: 11}
	base := campaign.Runner{}
	w, golden, profile := setupCampaign(t, base, "303.ostencil")
	ref, err := campaign.RunTransientCampaign(context.Background(), base, w, golden, profile, cfg)
	if err != nil {
		t.Fatal(err)
	}
	activated := 0
	for _, run := range ref.Runs {
		if run.Injection.Activated {
			activated++
		}
	}
	if activated == 0 {
		t.Fatal("no fault activated; the differential would be vacuous")
	}

	variants := []struct {
		name string
		r    campaign.Runner
	}{
		{"reference loop (NoXlate)", campaign.WithDevice(base, func(d *gpu.Device) { d.NoXlate = true })},
		{"legacy scheduler (LegacySched)", campaign.WithDevice(base, func(d *gpu.Device) { d.LegacySched = true })},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			got, err := campaign.RunTransientCampaign(context.Background(), v.r, w, golden, profile, cfg)
			if err != nil {
				t.Fatal(err)
			}
			expectSameCampaign(t, v.name, ref, got)
		})
	}
}

// TestWarmColdExperimentEquivalence: an experiment that builds every
// module cold (empty cache) and one served entirely from the warm cache
// must classify identically with identical stats — and the warm run must
// actually hit the cache.
func TestWarmColdExperimentEquivalence(t *testing.T) {
	r := campaign.Runner{}
	w, golden, profile := setupCampaign(t, r, "314.omriq")
	p, err := core.SelectTransientFault(profile, sass.GroupGPPR, core.FlipSingleBit,
		rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}

	modcache.Shared.Reset()
	before := modcache.Shared.Stats()
	cold, err := r.RunTransient(context.Background(), w, golden, *p)
	if err != nil {
		t.Fatal(err)
	}
	afterCold := modcache.Shared.Stats()
	if afterCold.AssembleBuilds == before.AssembleBuilds {
		t.Error("cold experiment built nothing; Reset did not empty the cache")
	}

	warm, err := r.RunTransient(context.Background(), w, golden, *p)
	if err != nil {
		t.Fatal(err)
	}
	afterWarm := modcache.Shared.Stats()
	if afterWarm.AssembleBuilds != afterCold.AssembleBuilds || afterWarm.DecodeBuilds != afterCold.DecodeBuilds {
		t.Errorf("warm experiment rebuilt modules: %+v -> %+v", afterCold, afterWarm)
	}
	if afterWarm.AssembleHits == afterCold.AssembleHits {
		t.Error("warm experiment never hit the assemble cache")
	}

	if cold.Class != warm.Class {
		t.Errorf("cold classified %v, warm %v", cold.Class, warm.Class)
	}
	if cold.Injection != warm.Injection {
		t.Errorf("injection records differ:\ncold %+v\nwarm %+v", cold.Injection, warm.Injection)
	}
	if cold.Stats != warm.Stats {
		t.Errorf("stats differ: cold %+v, warm %+v", cold.Stats, warm.Stats)
	}
}

// TestSharedKernelImmutabilityRace: concurrent experiments alias the same
// cached module state. Under -race this test proves no experiment writes
// it: the decoded kernels' contents must be bit-identical to pre-campaign
// clones afterwards. Guards the aliasing the module cache introduced.
func TestSharedKernelImmutabilityRace(t *testing.T) {
	r := campaign.Runner{}
	w, golden, profile := setupCampaign(t, r, "314.omriq")

	// Load the workload's modules on a scratch context to reach the shared
	// assembled and decoded kernel views.
	dev, err := gpu.NewDevice(sass.FamilyVolta, 8)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := cuda.NewContext(dev)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	var shared []*sass.Kernel
	for _, m := range ctx.Modules() {
		shared = append(shared, m.Kernels()...)
		decoded, _, err := modcache.Shared.Decode(m.Family(), m.Binary())
		if err != nil {
			t.Fatal(err)
		}
		shared = append(shared, decoded.Kernels...)
	}
	if len(shared) == 0 {
		t.Fatal("workload loaded no kernels")
	}
	snaps := make([]*sass.Kernel, len(shared))
	for i, k := range shared {
		snaps[i] = k.Clone()
	}

	if _, err := campaign.RunTransientCampaign(context.Background(), r, w, golden, profile,
		campaign.TransientCampaignConfig{Injections: 16, Seed: 3, Parallel: 8}); err != nil {
		t.Fatal(err)
	}

	for i, k := range shared {
		if !reflect.DeepEqual(k.Instrs, snaps[i].Instrs) {
			t.Errorf("kernel %q: shared instructions mutated by the campaign", k.Name)
		}
		if k.Name != snaps[i].Name || !reflect.DeepEqual(k.Params, snaps[i].Params) ||
			k.SharedBytes != snaps[i].SharedBytes {
			t.Errorf("kernel %q: shared metadata mutated by the campaign", k.Name)
		}
	}
}

const spinSrc = `
.kernel spin
spin:
    BRA spin
`

// spinWorkload never terminates: the Golden safety-budget test target.
type spinWorkload struct{}

func (spinWorkload) Name() string                     { return "spin" }
func (spinWorkload) Description() string              { return "loops forever" }
func (spinWorkload) Check(_, _ *campaign.Output) bool { return true }

func (spinWorkload) Run(ctx *cuda.Context) (*campaign.Output, error) {
	m, err := ctx.LoadModule("spin", spinSrc)
	if err != nil {
		return nil, err
	}
	f, err := m.Function("spin")
	if err != nil {
		return nil, err
	}
	_ = ctx.Launch(f, cuda.LaunchConfig{
		Grid:  gpu.Dim3{X: 1, Y: 1, Z: 1},
		Block: gpu.Dim3{X: 32, Y: 1, Z: 1},
	})
	out := campaign.NewOutput()
	if ctx.LastError() != cuda.Success {
		out.ExitCode = 1
	}
	return out, nil
}

// TestGoldenSafetyBudget: a non-terminating workload must trap with
// TrapInstrLimit under the golden safety budget instead of hanging the
// campaign before any workload-derived budget exists. (A small explicit
// budget keeps the test fast; by default applyDefaults installs
// DefaultGoldenBudget, the same mechanism with a larger cap.)
func TestGoldenSafetyBudget(t *testing.T) {
	r := campaign.Runner{GoldenBudget: 50_000}
	_, err := r.Golden(spinWorkload{})
	if err == nil {
		t.Fatal("golden run of a non-terminating workload returned no error")
	}
	if !strings.Contains(err.Error(), "CUDA_ERROR_LAUNCH_TIMEOUT") {
		t.Fatalf("golden run failed with %v, want the LAUNCH_TIMEOUT sticky error", err)
	}
}
