package campaign_test

import (
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/faultmodel"
	"repro/internal/gpu"
	"repro/internal/nvbit"
	"repro/internal/sass"
	"repro/internal/specaccel"
)

// TestStuckPredicateDestination pins how the stuck model treats a predicate
// destination, a known deviation from stuck-at semantics kept because
// bench/expected.json hashes it: the permanent fault complements a predicate
// destination on every activation when its mask has bit 0, whatever value=
// asks for, and leaves it alone otherwise — a stuck-at of any other bit on a
// predicate-only opcode corrupts nothing.
//
// The models_armed workload's seed-11 stuck part (353.clvrleaf, eight faults
// at campaign seed 11<<4) selects ISETP twice, with masks 0x8000000 and
// 0x40000: 5 768 activations between them and not one corruption, so both
// runs end on the fault-free device state. Forcing bit=0 on the first of
// them complements its predicate on every activation, and value=0 and
// value=1 run to the same state.
func TestStuckPredicateDestination(t *testing.T) {
	w, err := specaccel.ByName("353.clvrleaf")
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
	cfg := campaign.TransientCampaignConfig{Injections: 8, Seed: 11 << 4, Parallel: 1, Model: "stuck"}
	params, err := campaign.SelectShard(profile, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := faultmodel.Lookup("stuck")
	if err != nil {
		t.Fatal(err)
	}
	env := campaign.ModelEnv(r, golden, profile)
	budget := 10 * max(golden.Stats.WarpInstrs, campaign.MinBudgetCalibration)
	plain := runUnderEngine(t, w, budget, func(*gpu.Device) {}, nil)
	type run struct {
		obs                      loopObservation
		activations, corruptions uint64
	}
	runStuck := func(p core.TransientParams, param string) run {
		var inj faultmodel.Injector
		obs := runUnderEngine(t, w, budget, func(*gpu.Device) {}, func() (nvbit.Tool, error) {
			var err error
			inj, err = m.NewInjector(p, param, env)
			return inj, err
		})
		return run{obs, inj.Activations(), inj.(interface{ Corruptions() uint64 }).Corruptions()}
	}

	var isetp []core.TransientParams
	var activations uint64
	for _, p := range params {
		got := runStuck(p, "")
		if got.obs.record.Opcode != sass.MustOp("ISETP") {
			continue
		}
		isetp = append(isetp, p)
		activations += got.activations
		if got.obs.record.Mask&1 != 0 || got.corruptions != 0 || got.obs.digest != plain.digest {
			t.Errorf("ISETP fault with mask %#x: %d corruptions, digest %#x (fault-free %#x)",
				got.obs.record.Mask, got.corruptions, got.obs.digest, plain.digest)
		}
	}
	if len(isetp) != 2 || activations != 5768 {
		t.Fatalf("the seed-11 stuck part selects ISETP %d times with %d activations, want 2 and 5768",
			len(isetp), activations)
	}

	one, zero := runStuck(isetp[0], "bit=0,value=1"), runStuck(isetp[0], "bit=0,value=0")
	if one.activations == 0 || one.corruptions != one.activations {
		t.Errorf("bit=0: %d corruptions for %d activations, want one complement per activation",
			one.corruptions, one.activations)
	}
	if one.obs.digest == plain.digest {
		t.Error("bit=0: complementing the predicate left the fault-free state")
	}
	if !zero.obs.out.Equal(one.obs.out) {
		t.Error("bit=0: value=0 and value=1 produce different outputs")
	}
	zero.obs.out = one.obs.out
	if zero != one {
		t.Errorf("bit=0: value=0 ran to %+v, value=1 to %+v", zero, one)
	}
}
