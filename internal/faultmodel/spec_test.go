package faultmodel_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/faultmodel"
	"repro/internal/gpu"
	"repro/internal/nvbit"
	"repro/internal/race"
	"repro/internal/sass"
	"repro/internal/specaccel"
)

// specObservation is everything a single-site fault must leave the same
// whether the engine counts down to it or callbacks do.
type specObservation struct {
	out         *campaign.Output
	runErr      string
	stats       gpu.LaunchStats
	trap        string
	digest      uint64
	record      core.InjectionRecord
	activations uint64
}

// runInjector runs w on a fresh device set up by engine with inj attached.
func runInjector(t *testing.T, w campaign.Workload, budget uint64, engine func(*gpu.Device), inj faultmodel.Injector) specObservation {
	t.Helper()
	dev, err := gpu.NewDevice(sass.FamilyVolta, 8)
	if err != nil {
		t.Fatal(err)
	}
	engine(dev)
	ctx, err := cuda.NewContext(dev)
	if err != nil {
		t.Fatal(err)
	}
	ctx.SetDefaultBudget(budget)
	att, err := nvbit.Attach(ctx, inj)
	if err != nil {
		t.Fatal(err)
	}
	defer att.Detach()
	out, runErr := w.Run(ctx)
	if out == nil {
		out = campaign.NewOutput()
	}
	obs := specObservation{out: out, runErr: fmt.Sprint(runErr), stats: ctx.AccumulatedStats(), digest: dev.Digest(),
		record: inj.Record(), activations: inj.Activations()}
	if trap := ctx.StickyTrap(); trap != nil {
		obs.trap = fmt.Sprintf("%+v", *trap)
	}
	return obs
}

// specCase is one single-site fault of the differential: a model, its
// parameter string, and the tuple it gets.
type specCase struct {
	name, model, param string
	p                  core.TransientParams
}

// specCases draws the differential's faults on one program: the transient
// flip unresolved (the paper's dynamic index over the whole group),
// site-resolved, thread-targeted and over two registers; predflip on its
// destination and on its guard; opsub; and memfault.
func specCases(t *testing.T, profile *core.Profile) []specCase {
	t.Helper()
	first := func(model string) core.TransientParams {
		params, err := campaign.SelectShard(profile, campaign.TransientCampaignConfig{Injections: 1, Seed: 29, Model: model}, 0)
		if err != nil || len(params) == 0 {
			t.Fatalf("select %q: %v", model, err)
		}
		return params[0]
	}
	unresolved, err := core.SelectTransientFault(profile, sass.GroupGPPR, core.FlipSingleBit, rand.New(rand.NewSource(29)))
	if err != nil {
		t.Fatal(err)
	}
	site, err := core.SelectTransientFaultSite(profile, sass.GroupGPPR, core.FlipSingleBit, rand.New(rand.NewSource(31)))
	if err != nil {
		t.Fatal(err)
	}
	resolved := *site
	thread := *unresolved
	thread.Thread = &core.ThreadSelector{Lane: 5}
	thread.InstrCount %= 23
	multi := resolved
	multi.MultiRegCount = 2
	multi.BitFlip = core.RandomValue
	return []specCase{
		{"transient", "", "", *unresolved},
		{"transient site", "", "", resolved},
		{"transient thread", "", "", thread},
		{"transient multireg", "", "", multi},
		{"predflip", "predflip", "", first("predflip")},
		{"predflip guard", "predflip", "guard=1", first("predflip")},
		{"opsub", "opsub", "", first("opsub")},
		{"memfault", "memfault", "", first("memfault")},
	}
}

// TestSingleSiteSpecDifferential: the single-site faults as engine data
// (core.SingleSite's gpu.Shot) are the per-instruction closures they replaced.
// For every shipped program and every specCases fault, the model's injector on
// the batched loop, the reference loop and the legacy scheduler produces the
// output, LaunchStats (trampolines included), trap, device digest, injection
// record and activations of the callback reference on the reference loop.
// Under -race and -short two programs stand in for the fifteen.
func TestSingleSiteSpecDifferential(t *testing.T) {
	engines := []struct {
		name string
		set  func(*gpu.Device)
	}{
		{"reference", func(d *gpu.Device) { d.NoXlate = true }},
		{"batched", func(*gpu.Device) {}},
		{"legacy-sched", func(d *gpu.Device) { d.LegacySched = true }},
	}
	names := specaccel.Names()
	if race.Enabled || testing.Short() {
		names = []string{"303.ostencil", "353.clvrleaf"}
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			w, err := specaccel.ByName(name)
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
			env := campaign.ModelEnv(r, golden, profile)
			budget := 10 * max(golden.Stats.WarpInstrs, campaign.MinBudgetCalibration)
			activated := 0
			for _, c := range specCases(t, profile) {
				m, err := faultmodel.Lookup(c.model)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := faultmodel.NewCallbackInjector(c.model, c.p, c.param, env)
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				want := runInjector(t, w, budget, engines[0].set, ref)
				if want.stats.TrampolineInstrs == 0 {
					t.Fatalf("%s: no trampolines charged", c.name)
				}
				if want.record.Activated {
					activated++
				}
				for _, e := range engines {
					inj, err := m.NewInjector(c.p, c.param, env)
					if err != nil {
						t.Fatalf("%s: %v", c.name, err)
					}
					got := runInjector(t, w, budget, e.set, inj)
					label := fmt.Sprintf("%s on %s", c.name, e.name)
					if !got.out.Equal(want.out) || got.out.ExitCode != want.out.ExitCode {
						t.Errorf("%s: output differs from the callbacks'", label)
					}
					got.out = want.out
					if got != want {
						t.Errorf("%s:\n got %+v\nwant %+v", label, got, want)
					}
				}
			}
			if activated < 6 {
				t.Errorf("only %d of the faults activated: the differential is nearly vacuous", activated)
			}
		})
	}
}

// TestNewInjectorValidatesTuple: every model refuses a tuple out of range —
// a destination or bit-pattern value of 1, a negative kernel count — as the
// transient model always has, instead of panicking (predflip indexed past its
// destinations), arming mem[0x0] (memfault) or running anyway (opsub).
func TestNewInjectorValidatesTuple(t *testing.T) {
	w, err := specaccel.ByName("303.ostencil")
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
	env := campaign.ModelEnv(r, golden, profile)
	breaks := []struct {
		name  string
		apply func(*core.TransientParams)
	}{
		{"DestRegSelect=1", func(p *core.TransientParams) { p.DestRegSelect = 1 }},
		{"BitPatternValue=1", func(p *core.TransientParams) { p.BitPatternValue = 1 }},
		{"DestRegSelect<0", func(p *core.TransientParams) { p.DestRegSelect = -0.5 }},
		{"KernelCount<0", func(p *core.TransientParams) { p.KernelCount = -1 }},
	}
	for _, name := range faultmodel.Names() {
		m, err := faultmodel.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		params, err := campaign.SelectShard(profile, campaign.TransientCampaignConfig{Injections: 1, Seed: 3, Model: name}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range breaks {
			p := params[0]
			b.apply(&p)
			func() {
				defer func() {
					if v := recover(); v != nil {
						t.Errorf("%s %s: panic %v", name, b.name, v)
					}
				}()
				if res, err := r.RunModel(context.Background(), w, golden, m, p, "", env); err == nil {
					t.Errorf("%s %s: ran (%v, injection %+v), want an error", name, b.name, res.Class, res.Injection)
				}
			}()
		}
	}
}
