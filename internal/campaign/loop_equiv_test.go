package campaign_test

import (
	"fmt"
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

// loopObservation is what the engine's three schedules must agree on for one
// run of a shipped program under a tool: the program's output, the context's
// accumulated LaunchStats (warp, thread and trampoline instructions), the
// trap that poisoned it, the injection record, the profile file when the tool
// is the profiler (per-site and per-opcode counts of every launch, from the
// engine's in-line tally), and the device digest — all of global memory, every
// SM clock, the device-log length.
type loopObservation struct {
	out         *campaign.Output
	runErr      string
	stats       gpu.LaunchStats
	trap        string
	record      core.InjectionRecord
	activations uint64
	profile     string
	digest      uint64
}

// runUnderEngine runs w on a fresh device set up by engine, with the tool
// newTool builds (nil: no tool) attached.
func runUnderEngine(t *testing.T, w campaign.Workload, budget uint64, engine func(*gpu.Device),
	newTool func() (nvbit.Tool, error)) loopObservation {
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
	var tool nvbit.Tool
	if newTool != nil {
		if tool, err = newTool(); err != nil {
			t.Fatal(err)
		}
		att, err := nvbit.Attach(ctx, tool)
		if err != nil {
			t.Fatal(err)
		}
		defer att.Detach()
	}
	out, runErr := w.Run(ctx)
	if out == nil {
		out = campaign.NewOutput()
	}
	obs := loopObservation{out: out, runErr: fmt.Sprint(runErr), stats: ctx.AccumulatedStats(), digest: dev.Digest()}
	if trap := ctx.StickyTrap(); trap != nil {
		obs.trap = fmt.Sprintf("%+v", *trap)
	}
	if inj, ok := tool.(faultmodel.Injector); ok {
		obs.record, obs.activations = inj.Record(), inj.Activations()
	} else if inj, ok := tool.(*core.TransientInjector); ok {
		obs.record = inj.Record()
	} else if prof, ok := tool.(*core.Profiler); ok {
		obs.profile = prof.Finish().String()
	}
	return obs
}

// TestLoopEquivalenceShippedPrograms: for every shipped program, run plain,
// under the profiler, under the transient injector (armed until it fires,
// then disarmed) and under each whole-run-armed fault model, the batched warp
// loop, the per-step reference loop (NoXlate) and the batched loop over the
// legacy scheduler (LegacySched) produce the same loopObservation. Under
// -race and -short two programs stand in for the fifteen: the detector slows
// the lane loops ~70x.
func TestLoopEquivalenceShippedPrograms(t *testing.T) {
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
		names = []string{"303.ostencil", "314.omriq"}
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
			budget := 10 * max(golden.Stats.WarpInstrs, campaign.MinBudgetCalibration)

			tools := map[string]func() (nvbit.Tool, error){
				"plain":    nil,
				"profiler": func() (nvbit.Tool, error) { return core.NewProfiler(name, core.Exact) },
			}
			for _, model := range append([]string{""}, "stuck", "opsub", "predflip", "memfault") {
				cfg := campaign.TransientCampaignConfig{Injections: 2, Seed: 23, Model: model}
				params, err := campaign.SelectShard(profile, cfg, 0)
				if err != nil {
					t.Fatal(err)
				}
				for i, p := range params {
					if model == "" {
						tools[fmt.Sprintf("transient/%d", i)] = func() (nvbit.Tool, error) { return core.NewTransientInjector(p) }
						continue
					}
					m, err := faultmodel.Lookup(model)
					if err != nil {
						t.Fatal(err)
					}
					env := campaign.ModelEnv(r, golden, profile)
					tools[fmt.Sprintf("%s/%d", model, i)] = func() (nvbit.Tool, error) { return m.NewInjector(p, "", env) }
				}
			}

			for tool, newTool := range tools {
				ref := runUnderEngine(t, w, budget, engines[0].set, newTool)
				if tool == "plain" && !ref.out.Equal(golden.Output) {
					t.Fatalf("%s: reference loop diverged from the golden output", tool)
				}
				for _, e := range engines[1:] {
					got := runUnderEngine(t, w, budget, e.set, newTool)
					if !got.out.Equal(ref.out) || got.out.ExitCode != ref.out.ExitCode {
						t.Errorf("%s on %s: output differs from the reference loop", tool, e.name)
					}
					got.out = ref.out
					if got != ref {
						t.Errorf("%s on %s:\n got %+v\nwant %+v", tool, e.name, got, ref)
					}
				}
			}
		})
	}
}
