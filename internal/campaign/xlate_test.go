package campaign_test

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/gpu"
)

// runEngines runs the same campaign config on the translation engine and on
// the legacy interpreter (same seed, same golden, same profile), holds the
// two experiment for experiment identical and returns the translated one. r
// picks the rest of the device; the interpreted side is r with the NoXlate
// oracle on top.
func runEngines(t *testing.T, r campaign.Runner, cfg campaign.TransientCampaignConfig) *campaign.CampaignResult {
	t.Helper()
	w := deadWorkload{}
	golden, err := r.Golden(w)
	if err != nil {
		t.Fatal(err)
	}
	profile, _, err := r.Profile(w, core.Exact)
	if err != nil {
		t.Fatal(err)
	}
	return runEnginesWith(t, r, w, golden, profile, cfg)
}

// runEnginesWith is runEngines against a given golden reference and profile.
func runEnginesWith(t *testing.T, r campaign.Runner, w campaign.Workload, golden *campaign.GoldenResult,
	profile *core.Profile, cfg campaign.TransientCampaignConfig) *campaign.CampaignResult {
	t.Helper()
	xlated, err := campaign.RunTransientCampaign(context.Background(), r, w, golden, profile, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var built atomic.Int32
	off := campaign.WithDevice(r, func(d *gpu.Device) { d.NoXlate = true; built.Add(1) })
	interp, err := campaign.RunTransientCampaign(context.Background(), off, w, golden, profile, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if built.Load() == 0 {
		t.Fatal("the interpreted campaign built no device through its hook")
	}
	expectIdenticalRuns(t, "engines", xlated, interp, "translated", "interpreted")
	return xlated
}

// legacyScan runs a runner's devices on the legacy min-PC scan scheduler.
func legacyScan(d *gpu.Device) { d.LegacySched = true }

// expectIdenticalRuns is the engine-agnostic core of the campaign
// differential: every run and the aggregate tally must match between two
// campaigns, whatever pair of configurations produced them.
func expectIdenticalRuns(t *testing.T, label string, xlated, interp *campaign.CampaignResult, xname, iname string) {
	t.Helper()
	if len(xlated.Runs) != len(interp.Runs) {
		t.Fatalf("%s: run counts differ: translated %d, interpreted %d", label, len(xlated.Runs), len(interp.Runs))
	}
	for i := range xlated.Runs {
		x, n := &xlated.Runs[i], &interp.Runs[i]
		if x.Class != n.Class {
			t.Fatalf("%s run %d: %s %v, %s %v", label, i, xname, x.Class, iname, n.Class)
		}
		if x.Injection != n.Injection {
			t.Fatalf("%s run %d: injection records differ:\n%s  %+v\n%s %+v",
				label, i, xname, x.Injection, iname, n.Injection)
		}
		if x.Stats != n.Stats {
			t.Fatalf("%s run %d: stats differ: %s %+v, %s %+v", label, i, xname, x.Stats, iname, n.Stats)
		}
		if x.Restored != n.Restored || x.EarlyExit != n.EarlyExit {
			t.Fatalf("%s run %d: engine flags differ (restored %v/%v early %v/%v)",
				label, i, x.Restored, n.Restored, x.EarlyExit, n.EarlyExit)
		}
	}
	if !reflect.DeepEqual(xlated.Tally, interp.Tally) {
		t.Fatalf("%s: tallies differ:\n%s  %v\n%s %v", label, xname, xlated.Tally, iname, interp.Tally)
	}
}

// TestXlateCampaignDifferential is the engine soundness proof the design
// demands: a 200-injection campaign on the translation engine must be
// experiment-for-experiment identical — classifications, injection records,
// per-run LaunchStats, tallies — to the interpreter with the same seed, on
// the warp-split scheduler and on the legacy min-PC scan.
func TestXlateCampaignDifferential(t *testing.T) {
	cfg := campaign.TransientCampaignConfig{Injections: 200, Seed: 77}
	t.Run("split", func(t *testing.T) { runEngines(t, campaign.Runner{}, cfg) })
	t.Run("scan", func(t *testing.T) { runEngines(t, campaign.WithDevice(campaign.Runner{}, legacyScan), cfg) })
}

// TestSchedulerCampaignDifferential is the campaign-level scheduler gate:
// the same 200-injection campaign run on the warp-split scheduler and on
// the legacy min-PC scan (both translated) must be experiment-for-
// experiment identical.
func TestSchedulerCampaignDifferential(t *testing.T) {
	w := deadWorkload{}
	r := campaign.Runner{}
	golden, err := r.Golden(w)
	if err != nil {
		t.Fatal(err)
	}
	profile, _, err := r.Profile(w, core.Exact)
	if err != nil {
		t.Fatal(err)
	}
	cfg := campaign.TransientCampaignConfig{Injections: 200, Seed: 77}
	split, err := campaign.RunTransientCampaign(context.Background(), r, w, golden, profile, cfg)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := campaign.RunTransientCampaign(context.Background(), campaign.WithDevice(r, legacyScan), w, golden, profile, cfg)
	if err != nil {
		t.Fatal(err)
	}
	expectIdenticalRuns(t, "scheduler", split, scan, "warp-split", "legacy-scan")
}

// TestXlateCampaignDifferentialPruned composes translation with site-
// resolved selection over the dead-write kernel: the injections that land on
// its provably dead destinations really run on both engines, match
// experiment for experiment, and come out Masked.
func TestXlateCampaignDifferentialPruned(t *testing.T) {
	xlated := runEngines(t, campaign.Runner{}, campaign.TransientCampaignConfig{Injections: 100, Seed: 78, ResolveSites: true})
	if n := deadSiteRuns(t, xlated); n == 0 {
		t.Error("no experiment over the dead-write kernel landed on a dead destination")
	}
}

// TestXlateCampaignDifferentialCheckpointed composes translation with the
// checkpoint-and-fork engine: restored prefixes, early exits, and final
// classifications must match across engines.
func TestXlateCampaignDifferentialCheckpointed(t *testing.T) {
	r, golden, profile := iterCampaignInputs(t)
	xlated := runEnginesWith(t, r, iterWorkload{}, golden, profile,
		campaign.TransientCampaignConfig{Injections: 60, Seed: 79, Checkpoint: true})
	if xlated.Tally.Restored == 0 {
		t.Error("checkpointed campaign restored nothing")
	}
}
