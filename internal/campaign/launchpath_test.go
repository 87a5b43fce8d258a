package campaign_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/race"
	"repro/internal/specaccel"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/launchpath_golden.json from this build")

const launchPathGoldenFile = "testdata/launchpath_golden.json"

// launchPathGolden is one campaign's committed reference: the tally's wire
// bytes, the sum of every run's LaunchStats, and a digest of the per-run
// (classification, injection record, stats, engine flags) sequence.
type launchPathGolden struct {
	Tally json.RawMessage `json:"tally"`
	Stats gpu.LaunchStats `json:"stats"`
	Runs  string          `json:"runs_sha256"`
}

// launchPathCampaigns are the shipped-workload campaigns whose results the
// launch path must not move: the benchmark's clover_par2, models_armed and
// ckpt_replay shapes.
var launchPathCampaigns = []struct {
	name, program string
	cfg           campaign.TransientCampaignConfig
}{
	{"clvrleaf_transient_par2", "353.clvrleaf", campaign.TransientCampaignConfig{Parallel: 2}},
	{"clvrleaf_stuck", "353.clvrleaf", campaign.TransientCampaignConfig{Parallel: 2, Model: "stuck"}},
	{"clvrleaf_opsub", "353.clvrleaf", campaign.TransientCampaignConfig{Parallel: 2, Model: "opsub"}},
	{"clvrleaf_predflip", "353.clvrleaf", campaign.TransientCampaignConfig{Parallel: 2, Model: "predflip"}},
	{"clvrleaf_memfault", "353.clvrleaf", campaign.TransientCampaignConfig{Parallel: 2, Model: "memfault"}},
	{"sp_checkpointed", "356.sp", campaign.TransientCampaignConfig{Parallel: 2, Checkpoint: true}},
}

// TestLaunchPathDifferential holds campaigns over the shipped workloads
// byte-equal to results recorded before the launch path stopped allocating
// (scratch LaunchEvent / Launch / LaunchInfo / InstrCtx, shared function
// tables, identity-keyed plan lookup, table-driven selection): a test cannot
// run the parent commit, so its results are committed as a golden file. Each
// campaign is held at 200 injections and at 25, its first selection shard, and
// Fig. 3's permanent campaign (one fault per executed opcode, with its weighted
// shares in the run digest) once. A -race or -short run executes only the
// first shard of the transient and the checkpointed campaign: the detector
// slows the 32-lane loops ~70x (200
// clvrleaf injections take two minutes under it), the campaign package's race
// run is already minutes long, and the armed models' launch path under the
// detector is TestModelCampaignDeterminism's.
// Regenerate with `go test ./internal/campaign -run TestLaunchPathDifferential
// -update` only for a change that is meant to move results.
func TestLaunchPathDifferential(t *testing.T) {
	want := map[string]launchPathGolden{}
	if !*updateGolden {
		raw, err := os.ReadFile(launchPathGoldenFile)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
	}
	sizes := []int{25, 200}
	quick := race.Enabled || testing.Short()
	if quick {
		sizes = sizes[:1]
	}
	got := map[string]launchPathGolden{}
	check := func(t *testing.T, key string, res *campaign.CampaignResult) {
		t.Helper()
		g := summarizeLaunchPath(t, res)
		got[key] = g
		if *updateGolden {
			return
		}
		ref, ok := want[key]
		if !ok {
			t.Fatalf("no golden entry for %s", key)
		}
		var refTally bytes.Buffer // the file is indented; the wire form is not
		if err := json.Compact(&refTally, ref.Tally); err != nil {
			t.Fatal(err)
		}
		if string(g.Tally) != refTally.String() {
			t.Errorf("%s: tally moved:\n got %s\nwant %s", key, g.Tally, refTally.String())
		}
		if g.Stats != ref.Stats {
			t.Errorf("%s: summed stats moved:\n got %+v\nwant %+v", key, g.Stats, ref.Stats)
		}
		if g.Runs != ref.Runs {
			t.Errorf("%s: per-run sequence digest moved: got %s, want %s", key, g.Runs, ref.Runs)
		}
	}
	for _, c := range launchPathCampaigns {
		if quick && c.cfg.Model != "" {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			w, err := specaccel.ByName(c.program)
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
			for _, n := range sizes {
				cfg := c.cfg
				cfg.Injections, cfg.Seed = n, 19
				res, err := campaign.RunTransientCampaign(context.Background(), r, w, golden, profile, cfg)
				if err != nil {
					t.Fatal(err)
				}
				check(t, fmt.Sprintf("%s/n%d", c.name, n), res)
			}
		})
	}
	// Fig. 3's campaign — one permanent fault per executed opcode, weighted by
	// the opcode's dynamic share — on the same workload, recorded before its
	// experiments ran through the shared experiment path and worker loop.
	if !quick {
		t.Run("clvrleaf_permanent", func(t *testing.T) {
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
			res, err := campaign.RunPermanentCampaign(context.Background(), r, w, golden, profile, 0, 19, 2)
			if err != nil {
				t.Fatal(err)
			}
			check(t, "clvrleaf_permanent", res)
		})
	}
	if *updateGolden && !t.Failed() {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(launchPathGoldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(launchPathGoldenFile, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func summarizeLaunchPath(t *testing.T, res *campaign.CampaignResult) launchPathGolden {
	t.Helper()
	tally, err := json.Marshal(res.Tally)
	if err != nil {
		t.Fatal(err)
	}
	g := launchPathGolden{Tally: tally}
	h := sha256.New()
	for i := range res.Runs {
		run := &res.Runs[i]
		g.Stats.WarpInstrs += run.Stats.WarpInstrs
		g.Stats.ThreadInstrs += run.Stats.ThreadInstrs
		g.Stats.TrampolineInstrs += run.Stats.TrampolineInstrs
		g.Stats.Blocks += run.Stats.Blocks
		fmt.Fprintf(h, "%d %+v %+v %d %+v %v %v\n", i, run.Class, run.Injection, run.Activations,
			run.Stats, run.Restored, run.EarlyExit)
	}
	if res.Weighted != nil {
		for _, cat := range res.Weighted.Categories() {
			fmt.Fprintf(h, "weight %s %v\n", cat, res.Weighted.Weight(cat))
		}
	}
	g.Runs = hex.EncodeToString(h.Sum(nil))
	return g
}

// experimentAllocCeilings are the committed per-experiment allocation
// ceilings: what one campaign experiment allocates once caches and pools are
// warm, plus 10%. 353.clvrleaf (249 launches of 116 kernels) allocated 2 650
// per experiment when every launch built its own event, launch descriptor,
// constant bank, budget counter and LaunchInfo; 314.omriq is the short
// experiment whose fixed cost dominates; 356.sp runs checkpointed (restore,
// replayed launches, early exit), where a block abandoned without release or
// a per-launch LaunchRun shows as allocations in the next experiment. The
// stuck row is a permanent fault armed in every launch of 353.clvrleaf: its
// JIT builds are one ExecKernel each over shared site facts (674 objects per
// experiment when every build made its own callback tables and site prefix).
var experimentAllocCeilings = []struct {
	program    string
	model      string
	checkpoint bool
	ceiling    float64
}{
	{"353.clvrleaf", "", false, 103},
	{"353.clvrleaf", "stuck", false, 233},
	{"314.omriq", "", false, 131},
	{"356.sp", "", true, 75},
}

// TestExperimentAllocCeiling is the campaign half of the allocation gate. It
// runs the first eight faults of a fixed selection and holds the costliest
// one under the ceiling. Under -race one fault runs and its count is only
// logged (see internal/race).
func TestExperimentAllocCeiling(t *testing.T) {
	for _, tc := range experimentAllocCeilings {
		name := tc.program
		if tc.model != "" {
			name += "_" + tc.model
		}
		t.Run(name, func(t *testing.T) {
			w, err := specaccel.ByName(tc.program)
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
			cfg := campaign.TransientCampaignConfig{Injections: 8, Seed: 11, Model: tc.model, Checkpoint: tc.checkpoint}
			params, err := campaign.SelectShard(profile, cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := campaign.NewShardPlan(r, w, golden, profile, cfg)
			if err != nil {
				t.Fatal(err)
			}
			runs := 3
			if race.Enabled {
				params, runs = params[:1], 1
			}
			var worst float64
			for _, p := range params {
				avg := testing.AllocsPerRun(runs, func() {
					if _, err := campaign.RunOne(plan, context.Background(), p); err != nil {
						t.Fatal(err)
					}
				})
				worst = max(worst, avg)
			}
			if race.Enabled {
				t.Logf("costliest experiment allocated %.0f objects under -race", worst)
			} else if worst > tc.ceiling {
				t.Errorf("costliest experiment allocated %.0f objects, ceiling %.0f", worst, tc.ceiling)
			} else {
				t.Logf("costliest experiment allocated %.0f objects (ceiling %.0f)", worst, tc.ceiling)
			}
		})
	}
}
