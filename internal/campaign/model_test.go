package campaign_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/report"
)

// modelMatrix is the differential matrix of the new fault models: every
// non-default model, with a representative parameter variant where the model
// takes one.
var modelMatrix = []struct {
	name  string
	model string
	param string
}{
	{"stuck", "stuck", ""},
	{"stuck-at-0-gated", "stuck", "value=0,p=0.5"},
	{"opsub", "opsub", ""},
	{"predflip", "predflip", ""},
	{"memfault", "memfault", ""},
}

// TestModelCampaignDeterminism: each model's 200-injection campaign is a pure
// function of the seed — run twice, the runlogs and tallies must be
// byte-identical.
func TestModelCampaignDeterminism(t *testing.T) {
	r, w, golden, profile := campaignFixture(t)
	for _, tc := range modelMatrix {
		t.Run(tc.name, func(t *testing.T) {
			cfg := campaign.TransientCampaignConfig{
				Injections: 200, Seed: 42, Model: tc.model, ModelParam: tc.param,
			}
			run := func() ([]byte, []byte) {
				res, err := campaign.RunTransientCampaign(context.Background(), r, w, golden, profile, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.Model != tc.model || res.ModelParam != tc.param {
					t.Fatalf("result model = %q/%q, want %q/%q", res.Model, res.ModelParam, tc.model, tc.param)
				}
				for i := range res.Runs {
					res.Runs[i].Duration = 0
				}
				res.GoldenTime, res.TotalRunTime, res.MedianRunTime = 0, 0, 0
				var runlog bytes.Buffer
				if err := report.WriteRunLog(&runlog, res); err != nil {
					t.Fatal(err)
				}
				tally, err := json.Marshal(res.Tally)
				if err != nil {
					t.Fatal(err)
				}
				return runlog.Bytes(), tally
			}
			log1, tally1 := run()
			log2, tally2 := run()
			if !bytes.Equal(tally1, tally2) {
				t.Fatalf("tally not reproducible:\n%s\n%s", tally1, tally2)
			}
			if !bytes.Equal(log1, log2) {
				t.Fatalf("runlog not reproducible (first divergence around byte %d)", firstDiff(log1, log2))
			}
			// A campaign that never activates a single fault exercises
			// nothing; every model must actually reach its fault site.
			var tl campaign.Tally
			if err := json.Unmarshal(tally1, &tl); err != nil {
				t.Fatal(err)
			}
			if tl.N != 200 {
				t.Fatalf("tally N = %d, want 200", tl.N)
			}
			if tl.NotActivated == 200 {
				t.Fatalf("model %s never activated a fault", tc.model)
			}
		})
	}
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestModelShardedTallyIdentity: for every model, a campaign split into
// shards and merged must marshal a tally byte-identical to the in-process
// campaign — the identity distributed model campaigns rest on.
func TestModelShardedTallyIdentity(t *testing.T) {
	r, w, golden, profile := campaignFixture(t)
	for _, tc := range modelMatrix {
		t.Run(tc.name, func(t *testing.T) {
			cfg := campaign.TransientCampaignConfig{
				Injections: 200, Seed: 42, ShardSize: 60,
				Model: tc.model, ModelParam: tc.param,
			}
			full, err := campaign.RunTransientCampaign(context.Background(), r, w, golden, profile, cfg)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := campaign.NewShardPlan(r, w, golden, profile, cfg)
			if err != nil {
				t.Fatal(err)
			}
			merged := campaign.NewTally()
			for s := plan.NumShards() - 1; s >= 0; s-- {
				results, err := plan.RunShard(context.Background(), s)
				if err != nil {
					t.Fatal(err)
				}
				merged.Merge(campaign.TallyRuns(results))
			}
			a, _ := json.Marshal(full.Tally)
			b, _ := json.Marshal(merged)
			if !bytes.Equal(a, b) {
				t.Fatalf("model %s tally mismatch:\ncampaign: %s\nsharded:  %s", tc.model, a, b)
			}
		})
	}
}

// TestModelSeedIsModelScoped: the same seed under different models selects
// from differently-filtered site populations with decorrelated streams — the
// model name is part of the campaign's identity.
func TestModelSeedIsModelScoped(t *testing.T) {
	_, _, _, profile := campaignFixture(t)
	params := map[string]string{}
	for _, model := range []string{"", "stuck", "opsub"} {
		cfg := campaign.TransientCampaignConfig{Injections: 10, Seed: 42, Model: model}
		sel, err := campaign.SelectShard(profile, cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, p := range sel {
			b, _ := json.Marshal(p)
			sb.Write(b)
		}
		params[model] = sb.String()
	}
	if params[""] == params["stuck"] || params["stuck"] == params["opsub"] {
		t.Fatal("different models drew identical selection streams from one seed")
	}
}

// TestModelGuardRails: checkpointing, whose soundness argument rests on a
// single-shot fault after a fault-free prefix, must be refused — client-
// side, at plan construction — for models that do not declare it. So must
// negative counts, a confidence the stopping rule cannot evaluate, and
// checkpoint knobs without checkpointing; Validate, which a campaign service
// applies at submission, refuses every one of them too.
func TestModelGuardRails(t *testing.T) {
	r, w, golden, profile := campaignFixture(t)
	cases := []struct {
		name string
		cfg  campaign.TransientCampaignConfig
		want string
	}{
		{"checkpoint", campaign.TransientCampaignConfig{Injections: 10, Model: "memfault", Checkpoint: true}, "-checkpoint"},
		{"negative-n", campaign.TransientCampaignConfig{Injections: -5}, "negative injection count"},
		{"negative-max-n", campaign.TransientCampaignConfig{Injections: 10, TargetCI: 0.1, MaxInjections: -1}, "negative injection count"},
		{"confidence-high", campaign.TransientCampaignConfig{Injections: 10, TargetCI: 0.1, Confidence: 1.5}, "confidence"},
		{"confidence-negative", campaign.TransientCampaignConfig{Injections: 10, TargetCI: 0.1, Confidence: -0.5}, "confidence"},
		{"ckpt-stride-alone", campaign.TransientCampaignConfig{Injections: 10, CkptStride: 64}, "-ckpt"},
		{"no-early-exit-alone", campaign.TransientCampaignConfig{Injections: 10, NoEarlyExit: true}, "-ckpt"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.cfg.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate = %v, want refusal mentioning %s", err, tc.want)
			}
			_, err := campaign.NewShardPlan(r, w, golden, profile, tc.cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("NewShardPlan = %v, want refusal mentioning %s", err, tc.want)
			}
			// The campaign entry point must fail the same way.
			if _, err := campaign.RunTransientCampaign(context.Background(), r, w, golden, profile, tc.cfg); err == nil {
				t.Fatal("RunTransientCampaign accepted an unsound configuration")
			}
		})
	}
	// The transient model keeps checkpointing.
	ok := campaign.TransientCampaignConfig{Injections: 10, Model: "transient", Checkpoint: true}
	if _, err := campaign.NewShardPlan(r, w, golden, profile, ok); err != nil {
		t.Fatalf("transient model refused checkpointing: %v", err)
	}
}

// TestModelConfigErrors: unknown models and malformed parameters fail fast at
// plan construction, before any experiment runs.
func TestModelConfigErrors(t *testing.T) {
	r, w, golden, profile := campaignFixture(t)
	bad := []campaign.TransientCampaignConfig{
		{Injections: 10, Model: "nosuch"},
		{Injections: 10, Model: "stuck", ModelParam: "value=7"},
		{Injections: 10, Model: "opsub", ModelParam: "weighted=1"},
	}
	for _, cfg := range bad {
		if _, err := campaign.NewShardPlan(r, w, golden, profile, cfg); err == nil {
			t.Fatalf("NewShardPlan accepted %+v", cfg)
		}
	}
}

// TestDefaultModelByteIdentity: naming the default model explicitly changes
// nothing — config encoding, selection, tally, and summary stay byte-identical
// to a config that predates the subsystem.
func TestDefaultModelByteIdentity(t *testing.T) {
	r, w, golden, profile := campaignFixture(t)
	legacy := campaign.TransientCampaignConfig{Injections: 30, Seed: 7}
	named := campaign.TransientCampaignConfig{Injections: 30, Seed: 7, Model: "transient"}

	// The zero-model config encodes without any model field.
	enc, err := json.Marshal(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(enc, []byte("Model")) {
		t.Fatalf("default config encoding mentions the model: %s", enc)
	}

	a, err := campaign.RunTransientCampaign(context.Background(), r, w, golden, profile, legacy)
	if err != nil {
		t.Fatal(err)
	}
	b, err := campaign.RunTransientCampaign(context.Background(), r, w, golden, profile, named)
	if err != nil {
		t.Fatal(err)
	}
	ta, _ := json.Marshal(a.Tally)
	tb, _ := json.Marshal(b.Tally)
	if !bytes.Equal(ta, tb) {
		t.Fatalf("explicit transient model changed the tally:\n%s\n%s", ta, tb)
	}
	if b.Model != "" {
		t.Fatalf("explicit transient model leaked into the result: %q", b.Model)
	}
	// And the stable summary JSON carries no model block for the default.
	var sa bytes.Buffer
	if err := report.WriteSummaryJSON(&sa, a); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(sa.Bytes(), []byte(`"model"`)) {
		t.Fatalf("default summary mentions a model: %s", sa.Bytes())
	}
}

// TestTransientCampaignWithoutKernelView: the transient flip builds its
// injector from the parameter tuple alone, so a transient campaign against a
// hand-built golden result (no kernel view) runs, and runs exactly as one
// against Runner.Golden's — while a model that needs the view refuses it.
func TestTransientCampaignWithoutKernelView(t *testing.T) {
	r, w, golden, profile := campaignFixture(t)
	bare := &campaign.GoldenResult{Output: golden.Output, Stats: golden.Stats}
	cfg := campaign.TransientCampaignConfig{Injections: 10, Seed: 3}
	got, err := campaign.RunTransientCampaign(context.Background(), r, w, bare, profile, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := campaign.RunTransientCampaign(context.Background(), r, w, golden, profile, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tg, _ := json.Marshal(got.Tally)
	tw, _ := json.Marshal(want.Tally)
	if !bytes.Equal(tg, tw) {
		t.Fatalf("tally without the kernel view %s, with it %s", tg, tw)
	}
	cfg.Model = "stuck"
	if _, err := campaign.NewShardPlan(r, w, bare, profile, cfg); err == nil {
		t.Fatal("the stuck model accepted a golden result without the kernel view")
	}
}

// TestAdaptiveModelCampaign: an adaptive campaign under a non-default model
// runs to a stopping decision with no certain (zero-variance) strata — the
// provably-masked shortcut is only sound for destination flips.
func TestAdaptiveModelCampaign(t *testing.T) {
	r, w, golden, profile := campaignFixture(t)
	cfg := campaign.TransientCampaignConfig{
		Injections: 120, Seed: 9, ShardSize: 30, Model: "stuck",
		TargetCI: 0.45, // loose: stops after the first shards
	}
	res, err := campaign.RunTransientCampaign(context.Background(), r, w, golden, profile, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Adaptive == nil {
		t.Fatal("adaptive model campaign returned no stopping decision")
	}
	if res.Model != "stuck" {
		t.Fatalf("adaptive result model = %q", res.Model)
	}
	for _, st := range res.Adaptive.Strata {
		if st.Certain {
			t.Fatalf("non-default model produced a certain stratum: %+v", st)
		}
	}
}
