package serve_test

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/serve"
)

// TestModelSpecValidation: specs are vetted server-side on their fields alone
// — unknown models, malformed parameters, acceleration combinations the
// model's capabilities do not cover, bit-flip models and instruction groups
// no worker can select under, and unknown schema strings all fail at
// submission, before any worker sees a lease. So do the configs the
// in-process planner refuses for any model.
func TestModelSpecValidation(t *testing.T) {
	base := campaign.TransientCampaignConfig{Injections: 10, Seed: 1}
	model := base
	model.Model = "stuck"
	cases := []struct {
		name string
		spec serve.CampaignSpec
		want string
	}{
		{"unknown-model", serve.CampaignSpec{Schema: serve.JobSchema, Workload: testWorkload,
			Config: withModel(base, "nosuch", "")}, "unknown model"},
		{"bad-param", serve.CampaignSpec{Schema: serve.JobSchema, Workload: testWorkload,
			Config: withModel(base, "stuck", "value=7")}, "stuck value"},
		{"checkpoint-unsound", serve.CampaignSpec{Schema: serve.JobSchema, Workload: testWorkload,
			Config: withCheckpoint(withModel(base, "stuck", ""))}, "does not support checkpointing"},
		{"unknown-schema", serve.CampaignSpec{Schema: "nvbitfi.job/v99", Workload: testWorkload, Config: base},
			"unsupported job schema"},
		// The campaign's own guard rails hold at submission too.
		{"negative-n", serve.CampaignSpec{Workload: testWorkload,
			Config: campaign.TransientCampaignConfig{Injections: -10, Seed: 1}}, "negative injection count"},
		{"bad-bitflip", serve.CampaignSpec{Workload: testWorkload,
			Config: campaign.TransientCampaignConfig{Injections: 10, Seed: 1, BitFlip: 9}}, "invalid bit-flip model 9"},
		{"bad-group", serve.CampaignSpec{Workload: testWorkload,
			Config: campaign.TransientCampaignConfig{Injections: 10, Seed: 1, Group: 99}}, "invalid instruction group Group(99)"},
		{"bad-confidence", serve.CampaignSpec{Schema: serve.JobSchema, Workload: testWorkload,
			Config: campaign.TransientCampaignConfig{Injections: 10, Seed: 1, TargetCI: 0.1, Confidence: 1.5}}, "confidence"},
		{"ckpt-stride-alone", serve.CampaignSpec{Workload: testWorkload,
			Config: campaign.TransientCampaignConfig{Injections: 10, Seed: 1, CkptStride: 64}}, "-ckpt"},
		{"no-early-exit-alone", serve.CampaignSpec{Workload: testWorkload,
			Config: campaign.TransientCampaignConfig{Injections: 10, Seed: 1, NoEarlyExit: true}}, "-ckpt"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error mentioning %q", err, tc.want)
			}
		})
	}
	// A spec with a valid model and no unsound accelerations passes under
	// every schema string the service accepts, the ones parent coordinators
	// wrote included.
	for _, schema := range []string{serve.JobSchema, "", "nvbitfi.job/v2", "nvbitfi.job/v3"} {
		ok := serve.CampaignSpec{Schema: schema, Workload: testWorkload, Config: withModel(model, "stuck", "value=0,bit=17")}
		if err := ok.Validate(); err != nil {
			t.Fatalf("valid model spec under schema %q refused: %v", schema, err)
		}
	}
}

// TestSubmitRefusesUnrunnableModel: a spec whose bit-flip model or
// instruction group no worker could select under is refused by Submit, and
// the journal is left as it was: no job line for shards that would only fail
// on every worker until quarantined.
func TestSubmitRefusesUnrunnableModel(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "journal.jsonl")
	coord, err := serve.NewCoordinator(serve.Options{JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	before, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []campaign.TransientCampaignConfig{
		{Injections: 10, Seed: 1, BitFlip: 9},
		{Injections: 10, Seed: 1, Group: 99},
	} {
		if st, err := coord.Submit(serve.CampaignSpec{Workload: testWorkload, Config: cfg}); err == nil {
			t.Fatalf("config %+v accepted as job %s", cfg, st.ID)
		}
	}
	after, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("refused submissions changed the journal:\nbefore %q\nafter  %q", before, after)
	}
	if jobs := coord.Jobs(); len(jobs) != 0 {
		t.Fatalf("refused submissions left %d jobs", len(jobs))
	}
}

func withModel(cfg campaign.TransientCampaignConfig, model, param string) campaign.TransientCampaignConfig {
	cfg.Model = model
	cfg.ModelParam = param
	return cfg
}

func withCheckpoint(cfg campaign.TransientCampaignConfig) campaign.TransientCampaignConfig {
	cfg.Checkpoint = true
	return cfg
}

// TestModelSchemaNormalization: Submit stores every job under the one schema
// — a spec that names the retired v3 string included — and an explicit
// "transient" model name decays to the default, so the job's bytes are those
// of a job that never set it.
func TestModelSchemaNormalization(t *testing.T) {
	coord, err := serve.NewCoordinator(serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := coord.Submit(serve.CampaignSpec{
		Schema:   "nvbitfi.job/v3",
		Workload: testWorkload,
		Config:   withModel(campaign.TransientCampaignConfig{Injections: 5, Seed: 1}, "transient", ""),
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Schema != serve.JobSchema {
		t.Fatalf("explicit-transient job kept schema %q, want %q", st.Schema, serve.JobSchema)
	}
	if st.Config.Model != "" {
		t.Fatalf("explicit-transient job kept model %q in its config", st.Config.Model)
	}

	st, err = coord.Submit(serve.CampaignSpec{
		Schema:   "nvbitfi.job/v3",
		Workload: testWorkload,
		Config:   withModel(campaign.TransientCampaignConfig{Injections: 5, Seed: 1}, "opsub", ""),
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Schema != serve.JobSchema {
		t.Fatalf("model job schema = %q, want %q", st.Schema, serve.JobSchema)
	}
	if st.Config.Model != "opsub" {
		t.Fatalf("model job config model = %q", st.Config.Model)
	}
}

// TestModelServiceTallyIdentity: for every fault model, a 200-injection
// campaign submitted over HTTP and executed by two remote workers produces a
// tally byte-identical to the in-process runner on the same seed. The model
// rides the job spec; workers reconstruct its injectors from the grant alone.
func TestModelServiceTallyIdentity(t *testing.T) {
	cases := []struct {
		name string
		cfg  campaign.TransientCampaignConfig
	}{
		{"stuck", campaign.TransientCampaignConfig{Injections: 200, Seed: 42, Model: "stuck"}},
		{"stuck-gated", campaign.TransientCampaignConfig{Injections: 200, Seed: 42, Model: "stuck", ModelParam: "value=0,p=0.5"}},
		{"opsub", campaign.TransientCampaignConfig{Injections: 200, Seed: 42, Model: "opsub"}},
		{"predflip", campaign.TransientCampaignConfig{Injections: 200, Seed: 42, Model: "predflip"}},
		{"memfault", campaign.TransientCampaignConfig{Injections: 200, Seed: 42, Model: "memfault"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := inProcessTally(t, tc.cfg)

			coord, err := serve.NewCoordinator(serve.Options{})
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(serve.NewServer(coord))
			defer srv.Close()
			client := serve.NewClient(srv.URL)

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var wg sync.WaitGroup
			for i := 0; i < 2; i++ {
				w := &serve.Worker{Backend: serve.NewClient(srv.URL), Runner: campaign.Runner{}, Logf: t.Logf}
				wg.Add(1)
				go func() {
					defer wg.Done()
					w.Run(ctx)
				}()
			}

			st, err := client.Submit(serve.CampaignSpec{
				Schema: serve.JobSchema, Workload: testWorkload, Config: tc.cfg,
			})
			if err != nil {
				t.Fatal(err)
			}
			final, err := client.Watch(ctx, st.ID, 0, func(serve.Event) {})
			if err != nil {
				t.Fatal(err)
			}
			cancel()
			wg.Wait()

			if final.State != serve.JobDone {
				t.Fatalf("job settled as %q: %+v", final.State, final)
			}
			got := mustJSON(t, final.Tally)
			if !bytes.Equal(got, want) {
				t.Fatalf("service tally differs from in-process tally:\nservice:    %s\nin-process: %s", got, want)
			}
		})
	}
}
