package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/specaccel"
)

// adaptiveCfg is the adaptive campaign the serve tests distribute: a budget
// of 300 selections with a target loose enough that the estimate converges
// well inside it. The workload and seed are fixed, the simulator is
// deterministic, so the stopping shard is a constant of the test.
func adaptiveCfg() campaign.TransientCampaignConfig {
	return campaign.TransientCampaignConfig{Injections: 300, Seed: 46, TargetCI: 0.10}
}

// inProcessAdaptive runs the adaptive campaign single-process and returns
// the full result plus its tally bytes — the reference the distributed runs
// must reproduce exactly.
func inProcessAdaptive(t *testing.T, cfg campaign.TransientCampaignConfig) (*campaign.CampaignResult, []byte) {
	t.Helper()
	w, err := specaccel.ByName(testWorkload)
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
	res, err := campaign.RunTransientCampaign(context.Background(), r, w, golden, profile, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res.Tally)
	if err != nil {
		t.Fatal(err)
	}
	return res, b
}

// TestAdaptiveServiceIdentity is the distribution-invariance proof for the
// stopping rule: an adaptive job executed by two HTTP workers must stop at
// exactly the shard the in-process runner stops at, skip the same trailing
// shards, and settle with a byte-identical tally. The decision is a pure
// function of (seed, completed-shard prefix), so how the shards were spread
// over workers cannot move it.
func TestAdaptiveServiceIdentity(t *testing.T) {
	cfg := adaptiveCfg()
	inproc, want := inProcessAdaptive(t, cfg)
	if inproc.Adaptive == nil || !inproc.Adaptive.Converged {
		t.Fatalf("reference run did not converge: %+v", inproc.Adaptive)
	}
	if last := cfg.NumShards() - 1; inproc.Adaptive.StopShard >= last {
		t.Fatalf("reference run stopped only at the final shard %d; loosen the test target", last)
	}

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
		Schema: serve.JobSchema, Workload: testWorkload, Config: cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Schema != serve.JobSchema {
		t.Fatalf("submitted job reports schema %q, want %q", st.Schema, serve.JobSchema)
	}
	if len(st.Strata) == 0 {
		t.Fatal("adaptive job status carries no stratum composition")
	}

	var sawConverged bool
	final, err := client.Watch(ctx, st.ID, 0, func(ev serve.Event) {
		if ev.Type == "job" && ev.State == serve.EventConverged {
			sawConverged = true
			if ev.Shard != inproc.Adaptive.StopShard {
				t.Errorf("converged event at shard %d, in-process stopped at %d", ev.Shard, inproc.Adaptive.StopShard)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	wg.Wait()

	if final.State != serve.JobDone {
		t.Fatalf("job settled as %q: %+v", final.State, final)
	}
	if !sawConverged {
		t.Fatal("no converged event reached the watcher")
	}
	if !final.Converged || final.StopShard != inproc.Adaptive.StopShard {
		t.Fatalf("job converged=%v at shard %d, in-process stopped at %d",
			final.Converged, final.StopShard, inproc.Adaptive.StopShard)
	}
	if wantSkipped := cfg.NumShards() - 1 - final.StopShard; final.Skipped != wantSkipped {
		t.Fatalf("job skipped %d shards, want %d", final.Skipped, wantSkipped)
	}
	if final.AchievedCI <= 0 || final.AchievedCI > cfg.TargetCI {
		t.Fatalf("achieved CI %v outside (0, %v]", final.AchievedCI, cfg.TargetCI)
	}
	got := mustJSON(t, final.Tally)
	if !bytes.Equal(got, want) {
		t.Fatalf("distributed adaptive tally differs from in-process:\nservice:    %s\nin-process: %s", got, want)
	}
	skipped := 0
	for _, sh := range final.Shards {
		if sh.State == serve.ShardSkipped {
			skipped++
			if sh.Index <= final.StopShard {
				t.Errorf("shard %d at or before the stopping point is marked skipped", sh.Index)
			}
		}
	}
	if skipped != final.Skipped {
		t.Errorf("status counts %d skipped, shard list shows %d", final.Skipped, skipped)
	}
}

// TestAdaptiveSpecValidation: a target CI is a field like any other — a spec
// carries it under any schema string the service accepts — and it is held to
// (0,1) at submission.
func TestAdaptiveSpecValidation(t *testing.T) {
	coord, err := serve.NewCoordinator(serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := adaptiveCfg()
	for _, schema := range []string{serve.JobSchema, "", "nvbitfi.job/v2", "nvbitfi.job/v3"} {
		if err := (serve.CampaignSpec{Schema: schema, Workload: testWorkload, Config: cfg}).Validate(); err != nil {
			t.Errorf("adaptive spec under schema %q refused: %v", schema, err)
		}
	}
	cfg.TargetCI = 1.5
	if _, err := coord.Submit(serve.CampaignSpec{
		Schema: serve.JobSchema, Workload: testWorkload, Config: cfg,
	}); err == nil || !strings.Contains(err.Error(), "target CI") {
		t.Fatalf("spec with target CI 1.5 accepted: err = %v", err)
	}
}

// TestAdaptiveRestartResumesMidConvergence drives the coordinator by hand —
// lease, run the shard through the worker's own ShardPlan path, complete —
// so the crash point is exact: two shards land, the coordinator dies before
// the estimate converges, and a fresh coordinator on the same journal must
// resume, converge at the in-process stopping shard, and settle with the
// identical tally. A third replay of the settled journal must reconstruct
// the converged job verbatim from its job_converged entry.
func TestAdaptiveRestartResumesMidConvergence(t *testing.T) {
	cfg := adaptiveCfg()
	cfg.ShardSize = 10 // finer shards so the crash lands well before convergence
	inproc, want := inProcessAdaptive(t, cfg)
	stop := inproc.Adaptive.StopShard
	if !inproc.Adaptive.Converged || stop < 3 {
		t.Fatalf("reference run must converge past shard 2 for the crash to precede it; stopped at %d", stop)
	}

	// Pre-run every shard the job can need through the worker execution path.
	w, err := specaccel.ByName(testWorkload)
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
	plan, err := campaign.NewShardPlan(r, w, golden, profile, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tallies := make([]*campaign.Tally, cfg.NumShards())
	for s := 0; s <= stop; s++ {
		results, err := plan.RunShard(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		tallies[s] = campaign.TallyRuns(results)
	}

	journal := filepath.Join(t.TempDir(), "journal.jsonl")
	coord1, err := serve.NewCoordinator(serve.Options{JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	st, err := coord1.Submit(serve.CampaignSpec{
		Schema: serve.JobSchema, Workload: testWorkload, Config: cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	wid1, err := coord1.Register(serve.WorkerInfo{Name: "phase1"})
	if err != nil {
		t.Fatal(err)
	}
	// Phase 1: complete exactly two shards, then crash the coordinator.
	for i := 0; i < 2; i++ {
		g, err := coord1.Lease(wid1)
		if err != nil || g == nil {
			t.Fatalf("phase1 lease %d: %v %v", i, g, err)
		}
		if err := coord1.Complete(wid1, g.LeaseID, serve.ShardResult{
			Tally: tallies[g.Shard], GoldenDigest: g.GoldenDigest,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if js, _ := coord1.Job(st.ID); js.Converged {
		t.Fatalf("job converged after two shards; the crash point is past the decision: %+v", js)
	}
	if err := coord1.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: a fresh coordinator resumes mid-flight and runs to convergence.
	coord2, err := serve.NewCoordinator(serve.Options{JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	js, ok := coord2.Job(st.ID)
	if !ok {
		t.Fatal("restarted coordinator forgot the adaptive job")
	}
	if js.State != serve.JobRunning || js.Done != 2 || js.Converged {
		t.Fatalf("resumed mid-convergence state: %+v", js)
	}
	wid2, err := coord2.Register(serve.WorkerInfo{Name: "phase2"})
	if err != nil {
		t.Fatal(err)
	}
	// Lease parks when nothing is runnable, so it is driven only while the
	// job is unsettled; completed == stop+1 below still proves no shard past
	// the stopping point was leased.
	completed := 2
	for {
		if js, _ := coord2.Job(st.ID); serve.Settled(js.State) {
			break
		}
		g, err := coord2.Lease(wid2)
		if err != nil || g == nil {
			t.Fatalf("phase2 lease: %v %v", g, err)
		}
		if tallies[g.Shard] == nil {
			t.Fatalf("coordinator leased shard %d past the stopping point %d", g.Shard, stop)
		}
		if err := coord2.Complete(wid2, g.LeaseID, serve.ShardResult{
			Tally: tallies[g.Shard], GoldenDigest: g.GoldenDigest,
		}); err != nil {
			t.Fatal(err)
		}
		completed++
	}
	js, _ = coord2.Job(st.ID)
	if js.State != serve.JobDone || !js.Converged || js.StopShard != stop {
		t.Fatalf("resumed job settled converged=%v at shard %d (state %q), want shard %d",
			js.Converged, js.StopShard, js.State, stop)
	}
	if completed != stop+1 {
		t.Fatalf("completed %d shards across the restart, want %d", completed, stop+1)
	}
	got := mustJSON(t, js.Tally)
	if !bytes.Equal(got, want) {
		t.Fatalf("post-restart adaptive tally differs:\nservice:    %s\nin-process: %s", got, want)
	}
	if err := coord2.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 3: replaying the settled journal — job_converged entry included —
	// must reconstruct the converged job without re-deciding anything.
	coord3, err := serve.NewCoordinator(serve.Options{JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	js3, ok := coord3.Job(st.ID)
	if !ok {
		t.Fatal("settled adaptive job lost on replay")
	}
	if js3.State != serve.JobDone || !js3.Converged || js3.StopShard != stop || js3.Skipped != js.Skipped {
		t.Fatalf("replayed job diverges: %+v vs %+v", js3, js)
	}
	if !bytes.Equal(mustJSON(t, js3.Tally), want) {
		t.Fatal("replayed tally differs from the settled tally")
	}
}

// TestAdaptiveOffStatusByteIdentity: a fixed-count v1 job's status encoding
// must not contain any adaptive field — the omitempty fence that keeps v1
// consumers unaware the engine exists.
func TestAdaptiveOffStatusByteIdentity(t *testing.T) {
	coord, err := serve.NewCoordinator(serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := coord.Submit(serve.CampaignSpec{
		Workload: testWorkload,
		Config:   campaign.TransientCampaignConfig{Injections: 20, Seed: 5, ShardSize: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	b := mustJSON(t, st)
	for _, key := range []string{"skipped", "converged", "stop_shard", "achieved_ci", "strata", "TargetCI", "Confidence", "MaxInjections"} {
		if strings.Contains(string(b), `"`+key+`"`) {
			t.Errorf("fixed-count job status leaks %q: %s", key, b)
		}
	}
	if st.Schema != serve.JobSchema {
		t.Errorf("fixed-count job schema = %q, want %q", st.Schema, serve.JobSchema)
	}
}
