package campaign_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/specaccel"
)

func campaignFixture(t *testing.T) (campaign.Runner, campaign.Workload, *campaign.GoldenResult, *core.Profile) {
	t.Helper()
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
	return r, w, golden, profile
}

// TestShardSeedDecorrelated: neighbouring shards and neighbouring campaign
// seeds must get distinct selection seeds.
func TestShardSeedDecorrelated(t *testing.T) {
	seen := make(map[int64]bool)
	for seed := int64(0); seed < 4; seed++ {
		for shard := 0; shard < 16; shard++ {
			s := campaign.ShardSeed(seed, shard)
			if seen[s] {
				t.Fatalf("ShardSeed(%d, %d) = %d collides", seed, shard, s)
			}
			seen[s] = true
		}
	}
}

// TestShardRange: the shard ranges tile [0, Injections) exactly.
func TestShardRange(t *testing.T) {
	cfg := campaign.TransientCampaignConfig{Injections: 53, ShardSize: 10}
	if got := cfg.NumShards(); got != 6 {
		t.Fatalf("NumShards = %d, want 6", got)
	}
	next := 0
	for s := 0; s < cfg.NumShards(); s++ {
		lo, hi := cfg.ShardRange(s)
		if lo != next || hi <= lo {
			t.Fatalf("shard %d covers [%d,%d), want lo=%d", s, lo, hi, next)
		}
		next = hi
	}
	if next != 53 {
		t.Fatalf("shards cover [0,%d), want [0,53)", next)
	}
}

// bystanderSpy counts the experiments that began while a goroutine that was
// already runnable had not yet run.
type bystanderSpy struct {
	campaign.Workload
	armed, bystanderRan atomic.Bool
	beganFirst          atomic.Int32
}

func (w *bystanderSpy) Run(ctx *cuda.Context) (*campaign.Output, error) {
	if w.armed.Load() && !w.bystanderRan.Load() {
		w.beganFirst.Add(1)
	}
	return w.Workload.Run(ctx)
}

// TestShardYieldsToQueuedWork: on one processor, a goroutine made runnable
// before a shard starts runs before the shard's first experiment, not after
// the scheduler has preempted the chain of experiments (each exit wakes the
// loop, the loop starts the next; both are handed the processor directly).
// Under the campaign service that goroutine is the submitter's reply.
func TestShardYieldsToQueuedWork(t *testing.T) {
	r, w, golden, profile := campaignFixture(t)
	spy := &bystanderSpy{Workload: w}
	plan, err := campaign.NewShardPlan(r, spy, golden, profile,
		campaign.TransientCampaignConfig{Injections: 8, Seed: 7, ShardSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	release := make(chan struct{})
	go func() {
		<-release
		spy.bystanderRan.Store(true)
	}()
	runtime.Gosched() // the bystander is parked on release
	spy.armed.Store(true)
	close(release) // and now runnable, queued behind this goroutine
	if _, err := plan.RunShard(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	// One is allowed: every 61st scheduling decision takes the yielding loop
	// straight back off the global queue, and the next yield makes up for it.
	if n := spy.beganFirst.Load(); n > 1 {
		t.Errorf("%d of 8 experiments began before a goroutine that was runnable when the shard started", n)
	}
}

// runCounter counts the experiments that began.
type runCounter struct {
	campaign.Workload
	runs atomic.Int32
}

func (w *runCounter) Run(ctx *cuda.Context) (*campaign.Output, error) {
	w.runs.Add(1)
	return w.Workload.Run(ctx)
}

// TestShardCancelledStartsNothing: a shard run under a cancelled context
// starts no experiment — every index is answered with the context's error by
// the worker that claims it — with one worker and with several.
func TestShardCancelledStartsNothing(t *testing.T) {
	r, w, golden, profile := campaignFixture(t)
	for _, parallel := range []int{1, 3} {
		counter := &runCounter{Workload: w}
		plan, err := campaign.NewShardPlan(r, counter, golden, profile,
			campaign.TransientCampaignConfig{Injections: 8, Seed: 7, ShardSize: 8, Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := plan.RunShard(ctx, 0); !errors.Is(err, context.Canceled) {
			t.Errorf("Parallel %d: RunShard on a cancelled context returned %v, want context.Canceled", parallel, err)
		}
		if n := counter.runs.Load(); n != 0 {
			t.Errorf("Parallel %d: %d experiments began under a cancelled context", parallel, n)
		}
	}
}

// TestShardSelectionIsPartition: selecting every shard separately — in any
// order — must reproduce exactly the runs of the single-process campaign,
// and the merged per-shard tallies must marshal byte-identically to the
// campaign tally. This is the identity the campaign service rests on.
func TestShardSelectionIsPartition(t *testing.T) {
	r, w, golden, profile := campaignFixture(t)
	cfg := campaign.TransientCampaignConfig{Injections: 30, Seed: 7, ShardSize: 10}

	full, err := campaign.RunTransientCampaign(context.Background(), r, w, golden, profile, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := campaign.NewShardPlan(r, w, golden, profile, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumShards() != 3 {
		t.Fatalf("NumShards = %d, want 3", plan.NumShards())
	}

	// Run the shards in reverse order, as a work-stealing fleet might.
	merged := campaign.NewTally()
	runs := make([][]campaign.RunResult, plan.NumShards())
	for s := plan.NumShards() - 1; s >= 0; s-- {
		results, err := plan.RunShard(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		runs[s] = results
		merged.Merge(campaign.TallyRuns(results))
	}

	var flat []campaign.RunResult
	for _, rr := range runs {
		flat = append(flat, rr...)
	}
	if len(flat) != len(full.Runs) {
		t.Fatalf("sharded runs = %d, campaign runs = %d", len(flat), len(full.Runs))
	}
	for i := range flat {
		if flat[i].Class != full.Runs[i].Class || flat[i].Injection != full.Runs[i].Injection {
			t.Fatalf("run %d differs between sharded and in-process execution", i)
		}
	}

	a, err := json.Marshal(full.Tally)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("tally mismatch:\ncampaign: %s\nsharded:  %s", a, b)
	}
}

// TestShardedPrunedCheckpointedCampaign: the partition identity must hold
// with site-resolved selection over the dead-write kernel, whose dead sites
// run like any other, and with the checkpoint engine on — the modes the
// service's workers run with.
func TestShardedPrunedCheckpointedCampaign(t *testing.T) {
	r, w, golden, profile := campaignFixture(t)
	dead := deadWorkload{}
	deadGolden, err := r.Golden(dead)
	if err != nil {
		t.Fatal(err)
	}
	deadProfile, _, err := r.Profile(dead, core.Exact)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		w       campaign.Workload
		golden  *campaign.GoldenResult
		profile *core.Profile
		cfg     campaign.TransientCampaignConfig
	}{
		{dead, deadGolden, deadProfile, campaign.TransientCampaignConfig{Injections: 20, Seed: 11, ShardSize: 7, ResolveSites: true}},
		{w, golden, profile, campaign.TransientCampaignConfig{Injections: 20, Seed: 11, ShardSize: 7, Checkpoint: true}},
	} {
		w, golden, profile, cfg := c.w, c.golden, c.profile, c.cfg
		full, err := campaign.RunTransientCampaign(context.Background(), r, w, golden, profile, cfg)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := campaign.NewShardPlan(r, w, golden, profile, cfg)
		if err != nil {
			t.Fatal(err)
		}
		merged := campaign.NewTally()
		for s := 0; s < plan.NumShards(); s++ {
			results, err := plan.RunShard(context.Background(), s)
			if err != nil {
				t.Fatal(err)
			}
			merged.Merge(campaign.TallyRuns(results))
		}
		a, _ := json.Marshal(full.Tally)
		b, _ := json.Marshal(merged)
		if !bytes.Equal(a, b) {
			t.Fatalf("%s ckpt=%v tally mismatch:\ncampaign: %s\nsharded:  %s",
				w.Name(), cfg.Checkpoint, a, b)
		}
	}
}

// TestShardPlanRequiresKernels: a fault model or adaptive sampling against a
// golden result that predates kernel capture must fail loudly instead of
// silently selecting or stratifying without the static view.
func TestShardPlanRequiresKernels(t *testing.T) {
	r, w, golden, profile := campaignFixture(t)
	stale := *golden
	stale.Kernels = nil
	for _, cfg := range []campaign.TransientCampaignConfig{
		{Injections: 4, Seed: 1, Model: "stuck"},
		{Injections: 4, Seed: 1, TargetCI: 0.1},
	} {
		_, err := campaign.RunTransientCampaign(context.Background(), r, w, &stale, profile, cfg)
		if err == nil || !strings.Contains(err.Error(), "no kernels") {
			t.Fatalf("%+v with a kernel-less golden result: err = %v", cfg, err)
		}
	}
}

// TestShardOutOfRange: selecting a shard outside the campaign fails.
func TestShardOutOfRange(t *testing.T) {
	_, _, _, profile := campaignFixture(t)
	cfg := campaign.TransientCampaignConfig{Injections: 10, ShardSize: 10}
	if _, err := campaign.SelectShard(profile, cfg, 1); err == nil {
		t.Fatal("shard 1 of a 1-shard campaign selected without error")
	}
	if _, err := campaign.SelectShard(profile, cfg, -1); err == nil {
		t.Fatal("shard -1 selected without error")
	}
}

// TestCampaignCancellation: a context cancelled up front stops the campaign
// before any experiment runs and surfaces the context error.
func TestCampaignCancellation(t *testing.T) {
	r, w, golden, profile := campaignFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := campaign.RunTransientCampaign(ctx, r, w, golden, profile,
		campaign.TransientCampaignConfig{Injections: 8, Seed: 3})
	if err == nil || !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Fatalf("cancelled campaign returned %v, want context.Canceled", err)
	}
	if res == nil || res.Tally.N != 0 {
		t.Fatalf("cancelled campaign still classified %d runs", res.Tally.N)
	}
}

// TestSetupRunCancellation: the set-up runs give up with the caller. A done
// context ends GoldenContext and ProfileContext with its error, while a live
// one yields exactly the reference Golden does.
func TestSetupRunCancellation(t *testing.T) {
	r, w, golden, _ := campaignFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	got, err := r.GoldenContext(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	if got.Output.Digest() != golden.Output.Digest() || got.Stats != golden.Stats {
		t.Fatalf("GoldenContext on a live context diverges from Golden:\n got %+v\nwant %+v", got.Stats, golden.Stats)
	}
	cancel()
	if _, err := r.GoldenContext(ctx, w); !errors.Is(err, context.Canceled) {
		t.Fatalf("GoldenContext on a cancelled context returned %v, want context.Canceled", err)
	}
	if _, _, err := r.ProfileContext(ctx, w, core.Exact); !errors.Is(err, context.Canceled) {
		t.Fatalf("ProfileContext on a cancelled context returned %v, want context.Canceled", err)
	}
}

// TestTallyJSONStable: the encoding is schema-versioned, byte-stable, and
// round-trips.
func TestTallyJSONStable(t *testing.T) {
	tl := campaign.NewTally()
	tl.Add(campaign.Classification{Outcome: campaign.SDC})
	tl.Add(campaign.Classification{Outcome: campaign.Masked})
	tl.Add(campaign.Classification{Outcome: campaign.Masked})
	tl.NotActivated = 1
	tl.Restored = 2
	a, err := json.Marshal(tl)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(a), `"schema":"`+campaign.TallySchema+`"`) {
		t.Fatalf("encoding lacks schema field: %s", a)
	}
	b, _ := json.Marshal(tl)
	if !bytes.Equal(a, b) {
		t.Fatal("re-marshaling the same tally changed the bytes")
	}
	var back campaign.Tally
	if err := json.Unmarshal(a, &back); err != nil {
		t.Fatal(err)
	}
	c, _ := json.Marshal(&back)
	if !bytes.Equal(a, c) {
		t.Fatalf("round-trip changed the encoding:\n%s\n%s", a, c)
	}
	if err := json.Unmarshal([]byte(`{"schema":"nvbitfi.tally/v99"}`), &back); err == nil {
		t.Fatal("unknown schema accepted")
	}
}

// TestTallyMergeCommutes: merging shard tallies in any order produces
// identical bytes.
func TestTallyMergeCommutes(t *testing.T) {
	mk := func(sdc, masked int) *campaign.Tally {
		tl := campaign.NewTally()
		for i := 0; i < sdc; i++ {
			tl.Add(campaign.Classification{Outcome: campaign.SDC})
		}
		for i := 0; i < masked; i++ {
			tl.Add(campaign.Classification{Outcome: campaign.Masked})
		}
		return tl
	}
	ab := mk(2, 1)
	ab.Merge(mk(1, 4))
	ba := mk(1, 4)
	ba.Merge(mk(2, 1))
	if err := ab.Check(); err != nil {
		t.Errorf("Check refuses a merged tally: %v", err)
	}
	a, _ := json.Marshal(ab)
	b, _ := json.Marshal(ba)
	if !bytes.Equal(a, b) {
		t.Fatalf("merge order changed the tally: %s vs %s", a, b)
	}
}

// TestOutputDigest: equal outputs digest equally; any observable difference
// changes the digest.
func TestOutputDigest(t *testing.T) {
	a := campaign.NewOutput()
	a.Printf("hello %d\n", 42)
	a.Files = map[string][]byte{"out.dat": {1, 2, 3}}
	b := campaign.NewOutput()
	b.Printf("hello %d\n", 42)
	b.Files = map[string][]byte{"out.dat": {1, 2, 3}}
	if a.Digest() != b.Digest() {
		t.Fatal("equal outputs digest differently")
	}
	b.ExitCode = 1
	if a.Digest() == b.Digest() {
		t.Fatal("exit code not covered by the digest")
	}
	b.ExitCode = 0
	b.Files["out.dat"] = []byte{1, 2, 4}
	if a.Digest() == b.Digest() {
		t.Fatal("file contents not covered by the digest")
	}
}
