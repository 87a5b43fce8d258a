package serve

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/campaign"
)

// planGrant is a grant of job's shard 0 under cfg, carrying the golden
// digest a coordinator would have computed.
func planGrant(t *testing.T, job string, cfg campaign.TransientCampaignConfig) *LeaseGrant {
	t.Helper()
	wl, err := ResolveWorkload("314.omriq")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := campaign.Runner{}.Golden(wl)
	if err != nil {
		t.Fatal(err)
	}
	return &LeaseGrant{
		LeaseID: "lease-" + job, Job: job,
		Spec:         CampaignSpec{Workload: wl.Name(), Config: cfg},
		GoldenDigest: golden.Output.Digest(),
	}
}

// TestPlanCacheSharedAcrossJobs: two jobs of one spec share one plan — the
// second job costs the worker no golden or profiling run — while a job of
// another spec gets its own.
func TestPlanCacheSharedAcrossJobs(t *testing.T) {
	w := &Worker{}
	ctx := context.Background()
	cfg := campaign.TransientCampaignConfig{Injections: 20, Seed: 1, ShardSize: 10}
	p1, _, err := w.plan(ctx, planGrant(t, "job-a", cfg))
	if err != nil {
		t.Fatal(err)
	}
	p2, _, err := w.plan(ctx, planGrant(t, "job-b", cfg))
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("a second job of the same spec rebuilt the plan")
	}
	cfg.Seed = 2
	p3, _, err := w.plan(ctx, planGrant(t, "job-c", cfg))
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Fatal("a job with another seed was handed the first spec's plan")
	}
}

// TestPlanCacheChecksDigestOnEveryGrant: a cached plan does not excuse a
// grant from the golden digest check.
func TestPlanCacheChecksDigestOnEveryGrant(t *testing.T) {
	w := &Worker{}
	ctx := context.Background()
	cfg := campaign.TransientCampaignConfig{Injections: 20, Seed: 1, ShardSize: 10}
	if _, _, err := w.plan(ctx, planGrant(t, "job-a", cfg)); err != nil {
		t.Fatal(err)
	}
	bad := planGrant(t, "job-b", cfg)
	bad.GoldenDigest = strings.Repeat("0", len(bad.GoldenDigest))
	if _, _, err := w.plan(ctx, bad); err == nil || !strings.Contains(err.Error(), "golden digest mismatch") {
		t.Fatalf("grant with a foreign digest on a cached plan: err = %v, want a digest mismatch", err)
	}
	if _, _, err := w.plan(ctx, planGrant(t, "job-c", cfg)); err != nil {
		t.Fatalf("a good grant after a mismatched one: %v", err)
	}
}

// TestPlanCacheBounded: the cache never holds more than planCacheSize specs
// and evicts the least recently used one.
func TestPlanCacheBounded(t *testing.T) {
	w := &Worker{}
	ctx := context.Background()
	cfgFor := func(seed int) campaign.TransientCampaignConfig {
		return campaign.TransientCampaignConfig{Injections: 20, Seed: int64(seed), ShardSize: 10}
	}
	first := make([]*campaign.ShardPlan, planCacheSize+1)
	for seed := 0; seed <= planCacheSize; seed++ {
		p, _, err := w.plan(ctx, planGrant(t, "job", cfgFor(seed)))
		if err != nil {
			t.Fatal(err)
		}
		first[seed] = p
		// Keep spec 0 the most recently used, so spec 1 is the one evicted.
		if _, _, err := w.plan(ctx, planGrant(t, "job", cfgFor(0))); err != nil {
			t.Fatal(err)
		}
		if len(w.plans) > planCacheSize {
			t.Fatalf("cache holds %d specs, bound is %d", len(w.plans), planCacheSize)
		}
	}
	if p, _, _ := w.plan(ctx, planGrant(t, "job", cfgFor(0))); p != first[0] {
		t.Fatal("the most recently used spec was evicted")
	}
	if p, _, _ := w.plan(ctx, planGrant(t, "job", cfgFor(1))); p == first[1] {
		t.Fatal("the least recently used spec survived a full cache")
	}
}

// TestPlanCacheDropsCancelledBuild: a build cut short by cancellation is not
// remembered as the spec's result.
func TestPlanCacheDropsCancelledBuild(t *testing.T) {
	w := &Worker{}
	grant := planGrant(t, "job-a", campaign.TransientCampaignConfig{Injections: 20, Seed: 1, ShardSize: 10})
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := w.plan(cancelled, grant); !errors.Is(err, context.Canceled) {
		t.Fatalf("plan on a cancelled context: err = %v, want context.Canceled", err)
	}
	if len(w.plans) != 0 {
		t.Fatal("a cancelled build was cached")
	}
	if _, _, err := w.plan(context.Background(), grant); err != nil {
		t.Fatalf("plan after a cancelled build: %v", err)
	}
}
