package campaign_test

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/sass"
	"repro/internal/specaccel"
)

// benchTarget is the small-kernel workload the amortization benchmarks
// inject into. 303.ostencil has 2 static kernels and 101 dynamic launches:
// large enough that an experiment does real work, small enough that the
// per-run fixed cost (assemble + encode + decode + codec construction) is
// visible against it.
const benchTarget = "303.ostencil"

func benchWorkload(b *testing.B) campaign.Workload {
	b.Helper()
	w, err := specaccel.ByName(benchTarget)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkTransientExperiment measures one complete transient-fault
// experiment: fresh device + context, injector attach, workload run,
// classification. This is the unit a 10k-run campaign repeats, so every
// microsecond here multiplies by the campaign size.
// BenchmarkTransientExperimentInterpreted is the same experiment with the
// block-level translation engine disabled — the per-injection before/after
// pair recorded in BENCH_campaign.json.
func BenchmarkTransientExperiment(b *testing.B)            { benchTransientExperiment(b, false) }
func BenchmarkTransientExperimentInterpreted(b *testing.B) { benchTransientExperiment(b, true) }

func benchTransientExperiment(b *testing.B, noXlate bool) {
	w := benchWorkload(b)
	r := campaign.Runner{}
	if noXlate {
		r = campaign.WithDevice(r, func(d *gpu.Device) { d.NoXlate = true })
	}
	golden, err := r.Golden(w)
	if err != nil {
		b.Fatal(err)
	}
	profile, _, err := r.Profile(w, core.Exact)
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.SelectTransientFault(profile, sass.GroupGPPR, core.FlipSingleBit,
		rand.New(rand.NewSource(42)))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.RunTransient(context.Background(), w, golden, *p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransientCampaignE2E measures a full end-to-end campaign —
// golden run, exact profile, then 100 sequential injections — and reports
// the setup (golden + profile) and injection phases separately, so the
// per-experiment fixed cost the module cache amortizes is visible in the
// custom metrics.
func BenchmarkTransientCampaignE2E(b *testing.B) {
	const injections = 100
	w := benchWorkload(b)
	r := campaign.Runner{}
	var setupNS, runNS int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		golden, err := r.Golden(w)
		if err != nil {
			b.Fatal(err)
		}
		profile, _, err := r.Profile(w, core.Exact)
		if err != nil {
			b.Fatal(err)
		}
		setupNS += time.Since(start).Nanoseconds()

		start = time.Now()
		res, err := campaign.RunTransientCampaign(context.Background(), r, w, golden, profile,
			campaign.TransientCampaignConfig{
				Injections: injections, Seed: 7, Parallel: 1,
			})
		if err != nil {
			b.Fatal(err)
		}
		runNS += time.Since(start).Nanoseconds()
		if res.Tally.N != injections {
			b.Fatalf("campaign ran %d experiments, want %d", res.Tally.N, injections)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(setupNS)/float64(b.N)/1e6, "setup-ms/op")
	b.ReportMetric(float64(runNS)/float64(b.N)/1e6, "campaign-ms/op")
	b.ReportMetric(float64(runNS)/float64(b.N)/float64(injections)/1e6, "ms/injection")
}
