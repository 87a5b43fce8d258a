package benchkit

import (
	"context"
	"math"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/specaccel"
)

// Fig4Row is one program's row of the paper's Figure 4: instrumented time
// over uninstrumented time, for injection and for both profiling modes.
type Fig4Row struct {
	Program        string  `json:"program"`
	NativeMs       float64 `json:"native_ms"`
	InjectX        float64 `json:"inject_x"`
	ProfileExactX  float64 `json:"profile_exact_x"`
	ProfileApproxX float64 `json:"profile_approx_x"`
}

// Sweep sizes: small, because the sweep exists for coverage — a regression
// on a program no workload samples — not for tight numbers.
const (
	fig4Goldens    = 3
	fig4Profiles   = 2
	fig4Injections = 10
)

// fig4Sweep measures the Figure 4 ratios on all 15 SpecACCEL analogs.
func fig4Sweep(ctx context.Context, seed int64) ([]Fig4Row, error) {
	var rows []Fig4Row
	for _, w := range specaccel.All() {
		var golden *campaign.GoldenResult
		natives := make([]float64, fig4Goldens)
		for i := range natives {
			g, err := runner.Golden(w)
			if err != nil {
				return nil, err
			}
			golden, natives[i] = g, ms(g.Duration)
		}
		profileMs := func(mode core.ProfileMode) (*core.Profile, float64, error) {
			var prof *core.Profile
			ds := make([]float64, fig4Profiles)
			for i := range ds {
				p, d, err := runner.Profile(w, mode)
				if err != nil {
					return nil, 0, err
				}
				prof, ds[i] = p, ms(d)
			}
			return prof, median(ds), nil
		}
		profile, exact, err := profileMs(core.Exact)
		if err != nil {
			return nil, err
		}
		_, approx, err := profileMs(core.Approximate)
		if err != nil {
			return nil, err
		}
		res, err := campaign.RunTransientCampaign(ctx, runner, w, golden, profile,
			campaign.TransientCampaignConfig{Injections: fig4Injections, Seed: seed, Parallel: 1})
		if err != nil {
			return nil, err
		}
		native := median(natives)
		rows = append(rows, Fig4Row{
			Program:        w.Name(),
			NativeMs:       native,
			InjectX:        ms(res.MedianRunTime) / native,
			ProfileExactX:  exact / native,
			ProfileApproxX: approx / native,
		})
	}
	return rows, nil
}

// fig4Metrics folds the per-program table into its geometric means and the
// worst injection ratio.
func fig4Metrics(m *metricSet, rows []Fig4Row) {
	var inj, exact, approx, worst float64
	for _, r := range rows {
		inj += math.Log(r.InjectX)
		exact += math.Log(r.ProfileExactX)
		approx += math.Log(r.ProfileApproxX)
		worst = max(worst, r.InjectX)
	}
	n := float64(len(rows))
	m.set("fig4.inject_overhead_x_geomean", math.Exp(inj/n))
	m.set("fig4.inject_overhead_x_max", worst)
	m.set("fig4.profile_exact_overhead_x_geomean", math.Exp(exact/n))
	m.set("fig4.profile_approx_overhead_x_geomean", math.Exp(approx/n))
}
