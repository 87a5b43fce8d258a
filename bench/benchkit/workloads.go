// Package benchkit is the repo's campaign benchmark: six named workloads
// over the shipped SpecACCEL analogs, end-to-end metrics measured with
// tracing off, and a separate traced run that times every layer from
// outside, around calls into its public functions. bench/README.md gives
// the metric definitions and how the layers are expected to move them.
package benchkit

import (
	"fmt"
	"math"

	"repro/internal/campaign"
)

// Part is one campaign of a workload: a program plus the campaign config a
// user would hand RunTransientCampaign (or submit to the service). Seed and
// Injections are filled in per run.
type Part struct {
	Program string
	// N is the injections per repetition at scale 1.
	N   int
	Cfg campaign.TransientCampaignConfig
}

// label names the part in reports: the program, qualified by the fault model
// when the workload runs one program under several.
func (p Part) label() string {
	if p.Cfg.Model != "" {
		return p.Program + "/" + p.Cfg.Model
	}
	return p.Program
}

// Workload is one named benchmark workload. A repetition runs every part
// once, in order; all loops are closed.
type Workload struct {
	Name string
	// Why is the one-line reason recorded in BENCHMARK.json.
	Why   string
	Parts []Part
	// Service runs the parts through the campaign service instead of
	// in-process: Parts[0] is the throughput phase (A), Parts[1] the
	// small-job latency phase (B).
	Service bool
}

// DefaultSeed is the seed bench/expected.json was recorded at.
const DefaultSeed = 11

// Workloads are sized so a repetition, with the baseline samples taken
// before it, takes about a second on the 2-core 2.1 GHz Xeon the baseline was
// taken on: the driver's window then holds ten or more repetitions, and every
// experiment has that many timed runs to take the fastest of.
var Workloads = []Workload{
	{
		Name: "stencil_engine",
		Why:  "303.ostencil, 220k warp instrs in 101 launches: internal/gpu is 99% of experiment time, so only engine changes move it",
		Parts: []Part{
			{Program: "303.ostencil", N: 30, Cfg: campaign.TransientCampaignConfig{Parallel: 1}},
		},
	},
	{
		Name: "tiny_fixedcost",
		Why:  "314.omriq then 352.ep, 1.5 ms runs of 20 us launches: per-experiment cost outside the engine is largest here, so fixed-cost changes show here or nowhere",
		Parts: []Part{
			{Program: "314.omriq", N: 250, Cfg: campaign.TransientCampaignConfig{Parallel: 1}},
			{Program: "352.ep", N: 150, Cfg: campaign.TransientCampaignConfig{Parallel: 1}},
		},
	},
	{
		Name: "clover_par2",
		Why:  "353.clvrleaf at Parallel=2, many kernels, 12k allocs/inj, 12% DUE: contention on shared caches, pools and the GC shows here",
		Parts: []Part{
			{Program: "353.clvrleaf", N: 60, Cfg: campaign.TransientCampaignConfig{Parallel: 2}},
		},
	},
	{
		Name: "ckpt_replay",
		Why:  "356.sp checkpointed: snapshot restore, digest and journal replay instead of launches; engine gains barely move it",
		Parts: []Part{
			{Program: "356.sp", N: 600, Cfg: campaign.TransientCampaignConfig{Parallel: 1, Checkpoint: true}},
		},
	},
	{
		Name: "models_armed",
		Why:  "353.clvrleaf under stuck/opsub/predflip/memfault: Caps()==0, nvbit dispatch and injectors stay hot for the whole run",
		Parts: []Part{
			{Program: "353.clvrleaf", N: 8, Cfg: campaign.TransientCampaignConfig{Parallel: 1, Model: "stuck"}},
			{Program: "353.clvrleaf", N: 8, Cfg: campaign.TransientCampaignConfig{Parallel: 1, Model: "opsub"}},
			{Program: "353.clvrleaf", N: 8, Cfg: campaign.TransientCampaignConfig{Parallel: 1, Model: "predflip"}},
			{Program: "353.clvrleaf", N: 8, Cfg: campaign.TransientCampaignConfig{Parallel: 1, Model: "memfault"}},
		},
	},
	{
		Name:    "service_http",
		Why:     "coordinator + fsynced journal + 2 HTTP workers: phase A 304.olbm throughput, phase B back-to-back 40-injection 314.omriq jobs for submit-to-settled latency",
		Service: true,
		Parts: []Part{
			{Program: "304.olbm", N: 50, Cfg: campaign.TransientCampaignConfig{Parallel: 1, ShardSize: 25}},
			{Program: "314.omriq", N: 40, Cfg: campaign.TransientCampaignConfig{Parallel: 1, ShardSize: 10}},
		},
	},
}

// WorkloadByName finds a workload.
func WorkloadByName(name string) (Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(Workloads))
	for i, w := range Workloads {
		names[i] = w.Name
	}
	return Workload{}, fmt.Errorf("benchkit: unknown workload %q (have %v)", name, names)
}

// config is the part's campaign config for one run. The part index is folded
// into the seed so a workload's parts draw decorrelated fault streams; the
// program under test receives only this generated config.
func (p Part) config(seed int64, scale float64, idx int) campaign.TransientCampaignConfig {
	cfg := p.Cfg
	cfg.Seed = seed<<4 | int64(idx)
	cfg.Injections = max(4, int(math.Round(float64(p.N)*scale)))
	return cfg
}
