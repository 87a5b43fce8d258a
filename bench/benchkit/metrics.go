package benchkit

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Metric is one measured value with its unit, as the result line carries it.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Decl declares a metric: its name, unit and direction, and for end-to-end
// metrics the share of the parent's median by which it may worsen before
// -compare (and the driver) call it a regression.
type Decl struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

const (
	lower  = "lower"
	higher = "higher"
)

// RunSeconds is the measuring window the driver passes as --seconds.
const RunSeconds = 12

// EndToEnd are the metrics a user of the system sees, reported by every
// workload with tracing off. Bounds come from ten seeds per workload on the
// baseline machine (bench/README.md, "Baseline"): a metric's bound is at
// least twice the widest interquartile spread any workload showed. Most of
// what is left after the fastest-sample estimators is the seed itself (a
// repetition holds 30 to 600 faults) and minute-long slow phases of the host
// that leave no undisturbed sample; both are why most bounds sit at the
// contract's ceiling of 25%.
var EndToEnd = []Decl{
	{Name: "inj_per_s", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "ms_per_inj_p50", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "ms_per_inj_p95", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "overhead_inject_x", Unit: "ratio", Better: lower, Bound: 0.25},
	{Name: "overhead_profile_x", Unit: "ratio", Better: lower, Bound: 0.15},
	{Name: "sim_mwinstr_per_s", Unit: "1e6/s", Better: higher, Bound: 0.25},
	{Name: "allocs_per_inj", Unit: "count", Better: lower, Bound: 0.25},
	{Name: "kib_per_inj", Unit: "KiB", Better: lower, Bound: 0.25},
	{Name: "peak_rss_mib", Unit: "MiB", Better: lower, Bound: 0.2},
	{Name: "submit_to_settled_ms_p50", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
}

// faultModels are the four non-default models the per-layer faultmodel rows
// cover (the default transient model is every other row).
var faultModels = []string{"stuck", "opsub", "predflip", "memfault"}

// PerLayer are the traced run's metrics, one layer per prefix. They have no
// bound: they explain a movement of an end-to-end metric, they do not gate.
var PerLayer = perLayerDecls()

func perLayerDecls() []Decl {
	d := []Decl{
		{Name: "sass.assemble_ms", Unit: "ms", Better: lower},
		{Name: "sass.encode_ms", Unit: "ms", Better: lower},
		{Name: "sass.decode_ms", Unit: "ms", Better: lower},

		{Name: "modcache.assemble_hit_rate", Unit: "ratio", Better: higher},
		{Name: "modcache.decode_hit_rate", Unit: "ratio", Better: higher},
		{Name: "modcache.plan_hit_rate", Unit: "ratio", Better: higher},
		{Name: "modcache.plan_builds", Unit: "count", Better: lower},

		{Name: "sassan.analyze_ms", Unit: "ms", Better: lower},
		{Name: "sassan.classtable_ms", Unit: "ms", Better: lower},
		{Name: "sassan.verify_ms", Unit: "ms", Better: lower},

		{Name: "gpu.new_device_us", Unit: "us", Better: lower},
		{Name: "gpu.launch_us_p50", Unit: "us", Better: lower},
		{Name: "gpu.launches_per_run", Unit: "count", Better: lower},
		{Name: "gpu.device_share", Unit: "ratio", Better: lower},
		{Name: "gpu.native_mwinstr_per_s", Unit: "1e6/s", Better: higher},
		{Name: "gpu.snapshot_us", Unit: "us", Better: lower},
		{Name: "gpu.restore_us", Unit: "us", Better: lower},
		{Name: "gpu.digest_us", Unit: "us", Better: lower},
		{Name: "gpu.recycle_us", Unit: "us", Better: lower},
		{Name: "gpu.first_launch_cold_ms", Unit: "ms", Better: lower},

		{Name: "cuda.new_context_us", Unit: "us", Better: lower},
		{Name: "cuda.load_module_us", Unit: "us", Better: lower},
		{Name: "cuda.record_trace_ms", Unit: "ms", Better: lower},
		{Name: "cuda.plan_restore_us", Unit: "us", Better: lower},
		{Name: "cuda.begin_replay_us", Unit: "us", Better: lower},
		{Name: "cuda.host_self_ms", Unit: "ms", Better: lower},

		{Name: "nvbit.attach_us", Unit: "us", Better: lower},
		{Name: "nvbit.detach_us", Unit: "us", Better: lower},
		{Name: "nvbit.launch_begin_us_p50", Unit: "us", Better: lower},
		{Name: "nvbit.jit_builds_per_run", Unit: "count", Better: lower},
		{Name: "nvbit.instrumented_launch_share", Unit: "ratio", Better: lower},
		{Name: "nvbit.armed_overhead_x", Unit: "ratio", Better: lower},

		{Name: "core.new_injector_us", Unit: "us", Better: lower},
		{Name: "core.select_site_us", Unit: "us", Better: lower},
		{Name: "core.profile_exact_ms", Unit: "ms", Better: lower},
		{Name: "core.profile_approx_ms", Unit: "ms", Better: lower},
		{Name: "core.output_compare_us", Unit: "us", Better: lower},
	}
	for _, m := range faultModels {
		d = append(d,
			Decl{Name: "faultmodel.new_injector_us." + m, Unit: "us", Better: lower},
			Decl{Name: "faultmodel.overhead_x." + m, Unit: "ratio", Better: lower})
	}
	return append(d, []Decl{
		{Name: "campaign.golden_ms", Unit: "ms", Better: lower},
		{Name: "campaign.plan_ms", Unit: "ms", Better: lower},
		{Name: "campaign.select_shard_us", Unit: "us", Better: lower},
		{Name: "campaign.classify_us", Unit: "us", Better: lower},
		{Name: "campaign.tally_merge_us", Unit: "us", Better: lower},
		{Name: "campaign.adaptive_strata_ms", Unit: "ms", Better: lower},
		{Name: "campaign.warmup_rep_ms", Unit: "ms", Better: lower},
		{Name: "campaign.setup_share", Unit: "ratio", Better: lower},
		{Name: "campaign.prefix_share", Unit: "ratio", Better: lower},
		{Name: "campaign.postfault_share", Unit: "ratio", Better: higher},
		{Name: "campaign.restored_share", Unit: "ratio", Better: higher},
		{Name: "campaign.early_exit_share", Unit: "ratio", Better: higher},
		{Name: "campaign.par2_speedup_x", Unit: "ratio", Better: higher},

		{Name: "stats.stratified_ci_us", Unit: "us", Better: lower},
		{Name: "report.summary_json_us", Unit: "us", Better: lower},

		{Name: "serve.submit_ms", Unit: "ms", Better: lower},
		{Name: "serve.lease_rtt_us.inproc", Unit: "us", Better: lower},
		{Name: "serve.lease_rtt_us.http", Unit: "us", Better: lower},
		{Name: "serve.complete_ms", Unit: "ms", Better: lower},
		{Name: "serve.heartbeat_us", Unit: "us", Better: lower},
		{Name: "serve.submit_to_first_lease_ms", Unit: "ms", Better: lower},
		{Name: "serve.submit_to_settled_ms_p90", Unit: "ms", Better: lower},
		{Name: "serve.journal_replay_ms", Unit: "ms", Better: lower},
		{Name: "serve.shards_retried", Unit: "count", Better: lower},
		{Name: "serve.service_overhead_x", Unit: "ratio", Better: lower},

		{Name: "fig4.inject_overhead_x_geomean", Unit: "ratio", Better: lower},
		{Name: "fig4.inject_overhead_x_max", Unit: "ratio", Better: lower},
		{Name: "fig4.profile_exact_overhead_x_geomean", Unit: "ratio", Better: lower},
		{Name: "fig4.profile_approx_overhead_x_geomean", Unit: "ratio", Better: lower},

		{Name: "trace.overhead_x", Unit: "ratio", Better: lower},
		{Name: "trace.spans", Unit: "count", Better: lower},
	}...)
}

// metricSet collects a run's metrics against one declaration list, so a
// metric that was never declared or never set is caught where it happens.
type metricSet struct {
	decls map[string]Decl
	vals  map[string]Metric
}

func newMetricSet(decls []Decl) *metricSet {
	s := &metricSet{decls: make(map[string]Decl, len(decls)), vals: make(map[string]Metric, len(decls))}
	for _, d := range decls {
		s.decls[d.Name] = d
	}
	return s
}

// set records a value under a declared name; an undeclared name is a bug in
// the benchmark, not a measurement outcome.
func (s *metricSet) set(name string, v float64) {
	d, ok := s.decls[name]
	if !ok {
		panic("benchkit: metric " + name + " is not declared")
	}
	s.vals[name] = Metric{Value: v, Unit: d.Unit}
}

// finish returns the metrics, or an error naming every declared metric the
// run did not set.
func (s *metricSet) finish() (map[string]Metric, error) {
	var missing []string
	for name := range s.decls {
		if _, ok := s.vals[name]; !ok {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("benchkit: run did not produce metrics %v", missing)
	}
	return s.vals, nil
}

// manifestWorkload is a BENCHMARK.json workload entry.
type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// manifestDecl is a BENCHMARK.json metric entry; per-layer entries carry no
// bound.
type manifestDecl struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// Manifest is BENCHMARK.json: the one command, the workloads, and every
// metric name with its unit, direction and bound.
type Manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestDecl     `json:"end_to_end"`
	PerLayer   []manifestDecl     `json:"per_layer"`
}

// NewManifest builds BENCHMARK.json's content from the declarations in this
// package, so the file cannot drift from what the benchmark emits.
func NewManifest() Manifest {
	m := Manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: RunSeconds,
	}
	for _, w := range Workloads {
		m.Workloads = append(m.Workloads, manifestWorkload{Name: w.Name, Why: w.Why})
	}
	for _, d := range EndToEnd {
		b := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestDecl{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: &b})
	}
	for _, d := range PerLayer {
		m.PerLayer = append(m.PerLayer, manifestDecl{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	return m
}

// WriteManifest writes BENCHMARK.json.
func WriteManifest(path string) error {
	b, err := json.MarshalIndent(NewManifest(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
