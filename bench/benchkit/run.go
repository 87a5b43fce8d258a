package benchkit

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/modcache"
	"repro/internal/specaccel"
)

// Options selects one benchmark run.
type Options struct {
	Workload string
	// Seed generates the run's inputs; the same seed gives the same inputs.
	Seed int64
	// Seconds is the measuring window of the timed repetitions.
	Seconds float64
	// Scale multiplies every part's injections per repetition (tests use
	// 0.02); bench/expected.json holds scale 1 only.
	Scale float64
	// Trace selects the traced run, which reports the per-layer metrics
	// instead of the end-to-end ones.
	Trace bool
	// Dir is the bench directory: expected.json is read from it and results
	// go to Dir/out.
	Dir string
	// UpdateExpected records the run's digest in expected.json instead of
	// checking against it.
	UpdateExpected bool
}

// ReportSchema versions the report files under bench/out and bench/baseline.
const ReportSchema = "nvbitfi.bench/v1"

// Report is one run's full result: the metrics, the per-repetition values
// behind the medians, and what the correctness check compared.
type Report struct {
	Schema    string               `json:"schema"`
	Workload  string               `json:"workload"`
	Trace     bool                 `json:"trace"`
	Env       Env                  `json:"env"`
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]Metric    `json:"metrics"`
	PerRep    map[string][]float64 `json:"per_rep,omitempty"`
	// Samples is the number of per-experiment durations behind the
	// ms_per_inj percentiles.
	Samples int          `json:"samples,omitempty"`
	Digest  string       `json:"digest"`
	Parts   []PartResult `json:"parts"`
	Errors  []string     `json:"errors,omitempty"`
	// Fig4 is the traced run's per-program overhead table.
	Fig4 []Fig4Row `json:"fig4,omitempty"`
}

// fail records a correctness failure: the report stays printable, the run
// exits non-zero, and every attempted operation counts as failed.
func (r *Report) fail(format string, args ...any) {
	r.Correct = false
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// the runner every workload uses: all defaults, and Workers stays 0 because
// block-parallel launches are not deterministic on more than one core.
var runner = campaign.Runner{}

// minReps is the timed repetitions a run makes however short its window.
const minReps = 3

// prepared is one campaign of a workload, resolved for one run.
type prepared struct {
	label   string
	cfg     campaign.TransientCampaignConfig
	w       campaign.Workload
	golden  *campaign.GoldenResult
	profile *core.Profile
}

func prepare(wl Workload, o Options) ([]*prepared, error) {
	parts := make([]*prepared, len(wl.Parts))
	for i, p := range wl.Parts {
		w, err := specaccel.ByName(p.Program)
		if err != nil {
			return nil, err
		}
		parts[i] = &prepared{label: p.label(), cfg: p.config(o.Seed, o.Scale, i), w: w}
	}
	return parts, nil
}

// baselines are the run's reference timings. On the baseline machine
// identical work runs up to twice as slow for seconds to minutes at a time
// (one-second means of a 22 ms 303.ostencil golden run ranged from 21.9 to
// 48.3 ms over five minutes), but even then some 20 ms slots run at full
// speed: the fastest of 30 consecutive runs varied by 2%. So every timing is
// sampled in short pieces spread over the whole window and reported as its
// fastest sample. The interference only ever adds time.
//
// samples holds every piece's samples in ms under its name; the report keeps
// them so the spread behind each fastest sample stays visible.
type baselines struct {
	samples map[string][]float64
}

func newBaselines() *baselines { return &baselines{samples: map[string][]float64{}} }

// timed runs fn and records its duration under name.
func (b *baselines) timed(name string, fn func() error) error {
	t0 := time.Now()
	err := fn()
	b.samples[name] = append(b.samples[name], ms(time.Since(t0)))
	return err
}

// setup is what a campaign pays before its first experiment, timed in its
// three pieces: the golden run, the exact profile, and the shard plan (which
// records the golden trajectory when the config checkpoints).
func (b *baselines) setup(p *prepared) error {
	var golden *campaign.GoldenResult
	var profile *core.Profile
	err := b.timed("setup."+p.label+".golden", func() (err error) {
		golden, err = runner.Golden(p.w)
		return err
	})
	if err != nil {
		return err
	}
	err = b.timed("setup."+p.label+".profile", func() (err error) {
		profile, _, err = runner.Profile(p.w, core.Exact)
		return err
	})
	if err != nil {
		return err
	}
	p.golden, p.profile = golden, profile
	return b.timed("setup."+p.label+".plan", func() error {
		_, err := campaign.NewShardPlan(runner, p.w, golden, profile, p.cfg)
		return err
	})
}

// sample takes one cold set-up (module cache dropped; every part's campaign,
// plus extra when set) and then, per program, three warm golden runs each
// followed by an exact profiling run. It leaves every part with a golden
// result and a profile.
func (b *baselines) sample(parts []*prepared, extra func() error) error {
	modcache.Shared.Reset()
	for _, p := range parts {
		if err := b.setup(p); err != nil {
			return err
		}
	}
	if extra != nil {
		if err := b.timed("setup.extra", extra); err != nil {
			return err
		}
	}
	done := map[string]bool{}
	for _, p := range parts {
		name := p.w.Name()
		if done[name] {
			continue
		}
		done[name] = true
		for i := 0; i < 3; i++ {
			g, err := runner.Golden(p.w)
			if err != nil {
				return err
			}
			_, d, err := runner.Profile(p.w, core.Exact)
			if err != nil {
				return err
			}
			b.samples["native_ms."+name] = append(b.samples["native_ms."+name], ms(g.Duration))
			b.samples["profile_ms."+name] = append(b.samples["profile_ms."+name], ms(d))
			b.samples["profile_x."+name] = append(b.samples["profile_x."+name], float64(d)/float64(g.Duration))
		}
	}
	return nil
}

// setupS is the cold set-up time in seconds: the sum of its pieces' fastest
// samples.
func (b *baselines) setupS() float64 {
	var total float64
	for name, v := range b.samples {
		if strings.HasPrefix(name, "setup.") {
			total += slices.Min(v)
		}
	}
	return total / 1000
}

// native is a program's fastest warm golden run, the denominator of the
// injection overhead; profile its fastest exact profiling run.
func (b *baselines) native(p *prepared) float64 {
	return slices.Min(b.samples["native_ms."+p.w.Name()])
}
func (b *baselines) profile(p *prepared) float64 {
	return slices.Min(b.samples["profile_ms."+p.w.Name()])
}

// profileX is the profiling overhead: the median over adjacent pairs of an
// exact profiling run over the golden run just before it. Pairing cancels the
// interference the two runs share.
func (b *baselines) profileX(p *prepared) float64 { return median(b.samples["profile_x."+p.w.Name()]) }

// repetition is one pass over the workload's campaigns.
type repetition struct {
	wall  []time.Duration // each campaign call
	parts []PartResult
	// durs holds each campaign's per-experiment durations in ms.
	durs [][]float64
	// results are the campaigns themselves, for the traced run to compare
	// its rebuilt experiments against.
	results []*campaign.CampaignResult
	// attempted and failed count experiments.
	attempted, failed int
	mem               memCounters // allocation during the campaign calls
}

// total is the repetition's campaign time.
func (r *repetition) total() time.Duration { return sum(r.wall) }

// runRep runs every campaign once, closed loop.
func runRep(ctx context.Context, parts []*prepared) repetition {
	rep := repetition{
		wall:    make([]time.Duration, len(parts)),
		parts:   make([]PartResult, len(parts)),
		durs:    make([][]float64, len(parts)),
		results: make([]*campaign.CampaignResult, len(parts)),
	}
	before := readMem()
	for i, p := range parts {
		rep.attempted += p.cfg.Injections
		t0 := time.Now()
		res, err := campaign.RunTransientCampaign(ctx, runner, p.w, p.golden, p.profile, p.cfg)
		rep.wall[i] = time.Since(t0)
		if res == nil {
			rep.failed += p.cfg.Injections
			rep.parts[i] = PartResult{Part: p.label}
			continue
		}
		if err != nil {
			rep.failed += p.cfg.Injections - len(res.Runs)
		}
		pr, err := partResult(p.label, res)
		if err != nil {
			rep.failed += p.cfg.Injections
		}
		rep.parts[i], rep.results[i] = pr, res
		rep.durs[i] = make([]float64, len(res.Runs))
		for j := range res.Runs {
			rep.durs[i][j] = ms(res.Runs[j].Duration)
		}
	}
	rep.mem = readMem().minus(before)
	return rep
}

// memCounters is the allocation state the per-injection costs are deltas of.
type memCounters struct{ mallocs, bytes uint64 }

func readMem() memCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memCounters{mallocs: m.Mallocs, bytes: m.TotalAlloc}
}

func (m memCounters) minus(o memCounters) memCounters {
	return memCounters{mallocs: m.mallocs - o.mallocs, bytes: m.bytes - o.bytes}
}

func (m *memCounters) add(o memCounters) {
	m.mallocs += o.mallocs
	m.bytes += o.bytes
}

// quiet folds timed repetitions into their interference-free view. Every
// experiment keeps the fastest of its runs across the repetitions (the same
// fault each time). A campaign call is too long to ever run undisturbed, so
// its wall time is rescaled by how much slower than their fastest its own
// experiments ran, and the fastest rescaled call is kept.
type quiet struct {
	wall   []time.Duration      // per campaign
	durs   map[string][]float64 // label -> per-experiment fastest ms
	labels []string             // in first-seen order
	n      map[string]int       // label -> experiments per repetition
}

func newQuiet(parts []*prepared, reps []repetition) *quiet {
	q := &quiet{wall: make([]time.Duration, len(parts)), durs: map[string][]float64{}, n: map[string]int{}}
	for k, p := range parts {
		best := slices.Clone(reps[0].durs[k])
		for _, r := range reps[1:] {
			for j := range best {
				best[j] = min(best[j], r.durs[k][j])
			}
		}
		for i, r := range reps {
			w := time.Duration(float64(r.wall[k]) * sum(best) / sum(r.durs[k]))
			if i == 0 || w < q.wall[k] {
				q.wall[k] = w
			}
		}
		if _, seen := q.n[p.label]; !seen {
			q.labels = append(q.labels, p.label)
		}
		q.durs[p.label] = append(q.durs[p.label], best...)
		q.n[p.label] += p.cfg.Injections
	}
	return q
}

// total is the quiet time of one repetition.
func (q *quiet) total() time.Duration { return sum(q.wall) }

// weighted averages a per-label value by the label's experiments, so a
// workload of several programs reports one number without pooling
// distributions that have different centres.
func (q *quiet) weighted(f func(label string) float64) float64 {
	var sum, n float64
	for _, l := range q.labels {
		sum += float64(q.n[l]) * f(l)
		n += float64(q.n[l])
	}
	return sum / n
}

// Run performs one benchmark run and returns its report. A report with
// Correct false is still returned without error; an error means the run
// could not produce a report at all.
func Run(o Options) (*Report, error) {
	wl, err := WorkloadByName(o.Workload)
	if err != nil {
		return nil, err
	}
	if o.Scale <= 0 || o.Seconds <= 0 {
		return nil, fmt.Errorf("benchkit: scale and seconds must be positive")
	}
	rep := &Report{Schema: ReportSchema, Workload: wl.Name, Trace: o.Trace, Env: newEnv(o), Correct: true}
	switch {
	case o.Trace:
		err = runTraced(wl, o, rep)
	case wl.Service:
		err = runService(wl, o, rep)
	default:
		err = runInProcess(wl, o, rep)
	}
	if err != nil {
		return nil, err
	}
	if rep.Correct {
		if err := checkExpected(rep, o); err != nil {
			rep.fail("%v", err)
		}
	}
	if !rep.Correct {
		rep.Failed = rep.Attempted
	}
	return rep, nil
}

// labelOf finds a part by label (the baselines are per program).
func labelOf(parts []*prepared, label string) *prepared {
	for _, p := range parts {
		if p.label == label {
			return p
		}
	}
	return nil
}

// runInProcess is the untraced end-to-end run of an in-process workload: a
// warm-up repetition, then timed repetitions until the window closes, each
// preceded by a sample of the baselines.
func runInProcess(wl Workload, o Options, rep *Report) error {
	ctx := context.Background()
	parts, err := prepare(wl, o)
	if err != nil {
		return err
	}
	if err := newBaselines().sample(parts, nil); err != nil {
		return err
	}
	warm := runRep(ctx, parts)
	rep.Parts, rep.Digest = warm.parts, digest(warm.parts)
	rep.Attempted, rep.Failed = warm.attempted, warm.failed

	base := newBaselines()
	var reps []repetition
	var mem memCounters
	runtime.GC()
	// The window closes when less than half a repetition is left of it.
	deadline := time.Now().Add(time.Duration(o.Seconds*float64(time.Second)) - warm.total()/2)
	for len(reps) < minReps || time.Now().Before(deadline) {
		if err := base.sample(parts, nil); err != nil {
			return err
		}
		r := runRep(ctx, parts)
		if d := digest(r.parts); d != rep.Digest {
			got, _ := json.Marshal(r.parts)
			want, _ := json.Marshal(rep.Parts)
			rep.fail("workload %s: repetition %d is not identical to the warm-up\n  warm-up %s\n  got     %s",
				wl.Name, len(reps)+1, want, got)
		}
		rep.Attempted += r.attempted
		rep.Failed += r.failed
		mem.add(r.mem)
		reps = append(reps, r)
	}

	q := newQuiet(parts, reps)
	n := float64(warm.attempted)
	experiments := n * float64(len(reps))
	var winstr float64
	for _, pr := range rep.Parts {
		winstr += float64(pr.WarpInstrs)
	}
	repMs := make([]float64, len(reps))
	for i := range reps {
		repMs[i] = ms(reps[i].total())
		rep.Samples += reps[i].attempted
	}

	m := newMetricSet(EndToEnd)
	m.set("inj_per_s", n/q.total().Seconds())
	m.set("ms_per_inj_p50", q.weighted(func(l string) float64 { return median(q.durs[l]) }))
	m.set("ms_per_inj_p95", q.weighted(func(l string) float64 { return percentile(q.durs[l], 0.95) }))
	m.set("overhead_inject_x", q.weighted(func(l string) float64 { return median(q.durs[l]) / base.native(labelOf(parts, l)) }))
	m.set("overhead_profile_x", q.weighted(func(l string) float64 { return base.profileX(labelOf(parts, l)) }))
	m.set("sim_mwinstr_per_s", winstr/1e6/q.total().Seconds())
	m.set("allocs_per_inj", float64(mem.mallocs)/experiments)
	m.set("kib_per_inj", float64(mem.bytes)/1024/experiments)
	m.set("peak_rss_mib", peakRSSMiB())
	m.set("submit_to_settled_ms_p50", ms(q.total()))
	m.set("setup_s", base.setupS())
	rep.PerRep = base.samples
	rep.PerRep["rep_ms"], rep.PerRep["warmup_rep_ms"] = repMs, []float64{ms(warm.total())}
	rep.Metrics, err = m.finish()
	return err
}

// Print writes one "workload metric value unit" line per metric, in
// declaration order, then the result object the driver reads as the last
// line of standard output.
func (r *Report) Print(w io.Writer) error {
	decls := EndToEnd
	if r.Trace {
		decls = PerLayer
	}
	for _, d := range decls {
		if m, ok := r.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "%s %s %.6g %s\n", r.Workload, d.Name, m.Value, m.Unit)
		}
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "%s ERROR %s\n", r.Workload, e)
	}
	last, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", last)
	return err
}

// outDir is where results go; bench/.gitignore keeps it out of the tree.
func outDir(o Options) (string, error) {
	dir := filepath.Join(o.Dir, "out")
	return dir, os.MkdirAll(dir, 0o755)
}

// ReportPath is where a run's report is saved: bench/out/<workload>-seed<n>.json,
// with a -layers suffix for the traced run.
func ReportPath(o Options) string {
	name := fmt.Sprintf("%s-seed%d.json", o.Workload, o.Seed)
	if o.Trace {
		name = fmt.Sprintf("%s-seed%d-layers.json", o.Workload, o.Seed)
	}
	return filepath.Join(o.Dir, "out", name)
}

// Save writes the report to ReportPath.
func (r *Report) Save(o Options) error {
	if _, err := outDir(o); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(ReportPath(o), append(b, '\n'), 0o644)
}
