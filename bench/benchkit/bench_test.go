package benchkit

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// smallRun is a run small enough for the test suite: 2% of the injections
// and a window that closes after the minimum repetitions.
func smallRun(t *testing.T, workload string, trace bool) *Report {
	t.Helper()
	rep, err := Run(Options{Workload: workload, Seed: 3, Seconds: 0.05, Scale: 0.02, Trace: trace, Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Fatalf("%s: correct=%v failed=%d attempted=%d errors=%v", workload, rep.Correct, rep.Failed, rep.Attempted, rep.Errors)
	}
	return rep
}

// checkMetrics asserts a report carries exactly the declared metrics, each
// with the declared unit and a contract-conforming name.
func checkMetrics(t *testing.T, rep *Report, decls []Decl) {
	t.Helper()
	if len(rep.Metrics) != len(decls) {
		t.Errorf("%s: %d metrics, %d declared", rep.Workload, len(rep.Metrics), len(decls))
	}
	for _, d := range decls {
		m, ok := rep.Metrics[d.Name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", rep.Workload, d.Name)
			continue
		}
		if m.Unit != d.Unit || !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: metric %s has unit %q, declared %q", rep.Workload, d.Name, m.Unit, d.Unit)
		}
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q is outside the contract", d.Name)
		}
	}
}

// Every workload runs at 2% scale, emits every end-to-end metric, none of
// them zero, and passes its own correctness check. The six together take
// about 10 s on two cores; the time is logged, not asserted, because the race
// detector multiplies it by ten.
func TestWorkloadsSmallScale(t *testing.T) {
	start := time.Now()
	for _, w := range Workloads {
		rep := smallRun(t, w.Name, false)
		checkMetrics(t, rep, EndToEnd)
		for name, m := range rep.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v", w.Name, name, m.Value)
			}
		}
	}
	t.Logf("six small-scale runs took %v", time.Since(start).Round(time.Millisecond))
}

// The same seed gives the same inputs: two runs agree on the digest.
func TestSeedDeterminesInputs(t *testing.T) {
	a, b := smallRun(t, "tiny_fixedcost", false), smallRun(t, "tiny_fixedcost", false)
	if a.Digest != b.Digest {
		t.Errorf("same seed, digests %s and %s", a.Digest, b.Digest)
	}
}

// The traced run emits every per-layer metric, its rebuilt experiments match
// the real campaign (checked inside the run), and the span file holds
// well-formed trees with one experiment id each.
func TestTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("the traced run sweeps all 15 programs")
	}
	dir := t.TempDir()
	rep, err := Run(Options{Workload: "ckpt_replay", Seed: 3, Seconds: 0.05, Scale: 0.02, Trace: true, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Fatalf("traced run incorrect: %v", rep.Errors)
	}
	checkMetrics(t, rep, PerLayer)
	if len(rep.Fig4) != 15 {
		t.Errorf("fig4 table has %d programs, want 15", len(rep.Fig4))
	}
	b, err := os.ReadFile(filepath.Join(dir, "out", "trace-ckpt_replay.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Fatal(err)
	}
	if err := checkSpans(tf.Spans); err != nil {
		t.Error(err)
	}
	roots := map[int]int{}
	for _, s := range tf.Spans {
		if s.Parent < 0 {
			roots[s.Exp]++
		}
	}
	for exp, n := range roots {
		if n != 1 {
			t.Errorf("experiment %d has %d root spans", exp, n)
		}
	}
	if got := int(rep.Metrics["trace.spans"].Value); got != len(tf.Spans) || got == 0 {
		t.Errorf("trace.spans = %d, file holds %d", got, len(tf.Spans))
	}
}

// The rebuilt experiment classifies identically to the runner's own paths:
// RunTransient, the checkpointed runner, and RunModel.
func TestRebuiltExperimentMatchesRunner(t *testing.T) {
	for _, wl := range []string{"tiny_fixedcost", "ckpt_replay", "models_armed"} {
		w, err := WorkloadByName(wl)
		if err != nil {
			t.Fatal(err)
		}
		parts, err := prepare(w, Options{Seed: 7, Scale: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		if err := newBaselines().sample(parts, nil); err != nil {
			t.Fatal(err)
		}
		ref := runRep(context.Background(), parts)
		for k, p := range parts {
			tp, err := newTracedPart(p)
			if err != nil {
				t.Fatal(err)
			}
			exps, bufs, err := tp.tracedRep(context.Background(), time.Now(), 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkSpans(mergeSpans(bufs)); err != nil {
				t.Errorf("%s %s: %v", wl, p.label, err)
			}
			runs := ref.results[k].Runs
			if len(exps) != len(runs) {
				t.Fatalf("%s %s: %d rebuilt experiments, campaign ran %d", wl, p.label, len(exps), len(runs))
			}
			for i, e := range exps {
				if e.class != runs[i].Class || e.injection != runs[i].Injection || e.stats != runs[i].Stats {
					t.Errorf("%s %s experiment %d: rebuilt %v %+v, runner %v %+v",
						wl, p.label, i, e.class, e.injection, runs[i].Class, runs[i].Injection)
				}
			}
		}
	}
}

// BENCHMARK.json is what the declarations in this package generate, and
// stays inside the contract's limits.
func TestManifest(t *testing.T) {
	want := NewManifest()
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(b) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(b))
	}
	var got Manifest
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("BENCHMARK.json differs from the declarations; run nvbitfi-bench -write-manifest BENCHMARK.json")
	}
	if n := len(want.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(want.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(want.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if want.RunSeconds < 1 || want.RunSeconds > 60 {
		t.Errorf("run_seconds %d", want.RunSeconds)
	}
	seen := map[string]bool{}
	use := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
	}
	for _, w := range want.Workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range want.EndToEnd {
		use(d.Name)
		if d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == lower
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower better")
	}
	for _, d := range want.PerLayer {
		use(d.Name)
		if d.Bound != nil {
			t.Errorf("per-layer metric %s has a bound", d.Name)
		}
	}
}
