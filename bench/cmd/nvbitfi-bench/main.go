// Command nvbitfi-bench runs the campaign benchmark: one workload per
// process, end-to-end metrics with tracing off, per-layer metrics from a
// traced run, and a comparison of two sets of runs. bench/README.md has the
// metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"

	"repro/bench/benchkit"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (one process per workload run)")
		seed     = flag.Int64("seed", benchkit.DefaultSeed, "seed the run's inputs are generated from")
		seconds  = flag.Float64("seconds", benchkit.RunSeconds, "measuring window of the timed repetitions")
		trace    = flag.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
		scale    = flag.Float64("scale", 1, "multiplier on injections per repetition (expected.json holds scale 1)")
		dir      = flag.String("dir", "bench", "the bench directory (expected.json, out/)")
		all      = flag.Bool("all", false, "run every workload, each in a fresh child process")
		runs     = flag.Int("runs", 1, "with -all: runs per workload, seeds seed..seed+runs-1")
		out      = flag.String("o", "", "with -all: write the runs as a set file for -compare")
		update   = flag.Bool("update-expected", false, "record digests in expected.json instead of checking them")
		manifest = flag.String("write-manifest", "", "write BENCHMARK.json to this path and exit")
		compare  = flag.Bool("compare", false, "compare two set files: -compare A.json B.json")
	)
	flag.Parse()
	benchkit.LimitProcs()

	var err error
	switch {
	case *manifest != "":
		err = benchkit.WriteManifest(*manifest)
	case *compare:
		err = runCompare(flag.Args())
	case *all:
		err = runAll(*seed, *runs, *seconds, *scale, *trace, *dir, *out, *update)
	case *workload != "":
		err = runOne(benchkit.Options{
			Workload: *workload, Seed: *seed, Seconds: *seconds, Scale: *scale,
			Trace: *trace != 0, Dir: *dir, UpdateExpected: *update,
		})
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "nvbitfi-bench:", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process, prints its metrics and result
// line, and saves the report under bench/out.
func runOne(o benchkit.Options) error {
	rep, err := benchkit.Run(o)
	if err != nil {
		return err
	}
	if err := rep.Save(o); err != nil {
		return err
	}
	if err := rep.Print(os.Stdout); err != nil {
		return err
	}
	if !rep.Correct || rep.Failed > 0 {
		return fmt.Errorf("workload %s: %d of %d operations failed", rep.Workload, rep.Failed, rep.Attempted)
	}
	return nil
}

// runAll runs every workload, each run in a fresh child process so peak
// memory and cold caches are per workload, and optionally gathers the
// children's reports into a set file.
func runAll(seed int64, runs int, seconds, scale float64, trace int, dir, out string, update bool) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := benchkit.Set{Schema: benchkit.SetSchema}
	var failed error
	for _, w := range benchkit.Workloads {
		for i := 0; i < runs; i++ {
			o := benchkit.Options{Workload: w.Name, Seed: seed + int64(i), Dir: dir, Trace: trace != 0}
			args := []string{
				"-workload", w.Name, "-seed", strconv.FormatInt(o.Seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
				"-scale", strconv.FormatFloat(scale, 'g', -1, 64),
				"-trace", strconv.Itoa(trace), "-dir", dir,
			}
			if update {
				args = append(args, "-update-expected")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				failed = fmt.Errorf("workload %s seed %d: %w", w.Name, o.Seed, err)
			}
			if out == "" {
				continue
			}
			b, err := os.ReadFile(benchkit.ReportPath(o))
			if err != nil {
				return err
			}
			var rep benchkit.Report
			if err := json.Unmarshal(b, &rep); err != nil {
				return err
			}
			set.Reports = append(set.Reports, &rep)
		}
	}
	if out != "" {
		if err := set.Save(out); err != nil {
			return err
		}
	}
	return failed
}

// runCompare prints one row per (workload, end-to-end metric) and fails on a
// regression or a higher failed share.
func runCompare(paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("-compare takes two set files")
	}
	a, err := benchkit.LoadSet(paths[0])
	if err != nil {
		return err
	}
	b, err := benchkit.LoadSet(paths[1])
	if err != nil {
		return err
	}
	rows, failedWorse := benchkit.Compare(a, b)
	if err := benchkit.PrintRows(os.Stdout, rows); err != nil {
		return err
	}
	regressed := 0
	for _, r := range rows {
		if r.Verdict == benchkit.VerdictRegressed {
			regressed++
		}
	}
	if regressed > 0 || failedWorse {
		return fmt.Errorf("%d metrics regressed, failed share higher: %v", regressed, failedWorse)
	}
	return nil
}
