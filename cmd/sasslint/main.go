// Command sasslint runs the static SASS verifier (internal/sassan) over
// assembly files or over every workload the repository ships. It is the
// CI gate that keeps the embedded kernels free of dead writes, unreachable
// code, and malformed control flow, and it exposes the injection-site
// equivalence-class analysis that keys adaptive sampling strata.
//
// Usage:
//
//	sasslint file.sass [file2.sass ...]   lint assembly files (errors fail; -strict fails on warnings too)
//	sasslint -workloads                   lint every embedded workload (any diagnostic fails)
//	sasslint -classes [...]               additionally dump each kernel's fault-equivalence classes (the adaptive strata keys)
//	sasslint -json [...]                  machine-readable output: one JSON object per line
//
// Exit codes (stable contract; scripts may rely on them):
//
//	0  everything assembled and linted clean
//	1  at least one finding failed the run: an assemble error, a verifier
//	   error, a warning under -strict or -workloads, or an unreadable input
//	2  usage error (bad flags, no inputs)
//
// With -json, every finding is one JSON object on its own line with schema
// "nvbitfi.sasslint/v1" and fixed fields {schema, source, kernel, instr,
// severity, code, msg}; instr is -1 for findings not tied to an
// instruction (kernel-level diagnostics, assemble errors — code
// "assemble-error" — and run failures — code "run-error"). Class-table
// rows (-classes) use schema "nvbitfi.sasslint.class/v1" with fields
// {schema, source, kernel, id, kind, masked, candidates, unclassable, rep,
// sites, members, weight}; one object per class, plus one summary object
// per kernel with id "" carrying the candidate and unclassable counts.
// members is the class's static site count; weight (workload mode only) is
// the class's profile-weighted share of the workload's G_GPPR dynamic
// instructions — the stratum weight adaptive campaign sampling pools
// against.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	nvbitfi "repro"
	"repro/internal/sass"
	"repro/internal/sassan"
)

func main() {
	workloads := flag.Bool("workloads", false, "lint every embedded workload instead of files")
	strict := flag.Bool("strict", false, "treat warnings as failures in file mode")
	jsonOut := flag.Bool("json", false, "emit one JSON object per finding (schema nvbitfi.sasslint/v1)")
	classes := flag.Bool("classes", false, "dump each kernel's fault-equivalence classes: the keys of adaptive sampling strata")
	flag.Parse()

	emit := &emitter{json: *jsonOut}
	if *workloads {
		os.Exit(lintWorkloads(emit, *classes))
	}
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	os.Exit(lintFiles(flag.Args(), *strict, emit, *classes))
}

// FindingSchema versions the JSON finding encoding.
const FindingSchema = "nvbitfi.sasslint/v1"

// ClassSchema versions the JSON class-table encoding.
const ClassSchema = "nvbitfi.sasslint.class/v1"

// finding is the stable JSON form of one diagnostic.
type finding struct {
	Schema   string `json:"schema"`
	Source   string `json:"source"`
	Kernel   string `json:"kernel,omitempty"`
	Instr    int    `json:"instr"`
	Severity string `json:"severity"`
	Code     string `json:"code"`
	Msg      string `json:"msg"`
}

// classRow is the stable JSON form of one equivalence class (or, with an
// empty ID, one kernel's table summary).
type classRow struct {
	Schema      string `json:"schema"`
	Source      string `json:"source"`
	Kernel      string `json:"kernel"`
	ID          string `json:"id"`
	Kind        string `json:"kind,omitempty"`
	Masked      bool   `json:"masked,omitempty"`
	Candidates  int    `json:"candidates,omitempty"`
	Unclassable int    `json:"unclassable,omitempty"`
	Rep         int    `json:"rep,omitempty"`
	Sites       []int  `json:"sites,omitempty"`
	// Members is the class's static site count; Weight is its
	// profile-weighted share of the workload's G_GPPR dynamic instructions
	// (workload mode only — file mode has no profile to weight by).
	Members int     `json:"members,omitempty"`
	Weight  float64 `json:"weight,omitempty"`
}

// emitter renders findings as text lines or JSONL.
type emitter struct {
	json bool
	enc  *json.Encoder
}

func (e *emitter) encoder() *json.Encoder {
	if e.enc == nil {
		e.enc = json.NewEncoder(os.Stdout)
	}
	return e.enc
}

// diag reports one verifier diagnostic.
func (e *emitter) diag(source string, d sassan.Diagnostic) {
	if !e.json {
		fmt.Printf("%s: %s\n", source, d)
		return
	}
	_ = e.encoder().Encode(finding{
		Schema: FindingSchema, Source: source, Kernel: d.Kernel, Instr: d.Instr,
		Severity: d.Sev.String(), Code: d.Code.String(), Msg: d.Msg,
	})
}

// failure reports a non-diagnostic failure (unreadable file, assemble
// error, workload run error) under a synthetic code.
func (e *emitter) failure(source, code string, err error) {
	if !e.json {
		fmt.Fprintf(os.Stderr, "sasslint: %s: %v\n", source, err)
		return
	}
	_ = e.encoder().Encode(finding{
		Schema: FindingSchema, Source: source, Instr: -1,
		Severity: "error", Code: code, Msg: err.Error(),
	})
}

// siteWeights carries a workload profile reduced to per-static-site G_GPPR
// dynamic counts, the denominator being the workload-wide total. The ratio
// per class is the stratum weight adaptive campaign sampling converges
// against, so the lint output doubles as a campaign-planning table.
type siteWeights struct {
	byKernel map[string][]uint64
	total    uint64
}

// newSiteWeights folds a profile's per-site breakdown over dynamic launches.
func newSiteWeights(p *nvbitfi.Profile) *siteWeights {
	sw := &siteWeights{byKernel: make(map[string][]uint64)}
	for i := range p.Records {
		r := &p.Records[i]
		if !r.HasSites() {
			continue
		}
		counts := sw.byKernel[r.Kernel]
		if len(counts) < len(r.SiteCounts) {
			counts = append(counts, make([]uint64, len(r.SiteCounts)-len(counts))...)
		}
		for s, c := range r.SiteCounts {
			if !sass.GroupContains(sass.GroupGPPR, r.SiteOps[s]) {
				continue
			}
			counts[s] += c
			sw.total += c
		}
		sw.byKernel[r.Kernel] = counts
	}
	return sw
}

// classWeight returns the class's share of the workload's dynamic G_GPPR
// instructions, or 0 when no profile is available.
func (sw *siteWeights) classWeight(kernel string, sites []int) float64 {
	if sw == nil || sw.total == 0 {
		return 0
	}
	counts := sw.byKernel[kernel]
	var sum uint64
	for _, s := range sites {
		if s < len(counts) {
			sum += counts[s]
		}
	}
	return float64(sum) / float64(sw.total)
}

// classTable dumps one kernel's equivalence classes.
func (e *emitter) classTable(source string, t *sassan.ClassTable, sw *siteWeights) {
	if e.json {
		_ = e.encoder().Encode(classRow{
			Schema: ClassSchema, Source: source, Kernel: t.Kernel,
			Candidates: t.Candidates, Unclassable: len(t.Unclassable),
		})
		for _, c := range t.Classes {
			_ = e.encoder().Encode(classRow{
				Schema: ClassSchema, Source: source, Kernel: t.Kernel,
				ID: c.ID, Kind: c.Kind.String(), Masked: c.Masked,
				Rep: c.Rep(), Sites: c.Sites,
				Members: len(c.Sites), Weight: sw.classWeight(t.Kernel, c.Sites),
			})
		}
		return
	}
	sites := 0
	for _, c := range t.Classes {
		sites += len(c.Sites)
	}
	fmt.Printf("%s: kernel %s: %d candidate sites, %d classes covering %d, %d unclassable\n",
		source, t.Kernel, t.Candidates, len(t.Classes), sites, len(t.Unclassable))
	for _, c := range t.Classes {
		label := c.Kind.String()
		if c.Masked {
			label += "/masked"
		}
		line := fmt.Sprintf("  %s %-13s rep=#%d members=%d sites=%v", c.ID, label, c.Rep(), len(c.Sites), c.Sites)
		if w := sw.classWeight(t.Kernel, c.Sites); w > 0 {
			line += fmt.Sprintf(" weight=%.4f", w)
		}
		fmt.Println(line)
	}
}

// classKernel builds and dumps the class table of one verify-clean kernel.
func classKernel(e *emitter, source string, k *sass.Kernel, sw *siteWeights) {
	a := sassan.Analyze(k)
	if sassan.HasErrors(a.Verify()) {
		return // the classing contract only covers verify-clean kernels
	}
	e.classTable(source, a.BuildClassTable(), sw)
}

// lintFiles assembles and verifies each file; returns the process exit code.
func lintFiles(paths []string, strict bool, e *emitter, classes bool) int {
	fail := false
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			e.failure(path, "read-error", err)
			fail = true
			continue
		}
		prog, err := sass.Assemble(path, string(src))
		if err != nil {
			e.failure(path, "assemble-error", err)
			fail = true
			continue
		}
		diags := sassan.VerifyProgram(prog)
		for _, d := range diags {
			e.diag(path, d)
		}
		if sassan.HasErrors(diags) || (strict && len(diags) > 0) {
			fail = true
		}
		if classes {
			for _, k := range prog.Kernels {
				classKernel(e, path, k, nil)
			}
		}
	}
	if fail {
		return 1
	}
	return 0
}

// lintWorkloads runs every shipped workload under a verifying context and
// reports each diagnostic its modules produce. Shipped kernels must be
// completely clean: any diagnostic — warning or error — fails.
func lintWorkloads(e *emitter, classes bool) int {
	works := nvbitfi.SpecACCEL()
	works = append(works, nvbitfi.NewAVPipeline(nvbitfi.AVConfig{}))
	r := nvbitfi.Runner{}
	fail := false
	for _, w := range works {
		diags, err := r.LintWorkload(w)
		if err != nil {
			e.failure(w.Name(), "run-error", err)
			fail = true
		}
		for _, d := range diags {
			e.diag(w.Name(), d)
			fail = true
		}
		if classes {
			golden, err := r.Golden(w)
			if err != nil {
				e.failure(w.Name(), "run-error", err)
				fail = true
				continue
			}
			profile, _, err := r.Profile(w, nvbitfi.Exact)
			if err != nil {
				e.failure(w.Name(), "run-error", err)
				fail = true
				continue
			}
			sw := newSiteWeights(profile)
			names := make([]string, 0, len(golden.Kernels))
			for name := range golden.Kernels {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				classKernel(e, w.Name(), golden.Kernels[name], sw)
			}
		}
	}
	if fail {
		return 1
	}
	if !e.json {
		fmt.Println("all workloads lint clean")
	}
	return 0
}
