package campaign

import (
	"repro/internal/core"
	"repro/internal/sass"
	"repro/internal/sassan"
	"repro/internal/stats"
)

// classer resolves site-resolved parameter tuples to fault-equivalence
// classes (sassan.BuildClassTable): groups of injection sites whose
// fault-propagation shadows canonicalize identically, so one representative
// experiment answers for every member. Only *masked* classes — shadows that
// provably reach no store, address, or control sink — are answered: their
// outcome is invariant over bit, lane, and occurrence, the same argument
// that justifies static pruning, extended to transitively-dead dataflow.
// Data-bearing classes stay in the table for analysis (sasslint -classes)
// but run individually, because whether a stored corruption is observed
// depends on dynamic state the shadow cannot see: which thread stores
// where, and whether that cell survives into the checked output. Like the
// pruner, the classer only trusts kernels the golden run decoded
// unambiguously and that pass static verification; everything else runs
// individually. Classing never changes a tally relative to running every
// member — classes_test.go proves this differentially by injecting every
// member of sampled classes.
type classer struct {
	kernels map[string]*sass.Kernel
	cache   map[string]*sassan.ClassTable // nil entry: kernel not statically trustworthy
}

func newClasser(kernels map[string]*sass.Kernel) *classer {
	return &classer{kernels: kernels, cache: make(map[string]*sassan.ClassTable)}
}

// table returns the cached class table for a kernel, or nil when the kernel
// is unknown or fails static verification.
func (cl *classer) table(name string) *sassan.ClassTable {
	if t, ok := cl.cache[name]; ok {
		return t
	}
	var t *sassan.ClassTable
	if k := cl.kernels[name]; k != nil {
		if a := sassan.Analyze(k); !sassan.HasErrors(a.Verify()) {
			t = a.BuildClassTable()
		}
	}
	cl.cache[name] = t
	return t
}

// classOf returns the equivalence class of a parameter tuple's injection
// site, or nil when the site must run individually (unresolved site,
// untrusted kernel, op outside the sampled group, unclassable shadow, or a
// data-bearing class whose outcome is not provably bit/lane-invariant).
func (cl *classer) classOf(p core.TransientParams) *sassan.Class {
	if !p.SiteResolved {
		return nil
	}
	t := cl.table(p.KernelName)
	if t == nil {
		return nil
	}
	i := p.StaticInstrIdx
	if i < 0 || i >= len(cl.kernels[p.KernelName].Instrs) {
		return nil
	}
	if !sass.GroupContains(p.Group, cl.kernels[p.KernelName].Instrs[i].Op) {
		return nil
	}
	c := t.ClassOf(i)
	if c == nil || !c.Masked {
		return nil
	}
	return c
}

// classAnsweredResult synthesizes the RunResult of a class member answered
// by its representative: the representative's classification and activation
// state, with the injection record naming the member's own site.
func classAnsweredResult(rep *RunResult, golden *GoldenResult, p core.TransientParams) RunResult {
	rec := core.InjectionRecord{
		Kernel:    p.KernelName,
		InstrIdx:  int32(p.StaticInstrIdx),
		Activated: rep.Injection.Activated,
	}
	if k := golden.Kernels[p.KernelName]; k != nil {
		rec.Opcode = k.Instrs[p.StaticInstrIdx].Op
	}
	return RunResult{
		Class:         rep.Class,
		Injection:     rec,
		Activations:   rep.Activations,
		ClassID:       rep.ClassID,
		ClassAnswered: true,
	}
}

// ClassWeighted aggregates a classed campaign's outcomes with one
// observation per *executed* experiment, weighted by how many injections
// that experiment answers for: 1 for an individually-run site, 1+members
// for a class representative. The Kish effective sample size of the result
// (stats.EffectiveSampleSize) is what honest confidence intervals over a
// class-sampled campaign must use — a representative is one independent
// observation, not one per member. Returns nil when no run carries class
// information (classing off), so callers can gate reporting on it.
func ClassWeighted(runs []RunResult) *stats.WeightedTally {
	classed := false
	// Grouping is chunk-local, so one class can have several representatives
	// across a campaign; its answered members split evenly between them.
	answered := make(map[string]int) // kernel-qualified class ID -> answered members
	reps := make(map[string]int)     // kernel-qualified class ID -> representatives
	key := func(r *RunResult) string { return r.Injection.Kernel + "\x00" + r.ClassID }
	for i := range runs {
		switch {
		case runs[i].ClassAnswered:
			classed = true
			answered[key(&runs[i])]++
		case runs[i].ClassID != "":
			classed = true
			reps[key(&runs[i])]++
		}
	}
	if !classed {
		return nil
	}
	w := &stats.WeightedTally{}
	for i := range runs {
		if runs[i].ClassAnswered {
			continue
		}
		weight := 1.0
		if runs[i].ClassID != "" {
			k := key(&runs[i])
			weight += float64(answered[k]) / float64(reps[k])
		}
		w.Add(runs[i].Class.Outcome.String(), weight)
	}
	return w
}
