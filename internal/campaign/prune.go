package campaign

import (
	"repro/internal/core"
	"repro/internal/sass"
	"repro/internal/sassan"
)

// pruner decides, per site-resolved parameter tuple, whether the experiment
// can be classified without running. The argument is conservative and rests
// on three facts:
//
//  1. The injector corrupts destination state *after* the targeted
//     instruction writes it (InsertAfter), so the corrupted values are
//     exactly those sassan.CorruptTargets enumerates, observed at the
//     LiveOut point of the instruction.
//  2. Analysis.DeadDests proves every one of those registers/predicates is
//     read on *no* path from that point before being rewritten — including
//     the extra registers a multi-register corruption touches, which are a
//     subset of the same target list.
//  3. Therefore the corrupted bits can influence nothing: the run is
//     architecturally identical to the golden run from the injection point
//     on, and its classification is the golden run's own (Masked, with the
//     golden run's anomaly flags).
//
// Anything the analysis cannot vouch for — a kernel name missing from the
// golden module set, a kernel whose verification reports errors (its CFG
// cannot be trusted), an out-of-range index, an op outside the sampled
// group — is left to run normally. Pruning never changes a tally, only
// which experiments execute; prune_test.go proves this differentially.
type pruner struct {
	kernels map[string]*sass.Kernel
	cache   map[string]*sassan.Analysis // nil entry: kernel not statically trustworthy
}

func newPruner(kernels map[string]*sass.Kernel) *pruner {
	return &pruner{kernels: kernels, cache: make(map[string]*sassan.Analysis)}
}

// analysis returns the cached liveness analysis for a kernel, or nil when
// the kernel is unknown or fails static verification.
func (pr *pruner) analysis(name string) *sassan.Analysis {
	if a, ok := pr.cache[name]; ok {
		return a
	}
	var a *sassan.Analysis
	if k := pr.kernels[name]; k != nil {
		if cand := sassan.Analyze(k); !sassan.HasErrors(cand.Verify()) {
			a = cand
		}
	}
	pr.cache[name] = a
	return a
}

// prunable reports whether the experiment's outcome is statically known.
func (pr *pruner) prunable(p core.TransientParams) bool {
	if !p.SiteResolved {
		return false
	}
	a := pr.analysis(p.KernelName)
	if a == nil {
		return false
	}
	i := p.StaticInstrIdx
	if i < 0 || i >= len(a.Kernel.Instrs) {
		return false
	}
	if !sass.GroupContains(p.Group, a.Kernel.Instrs[i].Op) {
		return false
	}
	return a.DeadDests(i)
}

// prunedResult synthesizes the RunResult a pruned experiment would have
// produced: Masked, carrying the golden run's anomaly state, with the
// injection record naming the statically chosen site.
func prunedResult(golden *GoldenResult, p core.TransientParams) RunResult {
	rec := core.InjectionRecord{
		Kernel:   p.KernelName,
		InstrIdx: int32(p.StaticInstrIdx),
	}
	if k := golden.Kernels[p.KernelName]; k != nil {
		rec.Opcode = k.Instrs[p.StaticInstrIdx].Op
	}
	return RunResult{
		Pruned: true,
		Class: Classification{
			Outcome:         Masked,
			Symptom:         SymptomNone,
			PotentialDUE:    golden.BaselineClass.PotentialDUE,
			CUDAError:       golden.BaselineClass.CUDAError,
			DeviceLogEvents: golden.BaselineClass.DeviceLogEvents,
		},
		Injection: rec,
	}
}
