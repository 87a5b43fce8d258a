package core

import (
	"fmt"

	"repro/internal/gpu"
	"repro/internal/nvbit"
	"repro/internal/sass"
)

// Profiler is the profiler.so analog: an NVBit tool that instruments
// kernels to count dynamic, thread-level instruction executions per opcode
// per dynamic kernel. In Exact mode every dynamic kernel is instrumented;
// in Approximate mode only the first instance of each static kernel is,
// and later instances are extrapolated from it (Section III-A).
type Profiler struct {
	mode ProfileMode

	program      string
	instrumented map[string]bool // static kernels already profiled (approx mode)
	current      *KernelRecord   // record under accumulation (launches are serial)
	visited      []bool          // sites of current that executed at least once
	records      []KernelRecord
}

var _ nvbit.Tool = (*Profiler)(nil)

// NewProfiler creates a profiler in the given mode.
func NewProfiler(program string, mode ProfileMode) (*Profiler, error) {
	if mode != Exact && mode != Approximate {
		return nil, fmt.Errorf("core: invalid profile mode %d", mode)
	}
	return &Profiler{
		mode:         mode,
		program:      program,
		instrumented: make(map[string]bool),
	}, nil
}

// Name implements nvbit.Tool.
func (p *Profiler) Name() string { return "profiler" }

// OnLaunch implements nvbit.Tool: decide whether this dynamic kernel is
// counted directly or extrapolated.
func (p *Profiler) OnLaunch(info *nvbit.LaunchInfo) nvbit.Decision {
	rec := KernelRecord{
		Kernel:      info.Kernel.Name,
		LaunchIndex: info.LaunchIndex,
		OpCounts:    make(map[sass.Op]uint64),
		SiteOps:     make([]sass.Op, len(info.Kernel.Instrs)),
		SiteCounts:  make([]uint64, len(info.Kernel.Instrs)),
	}
	for i := range info.Kernel.Instrs {
		rec.SiteOps[i] = info.Kernel.Instrs[i].Op
	}
	if p.mode == Approximate && p.instrumented[info.Kernel.Name] {
		rec.Extrapolated = true
		p.records = append(p.records, rec)
		p.current = nil
		return nvbit.RunOriginal
	}
	p.instrumented[info.Kernel.Name] = true
	p.records = append(p.records, rec)
	p.current = &p.records[len(p.records)-1]
	p.visited = make([]bool, len(info.Kernel.Instrs))
	return nvbit.Decision{Instrument: true, Key: "profile"}
}

// Instrument implements nvbit.Tool: count every instruction's active lanes.
// The callback closure is built once and shared by all launches through the
// JIT cache; it accumulates into whichever record is current. It runs once
// per dynamic warp instruction, so it touches only the per-site slices;
// OnLaunchDone folds them into the per-opcode map.
func (p *Profiler) Instrument(k *sass.Kernel, _ string, ins *nvbit.Inserter) {
	for i := range k.Instrs {
		idx := i
		ins.InsertAfter(i, func(c *gpu.InstrCtx) {
			if p.current != nil && idx < len(p.current.SiteCounts) {
				p.current.SiteCounts[idx] += uint64(c.LaneCount())
				p.visited[idx] = true
			}
		})
	}
}

// OnLaunchDone implements nvbit.Tool: fold the launch's per-site counts into
// its per-opcode counts. An opcode gets an entry once any of its sites
// executed, even with no lane active — a guard-suppressed issue counts zero
// threads but still shows the opcode ran.
func (p *Profiler) OnLaunchDone(*nvbit.LaunchInfo, gpu.LaunchStats, *gpu.Trap, bool) {
	if r := p.current; r != nil {
		for idx, seen := range p.visited {
			if seen {
				r.OpCounts[r.SiteOps[idx]] += r.SiteCounts[idx]
			}
		}
	}
	p.current = nil
}

// Finish resolves the profile. In Approximate mode, extrapolated records
// receive copies of the counts measured on the first instance of their
// static kernel.
func (p *Profiler) Finish() *Profile {
	firstByKernel := make(map[string]*KernelRecord)
	for i := range p.records {
		r := &p.records[i]
		if !r.Extrapolated {
			if _, ok := firstByKernel[r.Kernel]; !ok {
				firstByKernel[r.Kernel] = r
			}
		}
	}
	out := &Profile{Program: p.program, Mode: p.mode, Records: make([]KernelRecord, len(p.records))}
	for i := range p.records {
		r := p.records[i]
		if r.Extrapolated {
			if first, ok := firstByKernel[r.Kernel]; ok {
				counts := make(map[sass.Op]uint64, len(first.OpCounts))
				for op, c := range first.OpCounts {
					counts[op] = c
				}
				r.OpCounts = counts
				r.SiteOps = append([]sass.Op(nil), first.SiteOps...)
				r.SiteCounts = append([]uint64(nil), first.SiteCounts...)
			}
		}
		out.Records[i] = r
	}
	return out
}
