package core

import (
	"fmt"
	"slices"

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
	records      []KernelRecord

	// sites is the per-site tally of the launch in flight (empty when its
	// record is not being measured): what the callback writes, one entry and
	// one bounds check per dynamic instruction. static holds what a kernel's
	// records share, and folded is OnLaunchDone's per-opcode scratch (indexed
	// by opcode, all zero between launches).
	sites  []tally
	static map[*sass.Kernel]kernelSites
	folded []tally
}

// tally is a thread-level execution count plus whether anything executed at
// all: a guard-suppressed issue counts zero threads but still ran.
type tally struct {
	count uint64
	ran   bool
}

// kernelSites is the per-static-kernel part of a record: the opcode of every
// instruction — one read-only slice shared by all the kernel's records — and
// how many distinct opcodes there are, the size of a record's OpCounts.
type kernelSites struct {
	ops      []sass.Op
	distinct int
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
		static:       make(map[*sass.Kernel]kernelSites),
	}, nil
}

// Name implements nvbit.Tool.
func (p *Profiler) Name() string { return "profiler" }

// OnLaunch implements nvbit.Tool: decide whether this dynamic kernel is
// counted directly or extrapolated.
func (p *Profiler) OnLaunch(info *nvbit.LaunchInfo) nvbit.Decision {
	ks := p.sitesOf(info.Kernel)
	rec := KernelRecord{
		Kernel:      info.Kernel.Name,
		LaunchIndex: info.LaunchIndex,
		OpCounts:    make(map[sass.Op]uint64, ks.distinct),
		SiteOps:     ks.ops,
		SiteCounts:  make([]uint64, len(ks.ops)),
	}
	if p.mode == Approximate && p.instrumented[info.Kernel.Name] {
		rec.Extrapolated = true
		p.records = append(p.records, rec)
		p.current = nil
		return nvbit.RunOriginal
	}
	if p.mode == Approximate {
		p.instrumented[info.Kernel.Name] = true
	}
	p.records = append(p.records, rec)
	p.current = &p.records[len(p.records)-1]
	p.sites = slices.Grow(p.sites[:0], len(ks.ops))[:len(ks.ops)]
	clear(p.sites)
	return nvbit.Decision{Instrument: true, Key: "profile"}
}

func (p *Profiler) sitesOf(k *sass.Kernel) kernelSites {
	ks, ok := p.static[k]
	if !ok {
		ks.ops = make([]sass.Op, len(k.Instrs))
		for i := range k.Instrs {
			ks.ops[i] = k.Instrs[i].Op
			if f := p.fold(ks.ops[i]); !f.ran {
				f.ran = true
				ks.distinct++
			}
		}
		for _, op := range ks.ops {
			*p.fold(op) = tally{}
		}
		p.static[k] = ks
	}
	return ks
}

// fold returns op's entry in the per-opcode scratch, growing it to reach.
func (p *Profiler) fold(op sass.Op) *tally {
	if int(op) >= len(p.folded) {
		p.folded = append(p.folded, make([]tally, int(op)+1-len(p.folded))...)
	}
	return &p.folded[op]
}

// Instrument implements nvbit.Tool: count every instruction's active lanes.
// One callback serves every site and, through the JIT cache, every launch; it
// accumulates into the tally of the launch in flight. It runs once per dynamic
// warp instruction, so it touches one tally entry; OnLaunchDone copies the
// tallies into the record and folds them into its per-opcode map.
func (p *Profiler) Instrument(k *sass.Kernel, _ string, ins *nvbit.Inserter) {
	count := func(c *gpu.InstrCtx) {
		if c.InstrIdx < len(p.sites) {
			t := &p.sites[c.InstrIdx]
			t.count += uint64(c.LaneCount())
			t.ran = true
		}
	}
	for i := range k.Instrs {
		ins.InsertAfter(i, count)
	}
}

// OnLaunchDone implements nvbit.Tool: fold the launch's per-site counts into
// its per-opcode counts — through the dense scratch, so the map is stored to
// once per opcode rather than once per site. An opcode gets an entry once any
// of its sites executed, even with no lane active — a guard-suppressed issue
// counts zero threads but still shows the opcode ran.
func (p *Profiler) OnLaunchDone(*nvbit.LaunchInfo, gpu.LaunchStats, *gpu.Trap, bool) {
	if r := p.current; r != nil {
		for idx, t := range p.sites {
			if !t.ran {
				continue
			}
			r.SiteCounts[idx] = t.count
			f := p.fold(r.SiteOps[idx])
			f.count += t.count
			f.ran = true
		}
		for idx, t := range p.sites {
			if !t.ran {
				continue
			}
			if f := &p.folded[r.SiteOps[idx]]; f.ran {
				r.OpCounts[r.SiteOps[idx]] = f.count
				*f = tally{}
			}
		}
	}
	p.current, p.sites = nil, p.sites[:0]
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
