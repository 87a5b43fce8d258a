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

	// sites is the per-site tally of the launch in flight (nil when its record
	// is not being measured): the kernel's tally, which the engine counts into
	// in line. Launches are serial and a tally is cleared before its launch and
	// read right after, so the kernels' tallies are prefixes of one buffer,
	// tallies, replaced by a longer one when a longer kernel shows up (kernels
	// built before keep the old one). static holds what a kernel's records
	// share, and folded is OnLaunchDone's per-opcode scratch (indexed by
	// opcode, all zero between launches).
	sites   []gpu.SiteTally
	tallies []gpu.SiteTally
	static  map[*sass.Kernel]kernelSites
	folded  []opTally

	// slab is the unused tail of the chunk the records' SiteCounts are carved
	// from: a program launches hundreds of short kernels, and a slice made
	// per launch was most of what a profiling run allocated.
	slab []uint64
}

// Allocation granules: a slab of site counts (8 KiB) holds some fifty launches
// of a typical (~20-instruction) kernel, and records grows by at least a chunk.
const (
	siteSlabLen = 1024
	recordChunk = 256
)

// opTally is a thread-level execution count plus whether anything executed at
// all: a guard-suppressed issue counts zero threads but still ran.
type opTally struct {
	count uint64
	ran   bool
}

// kernelSites is the per-static-kernel part of a record: the opcode of every
// instruction — one read-only slice shared by all the kernel's records — how
// many distinct opcodes there are (the size of a record's OpCounts), and the
// per-site tally every instrumented launch of the kernel counts into.
type kernelSites struct {
	ops      []sass.Op
	distinct int
	tally    []gpu.SiteTally
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
		SiteCounts:  p.siteCounts(len(ks.ops)),
	}
	if len(p.records) == cap(p.records) {
		p.records = slices.Grow(p.records, max(recordChunk, len(p.records)))
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
	p.sites = ks.tally
	clear(p.sites)
	return nvbit.Decision{Instrument: true, Key: "profile"}
}

// siteCounts carves a zeroed n-entry slice off the slab, starting a new slab
// when the current one runs out. Slabs are never reused, so a carved slice is
// the record's alone.
func (p *Profiler) siteCounts(n int) []uint64 {
	if n > len(p.slab) {
		p.slab = make([]uint64, max(siteSlabLen, n))
	}
	c := p.slab[:n:n]
	p.slab = p.slab[n:]
	return c
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
			*p.fold(op) = opTally{}
		}
		n := len(k.Instrs)
		if len(p.tallies) < n {
			p.tallies = make([]gpu.SiteTally, n)
		}
		ks.tally = p.tallies[:n:n]
		p.static[k] = ks
	}
	return ks
}

// fold returns op's entry in the per-opcode scratch, growing it to reach.
func (p *Profiler) fold(op sass.Op) *opTally {
	if int(op) >= len(p.folded) {
		p.folded = append(p.folded, make([]opTally, int(op)+1-len(p.folded))...)
	}
	return &p.folded[op]
}

// Instrument implements nvbit.Tool: count every instruction's active lanes,
// after it completes, into the kernel's tally. No callback is inserted: the
// engine counts in line (nvbit.Inserter.TallyLanes), and one tally serves,
// through the JIT cache, every launch of the kernel — OnLaunch clears it,
// OnLaunchDone copies it into the record and folds it into the per-opcode map.
func (p *Profiler) Instrument(k *sass.Kernel, _ string, ins *nvbit.Inserter) {
	ins.TallyLanes(p.sitesOf(k).tally)
}

// OnLaunchDone implements nvbit.Tool: fold the launch's per-site counts into
// its per-opcode counts — through the dense scratch, so the map is stored to
// once per opcode rather than once per site. An opcode gets an entry once any
// of its sites executed, even with no lane active — a guard-suppressed issue
// counts zero threads but still shows the opcode ran.
func (p *Profiler) OnLaunchDone(*nvbit.LaunchInfo, gpu.LaunchStats, *gpu.Trap, bool) {
	if r := p.current; r != nil {
		for idx, t := range p.sites {
			if t.Issues == 0 {
				continue
			}
			r.SiteCounts[idx] = t.Threads
			f := p.fold(r.SiteOps[idx])
			f.count += t.Threads
			f.ran = true
		}
		for idx, t := range p.sites {
			if t.Issues == 0 {
				continue
			}
			if f := &p.folded[r.SiteOps[idx]]; f.ran {
				r.OpCounts[r.SiteOps[idx]] = f.count
				*f = opTally{}
			}
		}
	}
	p.current, p.sites = nil, nil
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
