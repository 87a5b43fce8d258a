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

	program string
	current *KernelRecord // record under accumulation (launches are serial)
	records []KernelRecord

	// live is the static part of the launch in flight, whose tally the engine
	// counts into in line (zero when its record is not being measured).
	// Launches are serial and a tally is cleared before its launch
	// and read right after, so the kernels' tallies are prefixes of one
	// buffer, tallies, replaced by a longer one when a longer kernel shows up
	// (kernels built before keep the old one). static holds what each
	// kernel's records share, indexed by nvbit.LaunchInfo.KernelID (others
	// only when one Profiler serves several attachments, see sitesOf), and
	// folded is OnLaunchDone's per-opcode scratch (indexed by opcode, all zero
	// between launches).
	live    kernelSites
	tallies []gpu.SiteTally
	static  []kernelSites
	others  map[*sass.Kernel]kernelSites
	folded  []opTally

	// siteSlab and opSlab are the unused tails of the chunks the records'
	// SiteCounts and OpCounts are carved from: a program launches hundreds of
	// short kernels, and slices made per launch were most of what a
	// profiling run allocated.
	siteSlab []uint64
	opSlab   []OpCount
}

// Allocation granules: a slab of site counts (8 KiB) holds some fifty launches
// of a typical (~20-instruction) kernel, a slab of opcode counts (8 KiB) some
// fifty of its ~10 distinct opcodes, and records grows by at least a chunk.
const (
	siteSlabLen = 1024
	opSlabLen   = 512
	recordChunk = 256
)

// opTally is a thread-level execution count plus whether anything executed at
// all: a guard-suppressed issue counts zero threads but still ran.
type opTally struct {
	count uint64
	ran   bool
}

// kernelSites is the per-static-kernel part of a record: the kernel it was
// derived from, the opcode of every instruction — one read-only slice shared
// by all the kernel's records — its distinct opcodes in ascending order (what
// a record's OpCounts can hold), and the per-site tally every instrumented
// launch of the kernel counts into.
type kernelSites struct {
	k     *sass.Kernel
	ops   []sass.Op
	opSet []sass.Op
	tally []gpu.SiteTally
}

var _ nvbit.Tool = (*Profiler)(nil)

// NewProfiler creates a profiler in the given mode.
func NewProfiler(program string, mode ProfileMode) (*Profiler, error) {
	if mode != Exact && mode != Approximate {
		return nil, fmt.Errorf("core: invalid profile mode %d", mode)
	}
	return &Profiler{mode: mode, program: program}, nil
}

// Name implements nvbit.Tool.
func (p *Profiler) Name() string { return "profiler" }

// OnLaunch implements nvbit.Tool: decide whether this dynamic kernel is
// counted directly or extrapolated. In Approximate mode the first launch of
// a kernel name is counted and every later one (LaunchIndex > 0) copies it.
func (p *Profiler) OnLaunch(info *nvbit.LaunchInfo) nvbit.Decision {
	ks := p.sitesOf(info.KernelID, info.Kernel)
	if len(p.records) == cap(p.records) {
		p.records = slices.Grow(p.records, max(recordChunk, len(p.records)))
	}
	p.records = append(p.records, KernelRecord{
		Kernel:      info.Kernel.Name,
		LaunchIndex: info.LaunchIndex,
		SiteOps:     ks.ops,
		SiteCounts:  p.siteCounts(len(ks.ops)),
	})
	rec := &p.records[len(p.records)-1]
	if p.mode == Approximate && info.LaunchIndex > 0 {
		rec.Extrapolated = true
		p.current = nil
		return nvbit.RunOriginal
	}
	rec.OpCounts = p.opCounts(len(ks.opSet))
	p.current, p.live = rec, ks
	clear(ks.tally)
	return nvbit.Decision{Instrument: true, Key: "profile"}
}

// siteCounts carves a zeroed n-entry slice off the slab, starting a new slab
// when the current one runs out. Slabs are never reused, so a carved slice is
// the record's alone.
func (p *Profiler) siteCounts(n int) []uint64 {
	if n > len(p.siteSlab) {
		p.siteSlab = make([]uint64, max(siteSlabLen, n))
	}
	c := p.siteSlab[:n:n]
	p.siteSlab = p.siteSlab[n:]
	return c
}

// opCounts carves an empty slice with room for n entries off its slab, like
// siteCounts.
func (p *Profiler) opCounts(n int) []OpCount {
	if n > len(p.opSlab) {
		p.opSlab = make([]OpCount, max(opSlabLen, n))
	}
	c := p.opSlab[:0:n]
	p.opSlab = p.opSlab[n:]
	return c
}

// sitesOf returns the static part of kernel id's records, deriving it on the
// kernel's first launch. KernelID numbers the kernels of one attachment, so a
// Profiler attached to several contexts can find a slot taken by another
// attachment's kernel: those kernels are kept by identity in others instead.
func (p *Profiler) sitesOf(id int, k *sass.Kernel) kernelSites {
	if id >= len(p.static) {
		p.static = append(p.static, make([]kernelSites, id+1-len(p.static))...)
	}
	slot := &p.static[id]
	switch {
	case slot.k == k:
		return *slot
	case slot.k == nil:
		*slot = p.derive(k)
		return *slot
	}
	ks, ok := p.others[k]
	if !ok {
		if p.others == nil {
			p.others = make(map[*sass.Kernel]kernelSites)
		}
		ks = p.derive(k)
		p.others[k] = ks
	}
	return ks
}

// derive builds the static part of k's records.
func (p *Profiler) derive(k *sass.Kernel) kernelSites {
	ks := kernelSites{k: k, ops: make([]sass.Op, len(k.Instrs))}
	distinct := 0
	for i := range k.Instrs {
		ks.ops[i] = k.Instrs[i].Op
		if f := p.fold(ks.ops[i]); !f.ran {
			f.ran = true
			distinct++
		}
	}
	ks.opSet = make([]sass.Op, 0, distinct)
	for _, op := range ks.ops {
		if f := &p.folded[op]; f.ran {
			ks.opSet = append(ks.opSet, op)
			f.ran = false
		}
	}
	slices.Sort(ks.opSet)
	n := len(k.Instrs)
	if len(p.tallies) < n {
		p.tallies = make([]gpu.SiteTally, n)
	}
	ks.tally = p.tallies[:n:n]
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
// OnLaunchDone copies it into the record and folds it into the per-opcode
// counts. Instrument runs inside the OnLaunch that chose to count, so the
// kernel in flight is k.
func (p *Profiler) Instrument(_ *sass.Kernel, _ string, ins *nvbit.Inserter) {
	ins.TallyLanes(p.live.tally)
}

// OnLaunchDone implements nvbit.Tool: fold the launch's per-site counts into
// its per-opcode counts through the dense scratch, then emit them in
// ascending opcode order. An opcode gets an entry once any of its sites
// executed, even with no lane active — a guard-suppressed issue counts zero
// threads but still shows the opcode ran.
func (p *Profiler) OnLaunchDone(*nvbit.LaunchInfo, gpu.LaunchStats, *gpu.Trap, bool) {
	if r := p.current; r != nil {
		for idx, t := range p.live.tally {
			if t.Issues == 0 {
				continue
			}
			r.SiteCounts[idx] = t.Threads
			f := &p.folded[r.SiteOps[idx]]
			f.count += t.Threads
			f.ran = true
		}
		for _, op := range p.live.opSet {
			if f := &p.folded[op]; f.ran {
				r.OpCounts = append(r.OpCounts, OpCount{Op: op, Count: f.count})
				*f = opTally{}
			}
		}
	}
	p.current, p.live = nil, kernelSites{}
}

// Finish resolves the profile. In Approximate mode, extrapolated records
// receive copies of the counts measured on the first instance of their
// static kernel.
func (p *Profiler) Finish() *Profile {
	out := &Profile{Program: p.program, Mode: p.mode, Records: slices.Clone(p.records)}
	if p.mode != Approximate {
		return out
	}
	firstByKernel := make(map[string]*KernelRecord)
	for i := range p.records {
		r := &p.records[i]
		if !r.Extrapolated {
			if _, ok := firstByKernel[r.Kernel]; !ok {
				firstByKernel[r.Kernel] = r
			}
		}
	}
	for i := range out.Records {
		r := &out.Records[i]
		if r.Extrapolated {
			if first, ok := firstByKernel[r.Kernel]; ok {
				r.OpCounts = slices.Clone(first.OpCounts)
				r.SiteOps = slices.Clone(first.SiteOps)
				r.SiteCounts = slices.Clone(first.SiteCounts)
			}
		}
	}
	return out
}
