package gpu

import (
	"fmt"
	"math/bits"

	"repro/internal/sass"
)

// Corruption is a declarative permanent fault: the engine applies it in line,
// as it counts a Tally, instead of calling a tool closure per instruction.
// After an instruction of opcode set Ops completes on a block of SM SM with
// lane Lane among its executing lanes, that is one activation; Gate (nil:
// every one) decides whether the activation corrupts, and if it does each of
// the instruction's sass.FaultTargets is corrupted in lane Lane — a register
// gets Value(op, old), a predicate is complemented when PredFlip — and every
// change is one corruption. Activations and Corruptions are the counters the
// engine keeps; the tool reads them. The spec belongs to the tool: the engine
// only updates its counters and the faulty lane's state, on the goroutine
// running the launch.
type Corruption struct {
	SM, Lane int
	Ops      sass.OpSet

	Value    func(op sass.Op, old uint32) uint32
	PredFlip bool
	Gate     func(activation uint64) bool

	Activations uint64
	Corruptions uint64
}

// Shot is a declarative single-site fault: the countdown to one thread-level
// execution that NVBitFI's injected device function runs, as engine data. The
// warp loops count into Count, at each armed site (NewShotSites) in launch
// order, the guard-passing lanes that execute it — when Thread, only lane
// Lane of warp Warp of block Block — until the execution holding count Target
// (Land). Pre, when set, runs with its landing lane just before it issues and
// Hit just after it completes. Then the spec has Fired: the rest of the
// launch runs as if it were not there but for its sites' trampoline charges.
// The spec belongs to the tool, which primes Count (the counter base of a
// run restored mid-launch) before the launch; the engine only advances Count
// and sets Fired, on the goroutine running the launch.
type Shot struct {
	Target uint64
	Count  uint64

	Thread            bool
	Block, Warp, Lane int

	Pre, Hit func(c *InstrCtx, lane int)

	Fired bool
}

// CorruptionSites are the static facts of an in-line fault on one kernel:
// which instructions are charged a trampoline site, which of them are live,
// and, for a Corruption, what a live site corrupts. A Corruption charges an
// After site on the instructions of its functional categories and is live on
// those of its opcode set (NewCorruptionSites); a Shot charges and is live on
// its armed sites (NewShotSites). They depend only on the kernel's content and
// the fault's shape, so one value serves every build, experiment and
// goroutine that instruments the kernel the same way; it is read-only once
// built.
type CorruptionSites struct {
	// sites is the site prefix count: sites[pc] sites on [0, pc).
	sites []uint32
	// next[pc] is the first live site at or after pc, len(next)-1 when none.
	next []uint32
	// targets[at[pc]:at[pc+1]] are live site pc's sass.FaultTargets, expanded
	// once here rather than on every activation; empty for any other pc.
	at      []uint32
	targets []sass.FaultTarget
}

// NewCorruptionSites derives the facts of a Corruption over opcode set ops on
// k, charging an After site on each instruction whose functional category
// has its bit (1 << sass.Category) set in cats. A live site is a charged
// instruction of ops.
//
// A campaign meets a new opcode set with nearly every experiment, so a build
// often derives them: they take one allocation for the three indexes and one
// for the targets.
func NewCorruptionSites(k *sass.Kernel, cats uint32, ops *sass.OpSet) *CorruptionSites {
	n := len(k.Instrs)
	idx := make([]uint32, 3*(n+1))
	s := &CorruptionSites{sites: idx[:n+1], next: idx[n+1 : 2*(n+1)], at: idx[2*(n+1):]}
	var buf sass.FaultTargetBuf
	for pc := range k.Instrs {
		in := &k.Instrs[pc]
		s.sites[pc+1], s.at[pc+1] = s.sites[pc], s.at[pc]
		if cats>>in.Op.Info().Cat&1 != 0 {
			s.sites[pc+1]++
			if ops.Has(in.Op) {
				s.at[pc+1] += uint32(len(in.FaultTargets(buf[:0])))
			}
		}
	}
	s.link(func(pc int) bool { return s.site(int32(pc)) && ops.Has(k.Instrs[pc].Op) })
	s.targets = make([]sass.FaultTarget, 0, s.at[n])
	for pc := range k.Instrs {
		if s.next[pc] == uint32(pc) {
			s.targets = k.Instrs[pc].FaultTargets(s.targets)
		}
	}
	return s
}

// NewShotSites derives the facts of a Shot on k: its armed sites are the
// instructions of opcode set ops — only instruction pc, when pc >= 0 — each
// charged an After site and, when pre (the Shot has a Pre hook), a Before
// site; every armed site is live.
func NewShotSites(k *sass.Kernel, ops *sass.OpSet, pc int, pre bool) *CorruptionSites {
	n := len(k.Instrs)
	idx := make([]uint32, 2*(n+1))
	s := &CorruptionSites{sites: idx[:n+1], next: idx[n+1:]}
	per := uint32(1)
	if pre {
		per = 2
	}
	for i := range k.Instrs {
		s.sites[i+1] = s.sites[i]
		if (pc < 0 || i == pc) && ops.Has(k.Instrs[i].Op) {
			s.sites[i+1] += per
		}
	}
	s.link(func(pc int) bool { return s.site(int32(pc)) })
	return s
}

// link fills next from the live sites.
func (s *CorruptionSites) link(live func(pc int) bool) {
	n := len(s.next) - 1
	s.next[n] = uint32(n)
	for pc := n - 1; pc >= 0; pc-- {
		s.next[pc] = s.next[pc+1]
		if live(pc) {
			s.next[pc] = uint32(pc)
		}
	}
}

// site reports whether instruction pc is charged a site.
func (s *CorruptionSites) site(pc int32) bool { return s.sites[pc+1] != s.sites[pc] }

// check validates the facts against the kernel they are used with.
func (s *CorruptionSites) check(k *sass.Kernel) error {
	if s == nil || len(s.sites) != len(k.Instrs)+1 {
		return fmt.Errorf("gpu: kernel %q carries an in-line fault without its sites", k.Name)
	}
	return nil
}

// corrupt applies the block's live spec after the instruction at pc, a live
// site, completed for the lanes in execMask.
func (blk *blockCtx) corrupt(w *warp, pc int32, execMask uint32) {
	c := blk.spec
	lane := c.Lane
	if execMask>>uint(lane)&1 == 0 {
		return
	}
	act := c.Activations
	c.Activations++
	if c.Gate != nil && !c.Gate(act) {
		return
	}
	op, s := blk.ek.K.Instrs[pc].Op, blk.ek.CorruptSites
	for _, t := range s.targets[s.at[pc]:s.at[pc+1]] {
		if t.IsPred {
			if c.PredFlip {
				w.preds[t.Pred] ^= 1 << uint(lane)
				c.Corruptions++
			}
			continue
		}
		row := &w.regs[t.Reg]
		if v := c.Value(op, row[lane]); v != row[lane] {
			// The spec writes a register the warp's static destination scan
			// may not bound (a wide-load span that wraps): widen the dirty
			// window as InstrCtx.WriteReg does.
			if int32(t.Reg) >= w.dirtyRegs {
				w.dirtyRegs = int32(t.Reg) + 1
			}
			row[lane] = v
			c.Corruptions++
		}
	}
}

// aim runs the block's Shot's landing rule (Land) at live site pc, about to
// issue for execMask, and returns the landing lane, or -1 while the target
// lies further on (always, without a Shot). At the landing the Pre hook runs.
func (blk *blockCtx) aim(w *warp, pc int32, execMask uint32) int {
	s := blk.shot
	if s == nil {
		return -1
	}
	m := execMask
	if s.Thread {
		if blk.blockLin != s.Block || w.id != s.Warp {
			return -1
		}
		m &= 1 << uint(s.Lane)
	}
	lane := Land(&s.Count, s.Target, m)
	if lane >= 0 && s.Pre != nil {
		s.Pre(blk.shotCtx(w, pc, execMask), lane)
	}
	return lane
}

// Land is the landing rule of a single-site countdown, the one a Shot runs
// and the baseline tools' callbacks too: it counts the lanes of an execution's
// mask into *count and returns the landing lane — the (target-*count)th lane
// of mask, when the target lies inside this execution — or -1. While *count
// plus the execution's lanes stays at or below target, the execution only
// counts.
func Land(count *uint64, target uint64, mask uint32) int {
	n := uint64(popcount(mask))
	if *count+n <= target {
		*count += n
		return -1
	}
	k := target - *count
	*count += n
	if k >= n {
		return -1 // a count primed past the target never lands
	}
	for ; k > 0; k-- {
		mask &= mask - 1
	}
	return bits.TrailingZeros32(mask)
}

// hit applies the block's in-line fault after live site pc completed for
// execMask: the Corruption, or the Shot's Hit when aim landed it on lane,
// which spends the Shot for the rest of the launch.
func (blk *blockCtx) hit(w *warp, pc int32, execMask uint32, lane int) {
	if blk.spec != nil {
		blk.corrupt(w, pc, execMask)
		return
	}
	if lane < 0 {
		return
	}
	s := blk.shot
	s.Hit(blk.shotCtx(w, pc, execMask), lane)
	s.Fired = true
	blk.shot, blk.live = nil, nil
}

// shotCtx describes the instruction at pc, issued by w for execMask, in the
// block's InstrCtx for a Shot's hook.
func (blk *blockCtx) shotCtx(w *warp, pc int32, execMask uint32) *InstrCtx {
	blk.ictx = InstrCtx{
		Dev:        blk.dev,
		Kernel:     blk.ek.K,
		InstrIdx:   int(pc),
		Instr:      &blk.ek.K.Instrs[pc],
		SMID:       blk.smID,
		BlockIdx:   blk.blockIdx,
		BlockLin:   blk.blockLin,
		WarpID:     w.id,
		ActiveMask: execMask,
		w:          w,
		blk:        blk,
	}
	return &blk.ictx
}
