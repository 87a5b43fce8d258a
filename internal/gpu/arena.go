package gpu

import (
	"slices"
	"sync"

	"repro/internal/sass"
)

// Execution-state recycling, at two ranges (DESIGN.md section 3.11, "What a
// launch builds once").
//
// Within a launch: its LaunchRun (Device.Run's too) claims one
// block slot (a blockCtx with its warps) and rebinds it for every block it
// runs. All blocks of a launch have one shape, so what depends only on the
// launch (warp count and live masks, thread-index rows, the scheduler mode,
// the broadcast constant-bank operands) is built by claimBlock once, and
// bind pays per block only for what the previous block dirtied: the written
// register prefix, the predicates, the shared window, and — behind
// warp.laneMem — the lane-local windows and call stacks.
//
// Across launches and experiments: a fault-injection campaign creates a fresh
// context per experiment for isolation, but the expensive allocations under
// it — block slots with their shared-memory windows and warp register files
// (32 KiB each), and global-memory pages — have no experiment-specific
// identity once reset. A slot goes back to blockPool with its warps attached
// when its schedule ends, completes or traps, so the next launch of the same
// shape finds its warps in place; warpPool holds only the surplus of a slot
// claimed for a smaller block.
//
// Recycled state is architecturally indistinguishable from fresh state: the
// digest treats a zeroed local window or an empty call stack exactly like a
// nil one and reads per-lane PCs only of diverged warps (see digestWith), and
// every other field bind leaves behind is one a fresh allocation would carry.
// Pool discipline: whoever claimed a slot releases it once, when its launch
// completes, traps, or its paused run is closed — traps carry no reference to
// the block and snapshots deep-copy it, so nothing observes a slot after its
// launch has let go of it.

var (
	warpPool  = sync.Pool{New: func() any { return new(warp) }}
	blockPool = sync.Pool{New: func() any { return new(blockCtx) }}
)

// reset returns the warp to the state a block starts in — every lane of
// liveMask at PC 0 with zero registers and predicates, empty call stacks and
// zero local memory — paying only for what its last use dirtied. regHi seeds
// dirtyRegs for the block about to run (writtenRegHi). The
// per-lane PCs are left alone: they are dead while the warp is converged, and
// diverging writes every active lane's before anything reads one. So are the
// thread-index rows, the live mask, the id and the scheduler mode, which
// claimBlock sets per launch.
func (w *warp) reset(regHi int32) {
	// Rows at or above dirtyRegs are zero by invariant (see the field doc),
	// so clearing the dirty prefix — one contiguous run of rows — restores
	// the fully zeroed state without touching the rest of the 32 KiB file.
	clear(w.regs[:w.dirtyRegs])
	w.dirtyRegs = regHi
	w.preds = [sass.NumPreds]uint32{}
	if w.laneMem {
		// A cleared local window and a length-zero stack are digest- and
		// behavior-identical to nil ones; the buffers stay for reuse.
		for lane := range w.local {
			clear(w.local[lane])
			w.stack[lane] = w.stack[lane][:0]
		}
		w.laneMem = false
	}
	w.exitedMask = ^w.liveMask
	w.converged, w.convPC = true, 0
	// The split list is a cache; its contents need no clearing once the
	// validity bit drops.
	w.nsplits, w.splitsOK = 0, false
	w.barWait, w.done = false, false
}

// shape readies the warp to be warp id of a block of the given shape: live
// lanes, scheduler mode, and the thread-index rows — recomputed only when the
// rows it holds were built for another (shape, id), so a slot that serves
// consecutive launches of one shape keeps them.
func (w *warp) shape(id int, block Dim3, legacy bool) {
	w.scanSched = legacy
	base := id * WarpSize
	live := min(block.Count()-base, WarpSize)
	w.liveMask = fullMask >> uint(WarpSize-live)
	if w.tidBlock == block && w.id == id {
		return
	}
	w.tidBlock, w.id = block, id
	if block.Y == 1 && block.Z == 1 {
		// 1-D blocks (the overwhelmingly common shape): the linear thread id
		// is the X coordinate, no div/mod chain. Lanes past the block's end
		// get ids too; nothing reads the tid of a lane outside liveMask.
		for lane := range w.tid[0] {
			w.tid[0][lane] = uint32(base + lane)
		}
		w.tid[1], w.tid[2] = regRow{}, regRow{}
		return
	}
	for lane := 0; lane < live; lane++ {
		t := base + lane
		w.tid[0][lane] = uint32(t % block.X)
		w.tid[1][lane] = uint32((t / block.X) % block.Y)
		w.tid[2][lane] = uint32(t / (block.X * block.Y))
	}
}

// claimBlock takes a block slot from the pool for launch l; the slot runs
// nothing until bind points it at a block.
func claimBlock(d *Device, l *Launch, constBank []byte, plan *xplan) *blockCtx {
	blk := blockPool.Get().(*blockCtx)
	blk.adopt(d, l, constBank, plan)
	return blk
}

// adopt builds everything about the slot that is the same for every block of
// launch l: the warps and their shape, a shared window of the launch's size,
// and the launch-invariant operand rows of plan.
func (blk *blockCtx) adopt(d *Device, l *Launch, constBank []byte, plan *xplan) {
	blk.dev, blk.ek, blk.launch, blk.constBank = d, l.Kernel, l, constBank
	blk.pause, blk.runTally = nil, nil

	numWarps := (l.Block.Count() + WarpSize - 1) / WarpSize
	for len(blk.warps) > numWarps {
		last := len(blk.warps) - 1
		warpPool.Put(blk.warps[last])
		blk.warps[last] = nil
		blk.warps = blk.warps[:last]
	}
	for len(blk.warps) < numWarps {
		blk.warps = append(blk.warps, warpPool.Get().(*warp))
	}
	legacy := d.LegacySched
	for id, w := range blk.warps {
		w.shape(id, l.Block, legacy)
	}
	sharedBytes := l.Kernel.K.SharedBytes + l.SharedBytes
	blk.shared = slices.Grow(blk.shared[:0], sharedBytes)[:sharedBytes]
	blk.setPlan(plan)
}

// bind points the slot at block lin of its launch and resets the state the
// block starts from. The scratch rows hold nothing between steps and the
// exec-mask cache (maskRow, maskFor) is consistent whatever it holds, so
// neither is touched.
func (blk *blockCtx) bind(lin int) {
	blk.blockLin = lin
	blk.blockIdx = blockIdxOf(lin, blk.launch.Grid)
	blk.smID = lin % blk.dev.NumSMs
	blk.resumeWarp = 0
	clear(blk.shared)
	var regHi int32
	if blk.plan != nil {
		regHi = blk.plan.regHi
	} else {
		regHi = writtenRegHi(blk.ek.K)
	}
	for _, w := range blk.warps {
		w.reset(regHi)
	}
	blk.fillUniforms(true)
}

// release returns the slot, with its warps and shared window, to the pool,
// dropping what it referenced of the launch it served.
func (blk *blockCtx) release() {
	blk.dev, blk.ek, blk.launch, blk.constBank, blk.plan = nil, nil, nil, nil, nil
	blk.pause, blk.runTally, blk.sites, blk.tally = nil, nil, nil, nil
	blk.calls, blk.spec, blk.shot, blk.live = false, nil, nil, nil
	blk.ictx = InstrCtx{}
	blockPool.Put(blk)
}
