package gpu

import (
	"sync"

	"repro/internal/sass"
)

// Per-experiment state recycling. A fault-injection campaign creates a fresh
// context per experiment for isolation, but the expensive allocations under
// that context — block contexts with their shared-memory windows, warp
// register files (32 KiB each), and global-memory pages — have no
// experiment-specific identity once zeroed. Pooling them converts the
// campaign's dominant allocation cost into a memclr.
//
// Recycled state is architecturally indistinguishable from fresh state: the
// digest treats a zeroed local window or an empty call stack exactly like a
// nil one (see digestWith), and every reset field matches the zero value a
// fresh allocation would carry. Pool discipline: whoever claimed a blockCtx
// releases it once, when the block completes, traps, or its paused run is
// closed — traps carry no reference to the block and snapshots deep-copy it,
// so nothing observes a block after its launch has let go of it.

var warpPool = sync.Pool{New: func() any { return new(warp) }}

// getWarp returns a zeroed warp from the pool with converged scheduling
// state, as newBlockCtx builds them.
func getWarp(id int) *warp {
	w := warpPool.Get().(*warp)
	w.reset()
	w.id = id
	w.converged = true
	return w
}

// reset restores a warp to the fresh-allocation state while keeping the
// lane-local memory and call-stack buffers for reuse. A cleared local window
// and a length-zero stack are digest- and behavior-identical to nil ones.
func (w *warp) reset() {
	w.id = 0
	w.pc = [WarpSize]int32{}
	// Rows at or above dirtyRegs are zero by invariant (see the field doc),
	// so clearing the dirty prefix — one contiguous run of rows — restores
	// the fully zeroed state without touching the rest of the 32 KiB file.
	clear(w.regs[:w.dirtyRegs])
	w.dirtyRegs = 0
	w.preds = [sass.NumPreds]uint32{}
	// tid is not cleared: newBlockCtx assigns it for every live lane, and no
	// observable path (execution, digest, snapshot identity) reads the tid
	// of a lane outside liveMask.
	for lane := 0; lane < WarpSize; lane++ {
		if w.local[lane] != nil {
			clear(w.local[lane])
		}
		if w.stack[lane] != nil {
			w.stack[lane] = w.stack[lane][:0]
		}
	}
	w.liveMask = 0
	w.exitedMask = 0
	w.converged = false
	w.convPC = 0
	// The split list is a cache; its contents need no clearing once the
	// validity bit drops.
	w.nsplits = 0
	w.splitsOK = false
	w.scanSched = false
	w.barWait = false
	w.done = false
}

// blockPool recycles block contexts. A pooled context keeps its warps
// slice's backing array (every entry nil) and its shared-memory buffer, so a
// steady-state block allocates nothing.
var blockPool = sync.Pool{New: func() any { return new(blockCtx) }}

// getBlockCtx returns a pooled block context reset to the fresh-allocation
// state, with room for numWarps warps and a zeroed shared window of
// sharedBytes.
func getBlockCtx(numWarps, sharedBytes int) *blockCtx {
	blk := blockPool.Get().(*blockCtx)
	warps, shared := blk.warps[:0], blk.shared[:0]
	if cap(warps) < numWarps {
		warps = make([]*warp, 0, numWarps)
	}
	if cap(shared) < sharedBytes {
		shared = make([]byte, sharedBytes)
	} else {
		shared = shared[:sharedBytes]
		clear(shared)
	}
	*blk = blockCtx{warps: warps, shared: shared}
	return blk
}

// release returns the block's warps, and the context with its shared window,
// to their pools.
func (blk *blockCtx) release() {
	for i, w := range blk.warps {
		warpPool.Put(w)
		blk.warps[i] = nil
	}
	blockPool.Put(blk)
}
