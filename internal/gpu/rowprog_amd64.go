//go:build amd64 && !purego

package gpu

import "unsafe"

// runRows executes the row ops of instructions [pc, pc+n), n > 0, for the
// lanes in atPC, counting each issue into tally[pc:] when tally is not nil,
// and returns the thread-level executions and where the stretch stopped, as
// runRowsPortable does: through the assembly dispatcher where the row kernels
// are AVX2 (rowprog_amd64.s), through the portable executor otherwise. The
// dispatcher hands a global access its fast path does not cover back to Go
// before counting it; the op's portable executor runs it (and reports its
// trap), and the dispatcher takes up the rest of the stretch.
func (blk *blockCtx) runRows(w *warp, pc, n int32, atPC uint32, tally []SiteTally) (threads uint64, at int32, kind TrapKind, faultAddr uint32) {
	if !useAVX2 {
		return blk.runRowsPortable(w, pc, n, atPC, tally)
	}
	ops, mem := blk.plan.ops, blk.dev.Mem
	for end := pc + n; ; pc++ {
		var t *SiteTally
		if tally != nil {
			t = &tally[pc]
		}
		th, done := rowProgAVX2(blk, w, &ops[pc], int(end-pc), atPC, t, mem.allocs, mem.lastHit)
		threads += th
		if pc += int32(done); pc == end {
			return threads, pc, 0, 0
		}
		var lanes uint64
		lanes, kind, faultAddr = blk.issueRow(w, pc, atPC, tally)
		threads += lanes
		if kind != 0 {
			return threads, pc, kind, faultAddr
		}
		if pc+1 == end {
			return threads, end, 0, 0
		}
	}
}

// execOne executes one op for the lanes in m (not empty), which its guard
// already selected, as rowStep's copy of the op without a guard: through the
// dispatcher as a one-op stretch that tallies nothing, and through execRow
// when the op has no handler or the dispatcher leaves it to Go, as runRows
// does.
func (blk *blockCtx) execOne(w *warp, op *rowOp, m uint32) (TrapKind, uint32) {
	if useAVX2 && op.dispatchable() {
		mem := blk.dev.Mem
		if _, done := rowProgAVX2(blk, w, op, 1, m, nil, mem.allocs, mem.lastHit); done == 1 {
			return 0, 0
		}
	}
	return blk.execRow(w, op, m)
}

// The dispatcher reads an operand's base and negation mode as one 16-bit word:
// this fails to compile unless neg is the byte after base.
var _ = [1]struct{}{}[unsafe.Offsetof(rowOperand{}.neg)-unsafe.Offsetof(rowOperand{}.base)-1]

// rowProgAVX2 is runRowsPortable as one assembly routine: it walks n ops from
// ops, calling each op's handler (rowOp.hand) through a table of their
// addresses with the operands in registers, and counts each issue at tally
// onwards unless tally is nil. Every op must be dispatchable. It returns the
// thread-level executions and the number of ops it completed: n, or fewer when
// a global access leaves its fast path, at the op it did not count. The fast
// path resolves an access against allocs, the device memory's allocation
// table, through the two allocations memo (Memory.lastHit) names. The routine
// reads blk (scratch rows, urows, the exec-mask cache, plan.arena), w (regs,
// tid, preds, id) and the allocations by the field offsets the compiler writes
// to go_asm.h.
//
//go:noescape
func rowProgAVX2(blk *blockCtx, w *warp, ops *rowOp, n int, atPC uint32, tally *SiteTally, allocs []alloc, memo uint32) (threads uint64, done int)
