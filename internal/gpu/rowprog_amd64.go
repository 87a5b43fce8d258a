//go:build amd64 && !purego

package gpu

// runRows executes the row ops of instructions [pc, pc+n), n > 0, for the
// lanes in atPC, counting each issue into tally[pc:] when tally is not nil,
// and returns the thread-level executions: through the assembly dispatcher
// where the row kernels are AVX2 (rowprog_amd64.s), through the portable
// executor otherwise.
func (blk *blockCtx) runRows(w *warp, pc, n int32, atPC uint32, tally []SiteTally) uint64 {
	if !useAVX2 {
		return blk.runRowsPortable(w, pc, n, atPC, tally)
	}
	var t *SiteTally
	if tally != nil {
		t = &tally[pc]
	}
	return rowProgAVX2(blk, w, &blk.plan.ops[pc], int(n), atPC, t)
}

// rowProgAVX2 is runRowsPortable as one assembly routine: it walks n ops from
// ops, calling the AVX2 row kernels through a table of their addresses, and
// counts each issue at tally onwards unless tally is nil. Every op must be
// dispatchable. The routine reads blk (scratch rows, urows, the exec-mask
// cache, plan.arena) and w (regs, tid, preds, id) by the field offsets the
// compiler writes to go_asm.h.
//
//go:noescape
func rowProgAVX2(blk *blockCtx, w *warp, ops *rowOp, n int, atPC uint32, tally *SiteTally) (threads uint64)
