//go:build !amd64 || purego

package gpu

// runRows executes the row ops of instructions [pc, pc+n) for the lanes in
// atPC through the portable executor, counting each issue into tally[pc:]
// when tally is not nil, and returns the thread-level executions and where
// the stretch stopped, as runRowsPortable does.
func (blk *blockCtx) runRows(w *warp, pc, n int32, atPC uint32, tally []SiteTally) (threads uint64, at int32, kind TrapKind, faultAddr uint32) {
	return blk.runRowsPortable(w, pc, n, atPC, tally)
}

// execOne executes one op for the lanes in m, which its guard already
// selected, through the portable executor.
func (blk *blockCtx) execOne(w *warp, op *rowOp, m uint32) (TrapKind, uint32) {
	return blk.execRow(w, op, m)
}
