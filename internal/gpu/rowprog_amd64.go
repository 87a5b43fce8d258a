//go:build amd64 && !purego

package gpu

import (
	"math"
	"unsafe"
)

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

// mufuConsts are the constants of the MUFU handlers, each repeated over the
// four float64 lanes of a vector (mufuConsts[mc*]): the units of RCP and RSQ,
// the float64 sign and magnitude masks, and the constants of Go's math/sin.go
// — 4/π, π/4 split into three parts, and the _sin and _cos polynomial
// coefficients — which the SIN and COS handlers replay operation by operation.
// The Go compiler rounds each literal here as it rounds math/sin.go's.
var mufuConsts = func() (c [numMufuConsts][4]uint64) {
	set := func(i int, v float64) {
		b := math.Float64bits(v)
		c[i] = [4]uint64{b, b, b, b}
	}
	set(mcOne, 1)
	set(mcHalf, 0.5)
	set(mcAbs, math.Float64frombits(1<<63-1))
	set(mcSign, math.Float64frombits(1<<63))
	set(mcFourOverPi, 4/math.Pi)
	set(mcPi4A, 7.85398125648498535156e-1)  // 0x3fe921fb40000000
	set(mcPi4B, 3.77489470793079817668e-8)  // 0x3e64442d00000000
	set(mcPi4C, 2.69515142907905952645e-15) // 0x3ce8469898cc5170
	for i, v := range [...]float64{
		1.58962301576546568060e-10, // 0x3de5d8fd1fd19ccd
		-2.50507477628578072866e-8, // 0xbe5ae5e5a9291f5d
		2.75573136213857245213e-6,  // 0x3ec71de3567d48a1
		-1.98412698295895385996e-4, // 0xbf2a01a019bfdf03
		8.33333333332211858878e-3,  // 0x3f8111111110f7d0
		-1.66666666666666307295e-1, // 0xbfc5555555555548
	} {
		set(mcSin0+i, v)
	}
	for i, v := range [...]float64{
		-1.13585365213876817300e-11, // 0xbda8fa49a0861a9b
		2.08757008419747316778e-9,   // 0x3e21ee9d7b4e3f05
		-2.75573141792967388112e-7,  // 0xbe927e4f7eac4bc6
		2.48015872888517045348e-5,   // 0x3efa01a019c844f5
		-1.38888888888730564116e-3,  // 0xbf56c16c16c14f91
		4.16666666666665929218e-2,   // 0x3fa555555555554b
	} {
		set(mcCos0+i, v)
	}
	return c
}()

// Indexes of mufuConsts.
const (
	mcOne = iota
	mcHalf
	mcAbs
	mcSign
	mcFourOverPi
	mcPi4A
	mcPi4B
	mcPi4C
	mcSin0        // _sin[i] is mcSin0+i
	mcCos0        = mcSin0 + 6
	numMufuConsts = mcCos0 + 6
)

// The dispatcher reads an operand's base and negation mode as one 16-bit word:
// this fails to compile unless neg is the byte after base.
var _ = [1]struct{}{}[unsafe.Offsetof(rowOperand{}.neg)-unsafe.Offsetof(rowOperand{}.base)-1]

// rowProgAVX2 is runRowsPortable as one assembly routine: it walks n ops from
// ops, calling each op's handler (rowOp.hand) through a table of their
// addresses with the operands in registers — one call for a trig pair whose
// ops are both among the n — and counts each issue at tally onwards unless
// tally is nil. Every op must be dispatchable. It returns the
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
