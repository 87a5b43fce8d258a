package gpu

import (
	"encoding/binary"
	"math/bits"
	"slices"

	"repro/internal/sass"
)

// Memory-instruction specialization, mirroring exec_mem.go case for case.
// Address computation, width dispatch, and destination shape checks are all
// resolved at translation time; the actual space dispatch goes through the
// same spaceLoadAt/spaceStoreAt helpers the interpreter uses.

// memAddrLane compiles evalCtx.memAddr: the effective address of the first
// memory operand for one lane. Returns nil when the instruction has no
// memory operand.
func memAddrLane(in *sass.Instr) func(w *warp, lane int) uint32 {
	for i := range in.Src {
		o := &in.Src[i]
		if o.Kind != sass.OpdMem {
			continue
		}
		off := uint32(o.Off)
		if o.Reg == sass.RZ {
			return func(*warp, int) uint32 { return off }
		}
		r := o.Reg
		return func(w *warp, lane int) uint32 { return w.regs[r][lane] + off }
	}
	return nil
}

// trapActive is the compiled form of "return TrapInvalidInstruction on the
// first active lane": a trap iff any lane executes, as the interpreter's
// in-loop shape checks behave.
func trapActive(blk *blockCtx, w *warp, m uint32) (bool, TrapKind, uint32) {
	if m != 0 {
		return false, TrapInvalidInstruction, 0
	}
	return false, 0, 0
}

// fastMemOperand classifies the dominant memory-operand shape — `[Rx+off]`
// or `[off]` — for the fused global-access tier.
func fastMemOperand(in *sass.Instr) (r sass.RegID, off uint32, useReg, ok bool) {
	for i := range in.Src {
		o := &in.Src[i]
		if o.Kind != sass.OpdMem {
			continue
		}
		return o.Reg, uint32(o.Off), o.Reg != sass.RZ, true
	}
	return 0, 0, false, false
}

// unitStride reports whether the active lanes' addresses addr[l]+off form
// the run base + l*stride — the coalesced pattern kernels indexing by thread
// id produce by construction. It returns the first active lane's address, the
// byte length of the span through the last active lane, and m's select words.
func (blk *blockCtx) unitStride(addr *regRow, off, m, stride uint32) (lo, n uint32, k *regRow) {
	k = &onesRow
	if m != fullMask {
		k = blk.laneMasks(m)
	}
	first := bits.TrailingZeros32(m)
	want := addr[first] - uint32(first)*stride // what lane 0's register would hold
	if rowStrideDiff(addr, k, want, stride) != 0 {
		return 0, 0, nil
	}
	last := 31 - bits.LeadingZeros32(m)
	return addr[first] + off, uint32(last-first+1) * stride, k
}

// spanWindow returns the bytes backing [lo, lo+n) when lo is width-aligned
// and the whole span lies inside one allocation and one page, nil otherwise.
// That is the no-fault precondition of the whole-warp path: every lane of a
// unit-stride access inside the span is then aligned and in bounds, so no
// lane can trap and the visiting order cannot matter. On nil the caller
// takes the ascending-lane loop, which reports the exact trap kind, address,
// and first faulting lane.
func (m *Memory) spanWindow(lo, n, width uint32, write bool) []byte {
	al, o, kind := m.check(lo, width)
	if kind != 0 {
		return nil
	}
	po := o % memPageSize
	if po+n > memPageSize || uint64(o)+uint64(n) > uint64(al.size) {
		return nil
	}
	if write {
		return al.writePage(o / memPageSize)[po : po+n]
	}
	return al.readPage(o / memPageSize)[po : po+n]
}

// pageWindow validates one access like Memory.check and returns the page
// window around it: the device address of win[0] and the page's valid bytes,
// clamped to the allocation.
func (m *Memory) pageWindow(a, width uint32, write bool) (base uint32, win []byte, kind TrapKind) {
	al, o, kind := m.check(a, width)
	if kind != 0 {
		return 0, nil, kind
	}
	po := o % memPageSize
	n := min(al.size-(o-po), memPageSize)
	if write {
		return a - po, al.writePage(o / memPageSize)[:n], 0
	}
	return a - po, al.readPage(o / memPageSize)[:n], 0
}

// moveLane moves one lane's word (or double word) between memory bytes and
// the lane's slot in the low/high rows: into the rows for a load, out of
// them for a store.
func moveLane(p []byte, lo, hi *regRow, l int, wide, store bool) {
	switch {
	case !store && !wide:
		lo[l&31] = binary.LittleEndian.Uint32(p)
	case !store:
		v := binary.LittleEndian.Uint64(p)
		lo[l&31], hi[l&31] = uint32(v), uint32(v>>32)
	case !wide:
		binary.LittleEndian.PutUint32(p, lo[l&31])
	default:
		binary.LittleEndian.PutUint64(p, uint64(hi[l&31])<<32|uint64(lo[l&31]))
	}
}

// globalRowOp encodes the dominant global-memory shapes as row ops (rowprog.go,
// rsLd32 ... rsSt64): LDG/LD and STG/ST, .32 and .64, with a `[Rx+off]` or
// `[off]` address, between global memory and a plain register or register
// pair; a store may also take any row operand as its value. A register pair
// stores under readPairReg's RZ rules, any other .64 value zero-extended.
// What it refuses keeps compileLoad / compileStore's lane loops.
func globalRowOp(in *sass.Instr, rt *rowTable) (op rowOp, _ bool) {
	info := in.Op.Info()
	if info.Space != sass.SpaceGlobal && info.Space != sass.SpaceGeneric {
		return op, false
	}
	width := in.Mods.MemWidth()
	r, off, useReg, ok := fastMemOperand(in)
	if !ok || (width != 4 && width != 8) {
		return op, false
	}
	zero := rowOperand{base: rbArena}
	op.src = [3]rowOperand{zero, zero, zero}
	if useReg {
		op.src[0] = rowOperand{base: rbRegs, off: uint32(r) * rowBytes}
	}
	op.off = off
	if info.Sem == sass.SemLd {
		d, ok := fastDst(in)
		op.shape, op.dst = rsLd32, uint32(d)*rowBytes
		if width == 8 {
			op.shape = rsLd64
		}
		return op, ok
	}
	vi := slices.IndexFunc(in.Src, func(o sass.Operand) bool { return o.Kind != sass.OpdMem })
	if vi < 0 {
		return op, false // compileStore's unconditional trap
	}
	op.shape = rsSt32
	if width == 8 {
		op.shape = rsSt64
		if v := in.Src[vi]; v.Kind == sass.OpdReg {
			if v.Reg != sass.RZ {
				op.src[1] = rowOperand{base: rbRegs, off: uint32(v.Reg) * rowBytes}
				if v.Reg+1 != sass.RZ {
					op.src[2] = rowOperand{base: rbRegs, off: uint32(v.Reg+1) * rowBytes}
				}
			}
			return op, true
		}
	}
	op.src[1], ok = rowOperandFor(in, vi, fnNone, rt)
	return op, ok
}

// compileLoad specializes LD/LDG/LDL/LDS.
func compileLoad(in *sass.Instr, space sass.MemSpace) planStep {
	addr := memAddrLane(in)
	if addr == nil {
		return trapActive
	}
	switch width := in.Mods.MemWidth(); width {
	case 1, 2, 4:
		wr := dstWr(in)
		if wr == nil {
			return nil
		}
		signed := in.Mods.Signed
		return func(blk *blockCtx, w *warp, m uint32) (bool, TrapKind, uint32) {
			for ; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m)
				a := addr(w, lane)
				v, kind := spaceLoadAt(blk, w, lane, space, a, width)
				if kind != 0 {
					return false, kind, a
				}
				u := uint32(v)
				if signed {
					switch width {
					case 1:
						u = uint32(int32(int8(u)))
					case 2:
						u = uint32(int32(int16(u)))
					}
				}
				wr(w, lane, u)
			}
			return false, 0, 0
		}
	case 8:
		wr := dstWrPair(in)
		if wr == nil {
			return nil
		}
		return func(blk *blockCtx, w *warp, m uint32) (bool, TrapKind, uint32) {
			for ; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m)
				a := addr(w, lane)
				v, kind := spaceLoadAt(blk, w, lane, space, a, 8)
				if kind != 0 {
					return false, kind, a
				}
				wr(w, lane, v)
			}
			return false, 0, 0
		}
	case 16:
		if len(in.Dst) == 0 {
			return nil // interpreter panics on the missing destination
		}
		d := &in.Dst[0]
		if d.Kind != sass.OpdReg {
			return trapActive
		}
		base := d.Reg
		return func(blk *blockCtx, w *warp, m uint32) (bool, TrapKind, uint32) {
			for ; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m)
				a := addr(w, lane)
				for i := uint32(0); i < 4; i++ {
					v, kind := spaceLoadAt(blk, w, lane, space, a+4*i, 4)
					if kind != 0 {
						return false, kind, a + 4*i
					}
					if r := base + sass.RegID(i); r != sass.RZ {
						w.regs[r][lane] = uint32(v)
					}
				}
			}
			return false, 0, 0
		}
	default:
		return trapActive
	}
}

// compileStore specializes ST/STG/STL/STS.
func compileStore(in *sass.Instr, space sass.MemSpace) planStep {
	vi := -1
	for i := range in.Src {
		if in.Src[i].Kind != sass.OpdMem {
			vi = i
			break
		}
	}
	if vi < 0 {
		// No value operand: the interpreter traps before its lane loop, so
		// this faults even with an empty exec mask.
		return func(*blockCtx, *warp, uint32) (bool, TrapKind, uint32) {
			return false, TrapInvalidInstruction, 0
		}
	}
	addr := memAddrLane(in)
	if addr == nil {
		return trapActive
	}
	switch width := in.Mods.MemWidth(); width {
	case 1, 2, 4:
		val := srcU(in, vi)
		return func(blk *blockCtx, w *warp, m uint32) (bool, TrapKind, uint32) {
			for ; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m)
				a := addr(w, lane)
				if kind := spaceStoreAt(blk, w, lane, space, a, width, uint64(val(blk, w, lane))); kind != 0 {
					return false, kind, a
				}
			}
			return false, 0, 0
		}
	case 8:
		var val func(blk *blockCtx, w *warp, lane int) uint64
		if o := &in.Src[vi]; o.Kind == sass.OpdReg {
			r := o.Reg
			val = func(_ *blockCtx, w *warp, lane int) uint64 { return readPairReg(w, lane, r) }
		} else {
			u := srcU(in, vi)
			val = func(blk *blockCtx, w *warp, lane int) uint64 { return uint64(u(blk, w, lane)) }
		}
		return func(blk *blockCtx, w *warp, m uint32) (bool, TrapKind, uint32) {
			for ; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m)
				a := addr(w, lane)
				if kind := spaceStoreAt(blk, w, lane, space, a, 8, val(blk, w, lane)); kind != 0 {
					return false, kind, a
				}
			}
			return false, 0, 0
		}
	case 16:
		o := &in.Src[vi]
		if o.Kind != sass.OpdReg {
			return trapActive
		}
		base := o.Reg
		return func(blk *blockCtx, w *warp, m uint32) (bool, TrapKind, uint32) {
			for ; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m)
				a := addr(w, lane)
				for i := uint32(0); i < 4; i++ {
					var v uint32
					if r := base + sass.RegID(i); r != sass.RZ {
						v = w.regs[r][lane]
					}
					if kind := spaceStoreAt(blk, w, lane, space, a+4*i, 4, uint64(v)); kind != 0 {
						return false, kind, a + 4*i
					}
				}
			}
			return false, 0, 0
		}
	default:
		return trapActive
	}
}

// compileRed compiles evalCtx.atomic for RED, the atomic without a result.
// Lanes execute in ascending order so intra-warp races keep their
// deterministic interpreted outcome. The CAS-missing-swap and unknown-op
// traps fire after the lane's load, so a memory fault on that load still
// wins with the interpreter's trap kind.
func compileRed(in *sass.Instr, space sass.MemSpace) planStep {
	op := in.Mods.Atom
	if op == sass.AtomNone {
		op = sass.AtomAdd
	}
	float := in.Mods.Float
	vi := -1
	for i := range in.Src {
		if in.Src[i].Kind != sass.OpdMem {
			vi = i
			break
		}
	}
	if vi < 0 {
		// No value operand: the interpreter traps before its lane loop, so
		// this faults even with an empty exec mask.
		return func(*blockCtx, *warp, uint32) (bool, TrapKind, uint32) {
			return false, TrapInvalidInstruction, 0
		}
	}
	addr := memAddrLane(in)
	if addr == nil {
		return trapActive
	}
	val := srcU(in, vi)
	var swap laneU
	casShort := false
	if op == sass.AtomCAS {
		// Operands: [addr], compare, swap.
		if vi+1 >= len(in.Src) {
			casShort = true
		} else {
			swap = srcU(in, vi+1)
		}
	}
	return func(blk *blockCtx, w *warp, m uint32) (bool, TrapKind, uint32) {
		for ; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			a := addr(w, lane)
			old, kind := spaceLoadAt(blk, w, lane, space, a, 4)
			if kind != 0 {
				return false, kind, a
			}
			cur := uint32(old)
			v := val(blk, w, lane)
			var newVal uint32
			switch op {
			case sass.AtomAdd:
				if float {
					newVal = addF32Bits(cur, v)
				} else {
					newVal = cur + v
				}
			case sass.AtomMin:
				newVal = cur
				if int32(v) < int32(cur) {
					newVal = v
				}
			case sass.AtomMax:
				newVal = cur
				if int32(v) > int32(cur) {
					newVal = v
				}
			case sass.AtomAnd:
				newVal = cur & v
			case sass.AtomOr:
				newVal = cur | v
			case sass.AtomXor:
				newVal = cur ^ v
			case sass.AtomExch:
				newVal = v
			case sass.AtomCAS:
				if casShort {
					return false, TrapInvalidInstruction, 0
				}
				newVal = cur
				if cur == v {
					newVal = swap(blk, w, lane)
				}
			default:
				return false, TrapInvalidInstruction, 0
			}
			if kind := spaceStoreAt(blk, w, lane, space, a, 4, uint64(newVal)); kind != 0 {
				return false, kind, a
			}
		}
		return false, 0, 0
	}
}
