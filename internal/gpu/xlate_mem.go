package gpu

import (
	"encoding/binary"
	"math/bits"
	"slices"

	"repro/internal/sass"
)

// The memory accesses of the row tier: the encoding of the dominant load and
// store shapes and of the global atomics as row ops (memRowOp, atomRowOp) and
// the window helpers execGlobal and execAtomic (rowprog.go) move their bytes
// through. Every other load, store and atomic — LDG .U8/.S16/.128, LDL/STL,
// ATOMS, a CAS without its swap operand — runs on the interpreter thunk.

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

// memAddrOp starts the row op of a memory instruction with a `[Rx+off]` or
// `[off]` address: src[0] is the address register (the zero row for `[off]`),
// off the offset, and the other sources read the zero row. It also returns
// the index of the first non-memory source — a store's or an atomic's value —
// or -1.
func memAddrOp(in *sass.Instr) (op rowOp, vi int, ok bool) {
	r, off, useReg, ok := fastMemOperand(in)
	if !ok {
		return op, -1, false
	}
	zero := rowOperand{base: rbArena}
	op.src = [3]rowOperand{zero, zero, zero}
	if useReg {
		op.src[0] = rowOperand{base: rbRegs, off: uint32(r) * rowBytes}
	}
	op.off = off
	return op, slices.IndexFunc(in.Src, func(o sass.Operand) bool { return o.Kind != sass.OpdMem }), true
}

// memRowOp encodes the dominant memory shapes as row ops (rowprog.go): LDG/LD
// and STG/ST .32 and .64 (rsLd32 ... rsSt64), and LDS/STS .32 (rsLdS32,
// rsStS32), with a `[Rx+off]` or `[off]` address, between memory and a plain
// register or register pair; a store may also take any row operand as its
// value. A register pair stores under readPairReg's RZ rules, any other .64
// value zero-extended. What it refuses runs on the interpreter thunk.
func memRowOp(in *sass.Instr, rt *rowTable) (op rowOp, _ bool) {
	info := in.Op.Info()
	width := in.Mods.MemWidth()
	shared := info.Space == sass.SpaceShared
	switch {
	case info.Space == sass.SpaceGlobal || info.Space == sass.SpaceGeneric:
		if width != 4 && width != 8 {
			return op, false
		}
	case !shared || width != 4:
		return op, false
	}
	op, vi, ok := memAddrOp(in)
	if !ok {
		return op, false
	}
	if info.Sem == sass.SemLd {
		d, ok := fastDst(in)
		op.shape, op.dst = rsLd32, uint32(d)*rowBytes
		switch {
		case shared:
			op.shape = rsLdS32
		case width == 8:
			op.shape = rsLd64
		}
		return op, ok
	}
	if vi < 0 {
		return op, false // the interpreter traps even with no lane executing
	}
	op.shape = rsSt32
	switch {
	case shared:
		op.shape = rsStS32
	case width == 8:
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

// atomRowOp encodes RED and ATOM/ATOMG over global or generic memory as row
// ops (rsRed, rsAtom): every atomic operation, .ADD.F32 among them, with a
// `[Rx+off]` or `[off]` address and any row operand as its value and CAS's
// swap. An ATOM whose destination is RZ keeps no result: it is a RED. What the
// interpreter traps on before a lane executes, or only for a lane — no value,
// a CAS without a swap, an operation it does not know — and an ATOM with no
// register destination stay on the interpreter thunk.
func atomRowOp(in *sass.Instr, rt *rowTable) (op rowOp, _ bool) {
	info := in.Op.Info()
	atom := atomOpOf(&in.Mods)
	if info.Space != sass.SpaceGlobal && info.Space != sass.SpaceGeneric || atom > sass.AtomCAS {
		return op, false
	}
	op, vi, ok := memAddrOp(in)
	if !ok || vi < 0 {
		return op, false
	}
	op.shape, op.kern = rsRed, uint8(atom)
	if in.Mods.Float {
		op.lut = 1
	}
	if info.Sem == sass.SemAtom {
		if len(in.Dst) == 0 || in.Dst[0].Kind != sass.OpdReg {
			return op, false
		}
		if d := in.Dst[0].Reg; d != sass.RZ {
			op.shape, op.dst = rsAtom, uint32(d)*rowBytes
		}
	}
	if op.src[1], ok = rowOperandFor(in, vi, fnNone, rt); !ok {
		return op, false
	}
	if atom == sass.AtomCAS {
		op.src[2], ok = rowOperandFor(in, vi+1, fnNone, rt)
	}
	return op, ok
}
