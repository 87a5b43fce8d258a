package gpu

import (
	"encoding/binary"

	"repro/internal/sass"
)

// memAddr computes the effective address of the instruction's memory
// operand for one lane. By convention the memory operand is Src[0] for
// loads and atomics and Dst-position-free for stores, where it is also
// Src[0] with the value in Src[1].
func (e *evalCtx) memAddr(lane int) (uint32, bool) {
	for i := range e.in.Src {
		o := &e.in.Src[i]
		if o.Kind == sass.OpdMem {
			base := uint32(0)
			if o.Reg != sass.RZ {
				base = e.w.regs[o.Reg][lane]
			}
			return base + uint32(o.Off), true
		}
	}
	return 0, false
}

// load implements LD/LDG/LDL/LDS: read width bytes into one, two, or four
// destination registers.
func (e *evalCtx) load(execMask uint32, space sass.MemSpace) (bool, TrapKind, uint32) {
	width := e.in.Mods.MemWidth()
	for lane := 0; lane < WarpSize; lane++ {
		if execMask&(1<<uint(lane)) == 0 {
			continue
		}
		addr, ok := e.memAddr(lane)
		if !ok {
			return false, TrapInvalidInstruction, 0
		}
		switch width {
		case 1, 2, 4:
			v, kind := e.spaceLoad(lane, space, addr, width)
			if kind != 0 {
				return false, kind, addr
			}
			u := uint32(v)
			if e.in.Mods.Signed {
				switch width {
				case 1:
					u = uint32(int32(int8(u)))
				case 2:
					u = uint32(int32(int16(u)))
				}
			}
			e.wr(lane, u)
		case 8:
			v, kind := e.spaceLoad(lane, space, addr, 8)
			if kind != 0 {
				return false, kind, addr
			}
			e.wrPair(lane, v)
		case 16:
			d := &e.in.Dst[0]
			if d.Kind != sass.OpdReg {
				return false, TrapInvalidInstruction, 0
			}
			for i := uint32(0); i < 4; i++ {
				v, kind := e.spaceLoad(lane, space, addr+4*i, 4)
				if kind != 0 {
					return false, kind, addr + 4*i
				}
				r := d.Reg + sass.RegID(i)
				if r != sass.RZ {
					e.w.regs[r][lane] = uint32(v)
				}
			}
		default:
			return false, TrapInvalidInstruction, 0
		}
	}
	return false, 0, 0
}

// loadConst implements LDC: a dynamically indexed constant-bank read. The
// memory operand's base register indexes into the launch constant bank.
func (e *evalCtx) loadConst(execMask uint32) (bool, TrapKind, uint32) {
	for lane := 0; lane < WarpSize; lane++ {
		if execMask&(1<<uint(lane)) == 0 {
			continue
		}
		addr, ok := e.memAddr(lane)
		if !ok {
			// LDC with a plain constant operand degenerates to MOV.
			e.wr(lane, e.usrc(lane, 0))
			continue
		}
		if addr%4 != 0 {
			return false, TrapMisaligned, addr
		}
		e.wr(lane, e.blk.constRead(int32(addr)))
	}
	return false, 0, 0
}

// store implements ST/STG/STL/STS. The stored value comes from the operand
// after the memory operand.
func (e *evalCtx) store(execMask uint32, space sass.MemSpace) (bool, TrapKind, uint32) {
	width := e.in.Mods.MemWidth()
	vi := e.valueOperandIndex()
	if vi < 0 {
		return false, TrapInvalidInstruction, 0
	}
	for lane := 0; lane < WarpSize; lane++ {
		if execMask&(1<<uint(lane)) == 0 {
			continue
		}
		addr, ok := e.memAddr(lane)
		if !ok {
			return false, TrapInvalidInstruction, 0
		}
		switch width {
		case 1, 2, 4:
			if kind := e.spaceStore(lane, space, addr, width, uint64(e.usrc(lane, vi))); kind != 0 {
				return false, kind, addr
			}
		case 8:
			v := e.srcPair(lane, vi)
			if kind := e.spaceStore(lane, space, addr, 8, v); kind != 0 {
				return false, kind, addr
			}
		case 16:
			o := &e.in.Src[vi]
			if o.Kind != sass.OpdReg {
				return false, TrapInvalidInstruction, 0
			}
			for i := uint32(0); i < 4; i++ {
				r := o.Reg + sass.RegID(i)
				var v uint32
				if r != sass.RZ {
					v = e.w.regs[r][lane]
				}
				if kind := e.spaceStore(lane, space, addr+4*i, 4, uint64(v)); kind != 0 {
					return false, kind, addr + 4*i
				}
			}
		default:
			return false, TrapInvalidInstruction, 0
		}
	}
	return false, 0, 0
}

// valueOperandIndex finds the first non-memory source operand (the stored
// value for ST, the addend for ATOM/RED).
func (e *evalCtx) valueOperandIndex() int {
	for i := range e.in.Src {
		if e.in.Src[i].Kind != sass.OpdMem {
			return i
		}
	}
	return -1
}

func (e *evalCtx) srcPair(lane, idx int) uint64 {
	o := &e.in.Src[idx]
	if o.Kind == sass.OpdReg {
		return e.readPair(lane, o.Reg)
	}
	return uint64(e.usrc(lane, idx))
}

// atomic implements ATOM/ATOMG/ATOMS (withResult) and RED (without).
// Lanes execute in lane order, which defines a deterministic outcome for
// intra-warp races; blocks run one at a time, so no other block's atomic
// interleaves with a warp's. Each lane's new word is atomApply's, the kernel
// the row tier's execAtomic runs too.
func (e *evalCtx) atomic(execMask uint32, space sass.MemSpace, withResult bool) (bool, TrapKind, uint32) {
	op := atomOpOf(&e.in.Mods)
	vi := e.valueOperandIndex()
	if vi < 0 {
		return false, TrapInvalidInstruction, 0
	}
	for lane := 0; lane < WarpSize; lane++ {
		if execMask&(1<<uint(lane)) == 0 {
			continue
		}
		addr, ok := e.memAddr(lane)
		if !ok {
			return false, TrapInvalidInstruction, 0
		}
		old, kind := e.spaceLoad(lane, space, addr, 4)
		if kind != 0 {
			return false, kind, addr
		}
		cur := uint32(old)
		val := e.usrc(lane, vi)
		var swap uint32
		switch {
		case op > sass.AtomCAS:
			return false, TrapInvalidInstruction, 0
		case op == sass.AtomCAS:
			// Operands: [addr], compare, swap.
			if vi+1 >= len(e.in.Src) {
				return false, TrapInvalidInstruction, 0
			}
			swap = e.usrc(lane, vi+1)
		}
		if kind := e.spaceStore(lane, space, addr, 4, uint64(atomApply(op, e.in.Mods.Float, cur, val, swap))); kind != 0 {
			return false, kind, addr
		}
		if withResult {
			e.wr(lane, cur)
		}
	}
	return false, 0, 0
}

// atomOpOf is the instruction's atomic operation; a bare ATOM or RED adds.
func atomOpOf(m *sass.Mods) sass.AtomOp {
	if m.Atom == sass.AtomNone {
		return sass.AtomAdd
	}
	return m.Atom
}

// atomApply is one lane's read-modify-write: the word an atomic leaves at its
// address, given the word it found there (cur), the lane's value (val) and,
// for CAS, its swap operand. The interpreter and the row tier's execAtomic
// both call it. MIN and MAX compare signed; .ADD.F32 (float) follows the FP32
// NaN rule of fadd32, the word found being the first operand.
func atomApply(op sass.AtomOp, float bool, cur, val, swap uint32) uint32 {
	switch op {
	case sass.AtomAdd:
		if float {
			return fadd32bits(cur, val)
		}
		return cur + val
	case sass.AtomMin:
		if int32(val) < int32(cur) {
			return val
		}
	case sass.AtomMax:
		if int32(val) > int32(cur) {
			return val
		}
	case sass.AtomAnd:
		return cur & val
	case sass.AtomOr:
		return cur | val
	case sass.AtomXor:
		return cur ^ val
	case sass.AtomExch:
		return val
	case sass.AtomCAS:
		if cur == val {
			return swap
		}
	}
	return cur
}

// spaceLoad dispatches a load to its address space.
func (e *evalCtx) spaceLoad(lane int, space sass.MemSpace, addr uint32, width uint8) (uint64, TrapKind) {
	switch space {
	case sass.SpaceGlobal, sass.SpaceGeneric:
		return e.blk.dev.Mem.Load(addr, width)
	case sass.SpaceShared:
		return sliceLoad(e.blk.shared, addr, width, TrapSharedBounds)
	case sass.SpaceLocal:
		return sliceLoad(laneLocal(e.w, lane), addr, width, TrapLocalBounds)
	default:
		return 0, TrapInvalidInstruction
	}
}

// spaceStore dispatches a store to its address space.
func (e *evalCtx) spaceStore(lane int, space sass.MemSpace, addr uint32, width uint8, v uint64) TrapKind {
	switch space {
	case sass.SpaceGlobal, sass.SpaceGeneric:
		return e.blk.dev.Mem.Store(addr, width, v)
	case sass.SpaceShared:
		return sliceStore(e.blk.shared, addr, width, v, TrapSharedBounds)
	case sass.SpaceLocal:
		return sliceStore(laneLocal(e.w, lane), addr, width, v, TrapLocalBounds)
	default:
		return TrapInvalidInstruction
	}
}

// laneLocal returns a lane's local-memory window, materializing it lazily.
// Loads come through here too, so the flag over-approximates "written".
func laneLocal(w *warp, lane int) []byte {
	w.laneMem = true
	if w.local[lane] == nil {
		w.local[lane] = make([]byte, localMemBytes)
	}
	return w.local[lane]
}

// sliceLoad and sliceStore access a shared or local window: a misaligned
// address traps before one past the end (oob). The interpreter and the
// shared-memory row ops (execShared) both go through them.
func sliceLoad(buf []byte, addr uint32, width uint8, oob TrapKind) (uint64, TrapKind) {
	if addr%uint32(width) != 0 {
		return 0, TrapMisaligned
	}
	if int(addr)+int(width) > len(buf) {
		return 0, oob
	}
	switch width {
	case 1:
		return uint64(buf[addr]), 0
	case 2:
		return uint64(binary.LittleEndian.Uint16(buf[addr:])), 0
	case 4:
		return uint64(binary.LittleEndian.Uint32(buf[addr:])), 0
	case 8:
		return binary.LittleEndian.Uint64(buf[addr:]), 0
	default:
		return 0, TrapInvalidInstruction
	}
}

func sliceStore(buf []byte, addr uint32, width uint8, v uint64, oob TrapKind) TrapKind {
	if addr%uint32(width) != 0 {
		return TrapMisaligned
	}
	if int(addr)+int(width) > len(buf) {
		return oob
	}
	switch width {
	case 1:
		buf[addr] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(buf[addr:], uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(buf[addr:], uint32(v))
	case 8:
		binary.LittleEndian.PutUint64(buf[addr:], v)
	default:
		return TrapInvalidInstruction
	}
	return 0
}
