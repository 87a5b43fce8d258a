package gpu

import (
	"encoding/binary"
	"math"
	"math/bits"

	"repro/internal/sass"
)

// exec executes one instruction for the lanes in execMask. The caller
// (blockCtx.step) has already advanced the PC of every live lane at this
// instruction, so guard-suppressed lanes fall through; control semantics
// below override the taken lanes. It returns whether the warp reached a
// barrier, and a trap kind with faulting address when execution faults.
func (blk *blockCtx) exec(w *warp, in *sass.Instr, pc int, execMask uint32) (barrier bool, kind TrapKind, faultAddr uint32) {
	info := in.Op.Info()
	e := evalCtx{blk: blk, w: w, in: in}

	switch info.Sem {
	// --- FP32 arithmetic ---
	case sass.SemFAdd:
		return e.perLaneF(execMask, func(l int) float32 { return fadd32(e.fsrc(l, 0), e.fsrc(l, 1)) })
	case sass.SemFMul:
		return e.perLaneF(execMask, func(l int) float32 { return fmul32(e.fsrc(l, 0), e.fsrc(l, 1)) })
	case sass.SemFFma:
		return e.perLaneF(execMask, func(l int) float32 { return ffma32(e.fsrc(l, 0), e.fsrc(l, 1), e.fsrc(l, 2)) })
	case sass.SemFMnMx:
		return e.perLaneF(execMask, func(l int) float32 {
			a, b := e.fsrc(l, 0), e.fsrc(l, 1)
			if e.psrc(l, 2) {
				return fmin(a, b)
			}
			return fmax(a, b)
		})
	case sass.SemFSel:
		return e.perLaneU(execMask, func(l int) uint32 {
			if e.psrc(l, 2) {
				return e.fbits(l, 0)
			}
			return e.fbits(l, 1)
		})
	case sass.SemFSet:
		return e.perLaneU(execMask, func(l int) uint32 {
			r := fcompare(in.Mods.Cmp, e.fsrc(l, 0), e.fsrc(l, 1))
			if len(in.Src) > 2 {
				r = in.Mods.Bool.Apply(r, e.psrc(l, 2))
			}
			if r {
				return 0xffffffff
			}
			return 0
		})
	case sass.SemFSetP:
		return e.perLaneP(execMask, func(l int) bool {
			r := fcompare(in.Mods.Cmp, e.fsrc(l, 0), e.fsrc(l, 1))
			if len(in.Src) > 2 {
				r = in.Mods.Bool.Apply(r, e.psrc(l, 2))
			}
			return r
		})
	case sass.SemFChk:
		return e.perLaneP(execMask, func(l int) bool {
			a, b := e.fsrc(l, 0), e.fsrc(l, 1)
			return b == 0 || isNaN32(a) || isNaN32(b) || isInf32(a) || isInf32(b)
		})
	case sass.SemMufu:
		return e.perLaneF(execMask, func(l int) float32 { return mufu(in.Mods.Mufu, e.fsrc(l, 0)) })

	// --- FP64 arithmetic (even/odd register pairs) ---
	case sass.SemDAdd:
		return e.perLaneD(execMask, func(l int) float64 { return e.dsrc(l, 0) + e.dsrc(l, 1) })
	case sass.SemDMul:
		return e.perLaneD(execMask, func(l int) float64 { return e.dsrc(l, 0) * e.dsrc(l, 1) })
	case sass.SemDFma:
		return e.perLaneD(execMask, func(l int) float64 {
			return math.FMA(e.dsrc(l, 0), e.dsrc(l, 1), e.dsrc(l, 2))
		})
	case sass.SemDMnMx:
		return e.perLaneD(execMask, func(l int) float64 {
			a, b := e.dsrc(l, 0), e.dsrc(l, 1)
			if e.psrc(l, 2) {
				return math.Min(a, b)
			}
			return math.Max(a, b)
		})
	case sass.SemDSetP:
		return e.perLaneP(execMask, func(l int) bool {
			r := dcompare(in.Mods.Cmp, e.dsrc(l, 0), e.dsrc(l, 1))
			if len(in.Src) > 2 {
				r = in.Mods.Bool.Apply(r, e.psrc(l, 2))
			}
			return r
		})

	// --- Packed half arithmetic ---
	case sass.SemHAdd2:
		return e.perLaneU(execMask, func(l int) uint32 {
			return hmap2(e.usrc(l, 0), e.usrc(l, 1), func(a, b float32) float32 { return a + b })
		})
	case sass.SemHMul2:
		return e.perLaneU(execMask, func(l int) uint32 {
			return hmap2(e.usrc(l, 0), e.usrc(l, 1), func(a, b float32) float32 { return a * b })
		})
	case sass.SemHFma2:
		return e.perLaneU(execMask, func(l int) uint32 {
			return hmap3(e.usrc(l, 0), e.usrc(l, 1), e.usrc(l, 2), func(a, b, c float32) float32 { return a*b + c })
		})

	// --- Integer arithmetic ---
	case sass.SemIAdd:
		return e.perLaneU(execMask, func(l int) uint32 { return e.isrc(l, 0) + e.isrc(l, 1) })
	case sass.SemIAdd3:
		return e.perLaneU(execMask, func(l int) uint32 { return e.isrc(l, 0) + e.isrc(l, 1) + e.isrc(l, 2) })
	case sass.SemIMad:
		return e.perLaneU(execMask, func(l int) uint32 {
			a, b, c := e.isrc(l, 0), e.isrc(l, 1), e.isrc(l, 2)
			if in.Mods.High {
				return mulHigh(a, b, !in.Mods.Unsigned) + c
			}
			return a*b + c
		})
	case sass.SemIMul:
		return e.perLaneU(execMask, func(l int) uint32 {
			a, b := e.isrc(l, 0), e.isrc(l, 1)
			if in.Mods.High {
				return mulHigh(a, b, !in.Mods.Unsigned)
			}
			return a * b
		})
	case sass.SemIMnMx:
		return e.perLaneU(execMask, func(l int) uint32 {
			a, b := e.usrc(l, 0), e.usrc(l, 1)
			mn := e.psrc(l, 2)
			if in.Mods.Unsigned {
				if (a < b) == mn {
					return a
				}
				return b
			}
			if (int32(a) < int32(b)) == mn {
				return a
			}
			return b
		})
	case sass.SemIAbs:
		return e.perLaneU(execMask, func(l int) uint32 {
			v := int32(e.usrc(l, 0))
			if v < 0 {
				v = -v
			}
			return uint32(v)
		})
	case sass.SemISetP:
		return e.perLaneP(execMask, func(l int) bool {
			r := icompare(in.Mods.Cmp, e.usrc(l, 0), e.usrc(l, 1), in.Mods.Unsigned)
			if len(in.Src) > 2 {
				r = in.Mods.Bool.Apply(r, e.psrc(l, 2))
			}
			return r
		})
	case sass.SemISCAdd, sass.SemLea:
		// (a << shift) + b; shift is the third operand.
		return e.perLaneU(execMask, func(l int) uint32 {
			sh := e.usrc(l, 2) & 31
			return e.usrc(l, 0)<<sh + e.usrc(l, 1)
		})
	case sass.SemLop:
		return e.perLaneU(execMask, func(l int) uint32 {
			a, b := e.usrc(l, 0), e.usrc(l, 1)
			switch in.Mods.Logic {
			case sass.LogicAnd:
				return a & b
			case sass.LogicOr:
				return a | b
			case sass.LogicXor:
				return a ^ b
			case sass.LogicPassB:
				return b
			default:
				return a & b
			}
		})
	case sass.SemLop3:
		return e.perLaneU(execMask, func(l int) uint32 {
			return lop3(e.usrc(l, 0), e.usrc(l, 1), e.usrc(l, 2), uint8(e.usrc(l, 3)))
		})
	case sass.SemShl:
		return e.perLaneU(execMask, func(l int) uint32 {
			s := e.usrc(l, 1)
			if s >= 32 {
				return 0
			}
			return e.usrc(l, 0) << s
		})
	case sass.SemShr:
		return e.perLaneU(execMask, func(l int) uint32 {
			a, s := e.usrc(l, 0), e.usrc(l, 1)
			if in.Mods.Unsigned {
				if s >= 32 {
					return 0
				}
				return a >> s
			}
			if s >= 32 {
				s = 31
			}
			return uint32(int32(a) >> s)
		})
	case sass.SemShf:
		return e.perLaneU(execMask, func(l int) uint32 {
			lo, sh, hi := uint64(e.usrc(l, 0)), e.usrc(l, 1)&63, uint64(e.usrc(l, 2))
			full := hi<<32 | lo
			if in.Mods.Right {
				return uint32(full >> sh)
			}
			return uint32((full << sh) >> 32)
		})
	case sass.SemPopc:
		return e.perLaneU(execMask, func(l int) uint32 { return uint32(bits.OnesCount32(e.usrc(l, 0))) })
	case sass.SemFlo:
		return e.perLaneU(execMask, func(l int) uint32 {
			v := e.usrc(l, 0)
			if v == 0 {
				return 0xffffffff
			}
			return uint32(31 - bits.LeadingZeros32(v))
		})
	case sass.SemBrev:
		return e.perLaneU(execMask, func(l int) uint32 { return bits.Reverse32(e.usrc(l, 0)) })
	case sass.SemBmsk:
		return e.perLaneU(execMask, func(l int) uint32 {
			pos, width := e.usrc(l, 0)&31, e.usrc(l, 1)&63
			if width >= 32 {
				return 0xffffffff << pos
			}
			return (uint32(1)<<width - 1) << pos
		})
	case sass.SemSgxt:
		return e.perLaneU(execMask, func(l int) uint32 {
			v, nbits := e.usrc(l, 0), e.usrc(l, 1)&31
			if nbits == 0 {
				return 0
			}
			sh := 32 - nbits
			return uint32(int32(v<<sh) >> sh)
		})
	case sass.SemVAbsDiff:
		return e.perLaneU(execMask, func(l int) uint32 {
			a, b := int64(int32(e.usrc(l, 0))), int64(int32(e.usrc(l, 1)))
			d := a - b
			if d < 0 {
				d = -d
			}
			return uint32(d)
		})
	case sass.SemSel:
		return e.perLaneU(execMask, func(l int) uint32 {
			if e.psrc(l, 2) {
				return e.usrc(l, 0)
			}
			return e.usrc(l, 1)
		})
	case sass.SemPrmt:
		// PRMT Rd, Ra, Sb, Rc: Sb is the byte selector, Rc the high word.
		return e.perLaneU(execMask, func(l int) uint32 {
			return prmt(e.usrc(l, 0), e.usrc(l, 2), e.usrc(l, 1))
		})

	// --- Movement and special registers ---
	case sass.SemMov:
		return e.perLaneU(execMask, func(l int) uint32 { return e.isrc(l, 0) })
	case sass.SemS2R:
		return e.perLaneU(execMask, func(l int) uint32 { return e.special(l, in.Src[0].SReg) })
	case sass.SemCS2R:
		for lane := 0; lane < WarpSize; lane++ {
			if execMask&(1<<uint(lane)) == 0 {
				continue
			}
			clk := blk.dev.smClocks[blk.smID]
			e.wrPair(lane, clk)
		}
		return false, 0, 0
	case sass.SemShfl:
		return e.shfl(execMask)
	case sass.SemVote:
		var ballot uint32
		for lane := 0; lane < WarpSize; lane++ {
			if execMask&(1<<uint(lane)) != 0 && e.psrc(lane, 0) {
				ballot |= 1 << uint(lane)
			}
		}
		return e.perLaneU(execMask, func(l int) uint32 { return ballot })
	case sass.SemMatch:
		return e.perLaneU(execMask, func(l int) uint32 {
			var m uint32
			v := e.usrc(l, 0)
			for other := 0; other < WarpSize; other++ {
				if execMask&(1<<uint(other)) != 0 && e.usrcLane(other, 0) == v {
					m |= 1 << uint(other)
				}
			}
			return m
		})
	case sass.SemP2R:
		return e.perLaneU(execMask, func(l int) uint32 {
			var v uint32
			for p := 0; p < int(sass.NumPreds)-1; p++ {
				v |= (e.w.preds[p] >> uint(l) & 1) << uint(p)
			}
			if len(in.Src) > 0 {
				v &= e.usrc(l, 0)
			}
			return v
		})
	case sass.SemR2P:
		return e.perLaneP(execMask, func(l int) bool {
			v := e.usrc(l, 0)
			mask := uint32(1)
			if len(in.Src) > 1 {
				mask = e.usrc(l, 1)
			}
			return v&mask != 0
		})
	case sass.SemPSetP:
		return e.perLaneP(execMask, func(l int) bool {
			return in.Mods.Bool.Apply(e.psrc(l, 0), e.psrc(l, 1))
		})
	case sass.SemPLop3:
		return e.perLaneP(execMask, func(l int) bool {
			idx := 0
			if e.psrc(l, 0) {
				idx |= 4
			}
			if e.psrc(l, 1) {
				idx |= 2
			}
			if e.psrc(l, 2) {
				idx |= 1
			}
			lut := uint8(e.usrc(l, 3))
			return lut&(1<<uint(idx)) != 0
		})

	// --- Conversion ---
	case sass.SemF2I:
		return e.perLaneU(execMask, func(l int) uint32 { return f2i(e.fsrc(l, 0), in.Mods.Unsigned) })
	case sass.SemI2F:
		return e.perLaneU(execMask, func(l int) uint32 {
			v := e.usrc(l, 0)
			if in.Mods.Unsigned {
				return math.Float32bits(float32(v))
			}
			return math.Float32bits(float32(int32(v)))
		})
	case sass.SemF2F:
		if in.Mods.Width == 8 { // widen f32 -> f64
			for lane := 0; lane < WarpSize; lane++ {
				if execMask&(1<<uint(lane)) == 0 {
					continue
				}
				e.wrPair(lane, math.Float64bits(float64(e.fsrc(lane, 0))))
			}
			return false, 0, 0
		}
		// narrow f64 -> f32
		return e.perLaneU(execMask, func(l int) uint32 {
			return math.Float32bits(float32(e.dsrc(l, 0)))
		})
	case sass.SemI2I:
		return e.perLaneU(execMask, func(l int) uint32 {
			v := e.usrc(l, 0)
			switch in.Mods.Width {
			case 1:
				if in.Mods.Signed {
					return uint32(int32(int8(v)))
				}
				return v & 0xff
			case 2:
				if in.Mods.Signed {
					return uint32(int32(int16(v)))
				}
				return v & 0xffff
			default:
				return v
			}
		})
	case sass.SemFrnd:
		return e.perLaneF(execMask, func(l int) float32 {
			return float32(math.RoundToEven(float64(e.fsrc(l, 0))))
		})

	// --- Memory ---
	case sass.SemLd:
		return e.load(execMask, info.Space)
	case sass.SemLdc:
		return e.loadConst(execMask)
	case sass.SemSt:
		return e.store(execMask, info.Space)
	case sass.SemAtom:
		return e.atomic(execMask, info.Space, true)
	case sass.SemRed:
		return e.atomic(execMask, info.Space, false)

	// --- Control ---
	case sass.SemBar:
		return true, 0, 0
	case sass.SemBra, sass.SemJmp:
		t := in.Src[0].Target
		for m := execMask; m != 0; m &= m - 1 {
			w.pc[bits.TrailingZeros32(m)] = t
		}
		return false, 0, 0
	case sass.SemBrx:
		for m := execMask; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			w.pc[lane] = int32(e.usrc(lane, 0))
		}
		return false, 0, 0
	case sass.SemCall:
		t := in.Src[0].Target
		w.laneMem = true
		for m := execMask; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			if len(w.stack[lane]) >= maxCallDepth {
				return false, TrapCallStack, 0
			}
			w.stack[lane] = append(w.stack[lane], int32(pc+1))
			w.pc[lane] = t
		}
		return false, 0, 0
	case sass.SemRet:
		for m := execMask; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			st := w.stack[lane]
			if len(st) == 0 {
				return false, TrapCallStack, 0
			}
			w.pc[lane] = st[len(st)-1]
			w.stack[lane] = st[:len(st)-1]
		}
		return false, 0, 0
	case sass.SemExit, sass.SemKill:
		w.exitedMask |= execMask
		return false, 0, 0
	case sass.SemBpt:
		if execMask != 0 {
			return false, TrapBreakpoint, 0
		}
		return false, 0, 0

	case sass.SemNop, sass.SemNopLike:
		return false, 0, 0

	default: // SemNone: architecturally defined but not executable here
		return false, TrapInvalidInstruction, 0
	}
}

// evalCtx bundles the per-instruction evaluation state.
type evalCtx struct {
	blk *blockCtx
	w   *warp
	in  *sass.Instr
}

// raw reads a source operand's 32-bit value with no negation applied.
func (e *evalCtx) raw(lane, idx int) uint32 {
	o := &e.in.Src[idx]
	switch o.Kind {
	case sass.OpdReg:
		if o.Reg == sass.RZ {
			return 0
		}
		return e.w.regs[o.Reg][lane]
	case sass.OpdImm:
		return o.Imm
	case sass.OpdConst:
		return e.blk.constRead(o.Off)
	case sass.OpdLabel:
		return uint32(o.Target)
	case sass.OpdSpecial:
		return e.special(lane, o.SReg)
	default:
		return 0
	}
}

// usrc reads a source as an unsigned value (negation ignored).
func (e *evalCtx) usrc(lane, idx int) uint32 { return e.raw(lane, idx) }

// usrcLane reads operand idx as lane sees it (for cross-lane ops).
func (e *evalCtx) usrcLane(lane, idx int) uint32 { return e.raw(lane, idx) }

// isrc reads a source with integer negation.
func (e *evalCtx) isrc(lane, idx int) uint32 {
	v := e.raw(lane, idx)
	if e.in.Src[idx].Neg {
		return -v
	}
	return v
}

// fbits reads a source as float32 bits with sign-flip negation.
func (e *evalCtx) fbits(lane, idx int) uint32 {
	v := e.raw(lane, idx)
	if e.in.Src[idx].Neg {
		v ^= 0x80000000
	}
	return v
}

// fsrc reads a source as a float32.
func (e *evalCtx) fsrc(lane, idx int) float32 { return math.Float32frombits(e.fbits(lane, idx)) }

// dsrc reads a source as a float64 from a register pair or 8-byte constant.
func (e *evalCtx) dsrc(lane, idx int) float64 {
	o := &e.in.Src[idx]
	var b uint64
	switch o.Kind {
	case sass.OpdReg:
		b = e.readPair(lane, o.Reg)
	case sass.OpdConst:
		lo := e.blk.constRead(o.Off)
		hi := e.blk.constRead(o.Off + 4)
		b = uint64(hi)<<32 | uint64(lo)
	case sass.OpdImm:
		// A 32-bit float immediate used in a double context widens.
		return float64(math.Float32frombits(o.Imm))
	}
	if o.Neg {
		b ^= 1 << 63
	}
	return math.Float64frombits(b)
}

// psrc reads a predicate source, defaulting to true when absent.
func (e *evalCtx) psrc(lane, idx int) bool {
	if idx >= len(e.in.Src) {
		return true
	}
	o := &e.in.Src[idx]
	if o.Kind != sass.OpdPred {
		return true
	}
	v := e.w.pred(o.Pred.Pred, lane)
	if o.Pred.Pred == sass.PT {
		v = true
	}
	return v != o.Pred.Neg
}

func (e *evalCtx) readPair(lane int, r sass.RegID) uint64 { return readPairReg(e.w, lane, r) }

// readPairReg reads the 64-bit value in the register pair (r, r+1); RZ and
// the register adjacent to RZ contribute zero halves.
func readPairReg(w *warp, lane int, r sass.RegID) uint64 {
	lo := uint64(0)
	hi := uint64(0)
	if r != sass.RZ {
		lo = uint64(w.regs[r][lane])
	}
	if r+1 != sass.RZ && r != sass.RZ {
		hi = uint64(w.regs[r+1][lane])
	}
	return hi<<32 | lo
}

// wr writes a 32-bit value to the first destination operand.
func (e *evalCtx) wr(lane int, v uint32) {
	d := &e.in.Dst[0]
	switch d.Kind {
	case sass.OpdReg:
		if d.Reg != sass.RZ {
			e.w.regs[d.Reg][lane] = v
		}
	case sass.OpdPred:
		if d.Pred.Pred != sass.PT {
			e.w.setPred(d.Pred.Pred, lane, v != 0)
		}
	}
}

// wrP writes a predicate destination.
func (e *evalCtx) wrP(lane int, v bool) {
	d := &e.in.Dst[0]
	if d.Kind == sass.OpdPred && d.Pred.Pred != sass.PT {
		e.w.setPred(d.Pred.Pred, lane, v)
	}
}

// wrPair writes a 64-bit value to the destination register pair.
func (e *evalCtx) wrPair(lane int, v uint64) {
	d := &e.in.Dst[0]
	if d.Kind != sass.OpdReg || d.Reg == sass.RZ {
		return
	}
	e.w.regs[d.Reg][lane] = uint32(v)
	if d.Reg+1 != sass.RZ {
		e.w.regs[d.Reg+1][lane] = uint32(v >> 32)
	}
}

// perLaneU runs an unsigned-result computation on each exec lane.
func (e *evalCtx) perLaneU(execMask uint32, f func(lane int) uint32) (bool, TrapKind, uint32) {
	for lane := 0; lane < WarpSize; lane++ {
		if execMask&(1<<uint(lane)) != 0 {
			e.wr(lane, f(lane))
		}
	}
	return false, 0, 0
}

// perLaneF runs a float32-result computation on each exec lane.
func (e *evalCtx) perLaneF(execMask uint32, f func(lane int) float32) (bool, TrapKind, uint32) {
	for lane := 0; lane < WarpSize; lane++ {
		if execMask&(1<<uint(lane)) != 0 {
			e.wr(lane, math.Float32bits(f(lane)))
		}
	}
	return false, 0, 0
}

// perLaneD runs a float64-result computation on each exec lane.
func (e *evalCtx) perLaneD(execMask uint32, f func(lane int) float64) (bool, TrapKind, uint32) {
	for lane := 0; lane < WarpSize; lane++ {
		if execMask&(1<<uint(lane)) != 0 {
			e.wrPair(lane, math.Float64bits(f(lane)))
		}
	}
	return false, 0, 0
}

// perLaneP runs a predicate-result computation on each exec lane.
func (e *evalCtx) perLaneP(execMask uint32, f func(lane int) bool) (bool, TrapKind, uint32) {
	for lane := 0; lane < WarpSize; lane++ {
		if execMask&(1<<uint(lane)) != 0 {
			e.wrP(lane, f(lane))
		}
	}
	return false, 0, 0
}

func (e *evalCtx) special(lane int, sr sass.SpecialReg) uint32 {
	return specialVal(e.blk, e.w, lane, sr)
}

// specialVal reads a special register for one lane. Shared between the
// interpreter and the translated plans so S2R semantics cannot drift.
func specialVal(blk *blockCtx, w *warp, lane int, sr sass.SpecialReg) uint32 {
	switch sr {
	case sass.SRTidX:
		return w.tid[0][lane]
	case sass.SRTidY:
		return w.tid[1][lane]
	case sass.SRTidZ:
		return w.tid[2][lane]
	case sass.SRCtaidX:
		return uint32(blk.blockIdx.X)
	case sass.SRCtaidY:
		return uint32(blk.blockIdx.Y)
	case sass.SRCtaidZ:
		return uint32(blk.blockIdx.Z)
	case sass.SRLaneID:
		return uint32(lane)
	case sass.SRWarpID:
		return uint32(w.id)
	case sass.SRSMID:
		return uint32(blk.smID)
	case sass.SREqMask:
		return 1 << uint(lane)
	case sass.SRLtMask:
		return 1<<uint(lane) - 1
	case sass.SRClock:
		return uint32(blk.dev.smClocks[blk.smID])
	default:
		return 0
	}
}

// shfl implements the warp shuffle. Reads complete before any write so that
// in-place shuffles are correct.
func (e *evalCtx) shfl(execMask uint32) (bool, TrapKind, uint32) {
	in := e.in
	var vals [WarpSize]uint32
	for lane := 0; lane < WarpSize; lane++ {
		if execMask&(1<<uint(lane)) != 0 {
			vals[lane] = e.usrc(lane, 0)
		}
	}
	for lane := 0; lane < WarpSize; lane++ {
		if execMask&(1<<uint(lane)) == 0 {
			continue
		}
		b := int(e.usrc(lane, 1))
		var src int
		switch in.Mods.Shfl {
		case sass.ShflIdx:
			src = b & (WarpSize - 1)
		case sass.ShflUp:
			src = lane - b
		case sass.ShflDown:
			src = lane + b
		case sass.ShflBfly:
			src = lane ^ b
		default:
			src = lane
		}
		v := vals[lane]
		if src >= 0 && src < WarpSize && execMask&(1<<uint(src)) != 0 {
			v = vals[src]
		}
		e.wr(lane, v)
	}
	return false, 0, 0
}

// constRead reads a 32-bit word from the launch constant bank; out-of-range
// reads return zero, as constant memory beyond the parameters is backed by
// zero pages on hardware.
func (blk *blockCtx) constRead(off int32) uint32 {
	if off < 0 || int(off)+4 > len(blk.constBank) {
		return 0
	}
	return binary.LittleEndian.Uint32(blk.constBank[off:])
}

func fmin(a, b float32) float32 {
	// SASS MNMX returns the non-NaN operand when one input is NaN.
	if isNaN32(a) {
		return b
	}
	if isNaN32(b) {
		return a
	}
	if a < b {
		return a
	}
	return b
}

func fmax(a, b float32) float32 {
	if isNaN32(a) {
		return b
	}
	if isNaN32(b) {
		return a
	}
	if a > b {
		return a
	}
	return b
}

func isNaN32(f float32) bool { return f != f }

// The FP32 NaN rule: FADD, FMUL and FFMA return their first NaN operand in
// source order, quieted — what x86's scalar and packed float instructions do
// with their first source, and so the dispatcher's handlers. Go's + and * on
// float32 leave the rule to the compiler, which may swap the operands of a
// commutative operator, so the interpreter and the portable loops apply it
// themselves. A NaN an operation makes from numbers (∞ − ∞, 0 × ∞) is the
// processor's default NaN either way.
func quiet32(f float32) float32 { return math.Float32frombits(math.Float32bits(f) | 1<<22) }

func fadd32(a, b float32) float32 {
	switch {
	case isNaN32(a):
		return quiet32(a)
	case isNaN32(b):
		return quiet32(b)
	}
	return a + b
}

// fadd32bits is fadd32 over float32 bit patterns: .ADD.F32 of an atomic.
func fadd32bits(a, b uint32) uint32 {
	return math.Float32bits(fadd32(math.Float32frombits(a), math.Float32frombits(b)))
}

func fmul32(a, b float32) float32 {
	switch {
	case isNaN32(a):
		return quiet32(a)
	case isNaN32(b):
		return quiet32(b)
	}
	return a * b
}

// ffma32 is FFMA's float32(float64(a)*float64(b) + float64(c)): the product
// is the sum's first operand, so a product 0 × ∞ makes wins over a NaN c.
func ffma32(a, b, c float32) float32 {
	switch {
	case isNaN32(a):
		return quiet32(a)
	case isNaN32(b):
		return quiet32(b)
	}
	p := float64(a) * float64(b)
	switch {
	case p != p:
		return float32(p)
	case isNaN32(c):
		return quiet32(c)
	}
	return float32(p + float64(c))
}

func isInf32(f float32) bool { return f > math.MaxFloat32 || f < -math.MaxFloat32 }

func fcompare(c sass.CmpOp, a, b float32) bool {
	switch c {
	case sass.CmpF:
		return false
	case sass.CmpLT:
		return a < b
	case sass.CmpEQ:
		return a == b
	case sass.CmpLE:
		return a <= b
	case sass.CmpGT:
		return a > b
	case sass.CmpNE:
		return a != b
	case sass.CmpGE:
		return a >= b
	case sass.CmpNum:
		return !isNaN32(a) && !isNaN32(b)
	case sass.CmpNan:
		return isNaN32(a) || isNaN32(b)
	case sass.CmpT:
		return true
	default:
		return false
	}
}

func dcompare(c sass.CmpOp, a, b float64) bool {
	switch c {
	case sass.CmpF:
		return false
	case sass.CmpLT:
		return a < b
	case sass.CmpEQ:
		return a == b
	case sass.CmpLE:
		return a <= b
	case sass.CmpGT:
		return a > b
	case sass.CmpNE:
		return a != b
	case sass.CmpGE:
		return a >= b
	case sass.CmpNum:
		return !math.IsNaN(a) && !math.IsNaN(b)
	case sass.CmpNan:
		return math.IsNaN(a) || math.IsNaN(b)
	case sass.CmpT:
		return true
	default:
		return false
	}
}

func icompare(c sass.CmpOp, a, b uint32, unsigned bool) bool {
	if unsigned {
		switch c {
		case sass.CmpLT:
			return a < b
		case sass.CmpEQ:
			return a == b
		case sass.CmpLE:
			return a <= b
		case sass.CmpGT:
			return a > b
		case sass.CmpNE:
			return a != b
		case sass.CmpGE:
			return a >= b
		case sass.CmpT:
			return true
		default:
			return false
		}
	}
	sa, sb := int32(a), int32(b)
	switch c {
	case sass.CmpLT:
		return sa < sb
	case sass.CmpEQ:
		return sa == sb
	case sass.CmpLE:
		return sa <= sb
	case sass.CmpGT:
		return sa > sb
	case sass.CmpNE:
		return sa != sb
	case sass.CmpGE:
		return sa >= sb
	case sass.CmpT:
		return true
	default:
		return false
	}
}

func mulHigh(a, b uint32, signed bool) uint32 {
	if signed {
		return uint32(uint64(int64(int32(a))*int64(int32(b))) >> 32)
	}
	return uint32(uint64(a) * uint64(b) >> 32)
}

func lop3(a, b, c uint32, lut uint8) uint32 {
	var out uint32
	for i := 0; i < 8; i++ {
		if lut&(1<<uint(i)) == 0 {
			continue
		}
		term := uint32(0xffffffff)
		if i&4 != 0 {
			term &= a
		} else {
			term &= ^a
		}
		if i&2 != 0 {
			term &= b
		} else {
			term &= ^b
		}
		if i&1 != 0 {
			term &= c
		} else {
			term &= ^c
		}
		out |= term
	}
	return out
}

func prmt(a, b, sel uint32) uint32 {
	bytes8 := [8]byte{
		byte(a), byte(a >> 8), byte(a >> 16), byte(a >> 24),
		byte(b), byte(b >> 8), byte(b >> 16), byte(b >> 24),
	}
	var out uint32
	for i := 0; i < 4; i++ {
		n := (sel >> (4 * uint(i))) & 0xf
		v := bytes8[n&7]
		if n&8 != 0 { // replicate sign bit
			if v&0x80 != 0 {
				v = 0xff
			} else {
				v = 0
			}
		}
		out |= uint32(v) << (8 * uint(i))
	}
	return out
}

func mufu(fn sass.MufuFn, a float32) float32 {
	x := float64(a)
	var r float64
	switch fn {
	case sass.MufuRcp:
		r = 1 / x
	case sass.MufuRsq:
		r = 1 / math.Sqrt(x)
	case sass.MufuSqrt:
		r = math.Sqrt(x)
	case sass.MufuEx2:
		r = math.Exp2(x)
	case sass.MufuLg2:
		r = math.Log2(x)
	case sass.MufuSin:
		r = math.Sin(x)
	case sass.MufuCos:
		r = math.Cos(x)
	default:
		r = x
	}
	return float32(r)
}

func f2i(f float32, unsigned bool) uint32 {
	if isNaN32(f) {
		return 0
	}
	t := math.Trunc(float64(f))
	if unsigned {
		switch {
		case t <= 0:
			return 0
		case t >= math.MaxUint32:
			return math.MaxUint32
		default:
			return uint32(t)
		}
	}
	switch {
	case t <= math.MinInt32:
		return 0x80000000 // math.MinInt32 as a bit pattern
	case t >= math.MaxInt32:
		return math.MaxInt32
	default:
		return uint32(int32(t))
	}
}

func hmap2(a, b uint32, f func(x, y float32) float32) uint32 {
	lo := f32ToF16(f(f16ToF32(uint16(a)), f16ToF32(uint16(b))))
	hi := f32ToF16(f(f16ToF32(uint16(a>>16)), f16ToF32(uint16(b>>16))))
	return uint32(hi)<<16 | uint32(lo)
}

func hmap3(a, b, c uint32, f func(x, y, z float32) float32) uint32 {
	lo := f32ToF16(f(f16ToF32(uint16(a)), f16ToF32(uint16(b)), f16ToF32(uint16(c))))
	hi := f32ToF16(f(f16ToF32(uint16(a>>16)), f16ToF32(uint16(b>>16)), f16ToF32(uint16(c>>16))))
	return uint32(hi)<<16 | uint32(lo)
}

func f32Of(b uint32) float32 { return math.Float32frombits(b) }
