package gpu

import (
	"math"
	"math/bits"

	"repro/internal/sass"
)

// This file is the instruction specializer: compileStep turns one sass.Instr
// into a planStep with every operand access resolved at translation time.
// Each source/destination compiler mirrors the corresponding evalCtx
// accessor in exec.go exactly — same zero-register handling, same negation
// rules, same out-of-shape behavior — and returns nil when the interpreter
// would panic on the shape, which makes compileStep fall back to the
// interpreter thunk so malformed instructions keep their exact interpreted
// behavior.

// Per-lane accessor and writer shapes. Readers take blk because constant
// and special-register reads are per-launch state that a cached plan must
// not capture.
type (
	laneU func(blk *blockCtx, w *warp, lane int) uint32
	laneF func(blk *blockCtx, w *warp, lane int) float32
	laneD func(blk *blockCtx, w *warp, lane int) float64
	laneP func(blk *blockCtx, w *warp, lane int) bool

	laneWrU func(w *warp, lane int, v uint32)
	laneWrP func(w *warp, lane int, v bool)
	laneWr2 func(w *warp, lane int, v uint64)
)

func zeroLane(*blockCtx, *warp, int) uint32 { return 0 }
func trueLane(*blockCtx, *warp, int) bool   { return true }
func falseLane(*blockCtx, *warp, int) bool  { return false }

func dropU(*warp, int, uint32) {}
func dropP(*warp, int, bool)   {}
func drop2(*warp, int, uint64) {}

// srcRaw compiles evalCtx.raw for one source operand; nil when the operand
// is missing (the interpreter would panic indexing it).
func srcRaw(in *sass.Instr, idx int) laneU {
	if idx >= len(in.Src) {
		return nil
	}
	o := &in.Src[idx]
	switch o.Kind {
	case sass.OpdReg:
		if o.Reg == sass.RZ {
			return zeroLane
		}
		r := o.Reg
		return func(_ *blockCtx, w *warp, lane int) uint32 { return w.regs[r][lane] }
	case sass.OpdImm:
		v := o.Imm
		return func(*blockCtx, *warp, int) uint32 { return v }
	case sass.OpdConst:
		off := o.Off
		return func(blk *blockCtx, _ *warp, _ int) uint32 { return blk.constRead(off) }
	case sass.OpdLabel:
		v := uint32(o.Target)
		return func(*blockCtx, *warp, int) uint32 { return v }
	case sass.OpdSpecial:
		sr := o.SReg
		return func(blk *blockCtx, w *warp, lane int) uint32 { return specialVal(blk, w, lane, sr) }
	default:
		return zeroLane
	}
}

// srcU compiles evalCtx.usrc (raw, negation ignored).
func srcU(in *sass.Instr, idx int) laneU { return srcRaw(in, idx) }

// srcI compiles evalCtx.isrc (integer negation).
func srcI(in *sass.Instr, idx int) laneU {
	f := srcRaw(in, idx)
	if f == nil {
		return nil
	}
	if in.Src[idx].Neg {
		return func(blk *blockCtx, w *warp, lane int) uint32 { return -f(blk, w, lane) }
	}
	return f
}

// srcFBits compiles evalCtx.fbits (sign-flip negation on float bits).
func srcFBits(in *sass.Instr, idx int) laneU {
	f := srcRaw(in, idx)
	if f == nil {
		return nil
	}
	if in.Src[idx].Neg {
		return func(blk *blockCtx, w *warp, lane int) uint32 { return f(blk, w, lane) ^ 0x80000000 }
	}
	return f
}

// srcF compiles evalCtx.fsrc.
func srcF(in *sass.Instr, idx int) laneF {
	f := srcFBits(in, idx)
	if f == nil {
		return nil
	}
	return func(blk *blockCtx, w *warp, lane int) float32 {
		return math.Float32frombits(f(blk, w, lane))
	}
}

// srcD compiles evalCtx.dsrc, including its quirk that a float immediate in
// a double context widens with negation ignored.
func srcD(in *sass.Instr, idx int) laneD {
	if idx >= len(in.Src) {
		return nil
	}
	o := &in.Src[idx]
	neg := o.Neg
	switch o.Kind {
	case sass.OpdReg:
		r := o.Reg
		if neg {
			return func(_ *blockCtx, w *warp, lane int) float64 {
				return math.Float64frombits(readPairReg(w, lane, r) ^ 1<<63)
			}
		}
		return func(_ *blockCtx, w *warp, lane int) float64 {
			return math.Float64frombits(readPairReg(w, lane, r))
		}
	case sass.OpdConst:
		off := o.Off
		return func(blk *blockCtx, _ *warp, _ int) float64 {
			b := uint64(blk.constRead(off+4))<<32 | uint64(blk.constRead(off))
			if neg {
				b ^= 1 << 63
			}
			return math.Float64frombits(b)
		}
	case sass.OpdImm:
		v := float64(math.Float32frombits(o.Imm))
		return func(*blockCtx, *warp, int) float64 { return v }
	default:
		b := uint64(0)
		if neg {
			b = 1 << 63
		}
		v := math.Float64frombits(b)
		return func(*blockCtx, *warp, int) float64 { return v }
	}
}

// srcP compiles evalCtx.psrc (missing or non-predicate operands read true).
func srcP(in *sass.Instr, idx int) laneP {
	if idx >= len(in.Src) {
		return trueLane
	}
	o := &in.Src[idx]
	if o.Kind != sass.OpdPred {
		return trueLane
	}
	p, neg := o.Pred.Pred, o.Pred.Neg
	if p == sass.PT {
		if neg {
			return falseLane
		}
		return trueLane
	}
	if neg {
		return func(_ *blockCtx, w *warp, lane int) bool { return !w.pred(p, lane) }
	}
	return func(_ *blockCtx, w *warp, lane int) bool { return w.pred(p, lane) }
}

// dstWr compiles evalCtx.wr; nil when Dst[0] is missing.
func dstWr(in *sass.Instr) laneWrU {
	if len(in.Dst) == 0 {
		return nil
	}
	d := &in.Dst[0]
	switch d.Kind {
	case sass.OpdReg:
		if d.Reg == sass.RZ {
			return dropU
		}
		r := d.Reg
		return func(w *warp, lane int, v uint32) { w.regs[r][lane] = v }
	case sass.OpdPred:
		if d.Pred.Pred == sass.PT {
			return dropU
		}
		p := d.Pred.Pred
		return func(w *warp, lane int, v uint32) { w.setPred(p, lane, v != 0) }
	default:
		return dropU
	}
}

// dstWrP compiles evalCtx.wrP; nil when Dst[0] is missing.
func dstWrP(in *sass.Instr) laneWrP {
	if len(in.Dst) == 0 {
		return nil
	}
	d := &in.Dst[0]
	if d.Kind == sass.OpdPred && d.Pred.Pred != sass.PT {
		p := d.Pred.Pred
		return func(w *warp, lane int, v bool) { w.setPred(p, lane, v) }
	}
	return dropP
}

// dstWrPair compiles evalCtx.wrPair; nil when Dst[0] is missing.
func dstWrPair(in *sass.Instr) laneWr2 {
	if len(in.Dst) == 0 {
		return nil
	}
	d := &in.Dst[0]
	if d.Kind != sass.OpdReg || d.Reg == sass.RZ {
		return drop2
	}
	r := d.Reg
	if r+1 != sass.RZ {
		return func(w *warp, lane int, v uint64) {
			w.regs[r][lane] = uint32(v)
			w.regs[r+1][lane] = uint32(v >> 32)
		}
	}
	return func(w *warp, lane int, v uint64) { w.regs[r][lane] = uint32(v) }
}

// Per-lane step drivers, iterating set bits in ascending lane order exactly
// like the perLane* helpers in exec.go.

func stepU(wr laneWrU, f laneU) planStep {
	return func(blk *blockCtx, w *warp, m uint32) (bool, TrapKind, uint32) {
		for ; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			wr(w, lane, f(blk, w, lane))
		}
		return false, 0, 0
	}
}

func stepF(wr laneWrU, f laneF) planStep {
	return func(blk *blockCtx, w *warp, m uint32) (bool, TrapKind, uint32) {
		for ; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			wr(w, lane, math.Float32bits(f(blk, w, lane)))
		}
		return false, 0, 0
	}
}

func stepD(wr laneWr2, f laneD) planStep {
	return func(blk *blockCtx, w *warp, m uint32) (bool, TrapKind, uint32) {
		for ; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			wr(w, lane, math.Float64bits(f(blk, w, lane)))
		}
		return false, 0, 0
	}
}

func stepP(wr laneWrP, f laneP) planStep {
	return func(blk *blockCtx, w *warp, m uint32) (bool, TrapKind, uint32) {
		for ; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			wr(w, lane, f(blk, w, lane))
		}
		return false, 0, 0
	}
}

// boolQualify wraps a compare result with the optional .AND/.OR/.XOR
// combine against a third predicate source, resolved at compile time.
func boolQualify(in *sass.Instr, base laneP) laneP {
	if len(in.Src) <= 2 {
		return base
	}
	op := in.Mods.Bool
	p2 := srcP(in, 2)
	return func(blk *blockCtx, w *warp, lane int) bool {
		return op.Apply(base(blk, w, lane), p2(blk, w, lane))
	}
}

// compileStep builds the fused step for one instruction: the fast tier
// (xlate_fast.go, which also leaves the instruction's row op in *op) for the
// dominant ALU shapes, the accessor tier for everything else it understands,
// and the interpreter thunk whenever any operand compiler reports a shape the
// specializer does not cover.
func compileStep(in *sass.Instr, pc int, rt *rowTable, op *rowOp) (planStep, uint8) {
	if step := fastStep(in, rt, op); step != nil {
		return step, tierFast
	}
	if step := specializeStep(in, rt); step != nil {
		return step, tierAccessor
	}
	return thunkStep(in, pc), tierThunk
}

func specializeStep(in *sass.Instr, rt *rowTable) planStep {
	mods := &in.Mods
	switch in.Op.Info().Sem {
	// --- FP32 arithmetic ---
	case sass.SemFAdd:
		wr, a, b := dstWr(in), srcF(in, 0), srcF(in, 1)
		if wr == nil || a == nil || b == nil {
			return nil
		}
		return stepF(wr, func(blk *blockCtx, w *warp, l int) float32 { return a(blk, w, l) + b(blk, w, l) })
	case sass.SemFMul:
		wr, a, b := dstWr(in), srcF(in, 0), srcF(in, 1)
		if wr == nil || a == nil || b == nil {
			return nil
		}
		return stepF(wr, func(blk *blockCtx, w *warp, l int) float32 { return a(blk, w, l) * b(blk, w, l) })
	case sass.SemFFma:
		wr, a, b, c := dstWr(in), srcF(in, 0), srcF(in, 1), srcF(in, 2)
		if wr == nil || a == nil || b == nil || c == nil {
			return nil
		}
		return stepF(wr, func(blk *blockCtx, w *warp, l int) float32 {
			return float32(float64(a(blk, w, l))*float64(b(blk, w, l)) + float64(c(blk, w, l)))
		})
	case sass.SemFMnMx:
		wr, a, b, p := dstWr(in), srcF(in, 0), srcF(in, 1), srcP(in, 2)
		if wr == nil || a == nil || b == nil {
			return nil
		}
		return stepF(wr, func(blk *blockCtx, w *warp, l int) float32 {
			x, y := a(blk, w, l), b(blk, w, l)
			if p(blk, w, l) {
				return fmin(x, y)
			}
			return fmax(x, y)
		})
	case sass.SemFSel:
		wr, a, b, p := dstWr(in), srcFBits(in, 0), srcFBits(in, 1), srcP(in, 2)
		if wr == nil || a == nil || b == nil {
			return nil
		}
		return stepU(wr, func(blk *blockCtx, w *warp, l int) uint32 {
			if p(blk, w, l) {
				return a(blk, w, l)
			}
			return b(blk, w, l)
		})
	case sass.SemFSet:
		wr, a, b := dstWr(in), srcF(in, 0), srcF(in, 1)
		if wr == nil || a == nil || b == nil {
			return nil
		}
		cmp := mods.Cmp
		r := boolQualify(in, func(blk *blockCtx, w *warp, l int) bool {
			return fcompare(cmp, a(blk, w, l), b(blk, w, l))
		})
		return stepU(wr, func(blk *blockCtx, w *warp, l int) uint32 {
			if r(blk, w, l) {
				return 0xffffffff
			}
			return 0
		})
	case sass.SemFSetP:
		wr, a, b := dstWrP(in), srcF(in, 0), srcF(in, 1)
		if wr == nil || a == nil || b == nil {
			return nil
		}
		cmp := mods.Cmp
		return stepP(wr, boolQualify(in, func(blk *blockCtx, w *warp, l int) bool {
			return fcompare(cmp, a(blk, w, l), b(blk, w, l))
		}))
	case sass.SemFChk:
		wr, a, b := dstWrP(in), srcF(in, 0), srcF(in, 1)
		if wr == nil || a == nil || b == nil {
			return nil
		}
		return stepP(wr, func(blk *blockCtx, w *warp, l int) bool {
			x, y := a(blk, w, l), b(blk, w, l)
			return y == 0 || isNaN32(x) || isNaN32(y) || isInf32(x) || isInf32(y)
		})
	case sass.SemMufu:
		wr, a := dstWr(in), srcF(in, 0)
		if wr == nil || a == nil {
			return nil
		}
		fn := mods.Mufu
		return stepF(wr, func(blk *blockCtx, w *warp, l int) float32 { return mufu(fn, a(blk, w, l)) })
	case sass.SemFrnd:
		wr, a := dstWr(in), srcF(in, 0)
		if wr == nil || a == nil {
			return nil
		}
		return stepF(wr, func(blk *blockCtx, w *warp, l int) float32 {
			return float32(math.RoundToEven(float64(a(blk, w, l))))
		})

	// --- FP64 arithmetic ---
	case sass.SemDAdd:
		wr, a, b := dstWrPair(in), srcD(in, 0), srcD(in, 1)
		if wr == nil || a == nil || b == nil {
			return nil
		}
		return stepD(wr, func(blk *blockCtx, w *warp, l int) float64 { return a(blk, w, l) + b(blk, w, l) })
	case sass.SemDMul:
		wr, a, b := dstWrPair(in), srcD(in, 0), srcD(in, 1)
		if wr == nil || a == nil || b == nil {
			return nil
		}
		return stepD(wr, func(blk *blockCtx, w *warp, l int) float64 { return a(blk, w, l) * b(blk, w, l) })
	case sass.SemDFma:
		wr, a, b, c := dstWrPair(in), srcD(in, 0), srcD(in, 1), srcD(in, 2)
		if wr == nil || a == nil || b == nil || c == nil {
			return nil
		}
		return stepD(wr, func(blk *blockCtx, w *warp, l int) float64 {
			return math.FMA(a(blk, w, l), b(blk, w, l), c(blk, w, l))
		})
	case sass.SemDMnMx:
		wr, a, b, p := dstWrPair(in), srcD(in, 0), srcD(in, 1), srcP(in, 2)
		if wr == nil || a == nil || b == nil {
			return nil
		}
		return stepD(wr, func(blk *blockCtx, w *warp, l int) float64 {
			x, y := a(blk, w, l), b(blk, w, l)
			if p(blk, w, l) {
				return math.Min(x, y)
			}
			return math.Max(x, y)
		})
	case sass.SemDSetP:
		wr, a, b := dstWrP(in), srcD(in, 0), srcD(in, 1)
		if wr == nil || a == nil || b == nil {
			return nil
		}
		cmp := mods.Cmp
		return stepP(wr, boolQualify(in, func(blk *blockCtx, w *warp, l int) bool {
			return dcompare(cmp, a(blk, w, l), b(blk, w, l))
		}))

	// --- Packed half arithmetic ---
	case sass.SemHAdd2:
		wr, a, b := dstWr(in), srcU(in, 0), srcU(in, 1)
		if wr == nil || a == nil || b == nil {
			return nil
		}
		return stepU(wr, func(blk *blockCtx, w *warp, l int) uint32 {
			return hmap2(a(blk, w, l), b(blk, w, l), func(x, y float32) float32 { return x + y })
		})
	case sass.SemHMul2:
		wr, a, b := dstWr(in), srcU(in, 0), srcU(in, 1)
		if wr == nil || a == nil || b == nil {
			return nil
		}
		return stepU(wr, func(blk *blockCtx, w *warp, l int) uint32 {
			return hmap2(a(blk, w, l), b(blk, w, l), func(x, y float32) float32 { return x * y })
		})
	case sass.SemHFma2:
		wr, a, b, c := dstWr(in), srcU(in, 0), srcU(in, 1), srcU(in, 2)
		if wr == nil || a == nil || b == nil || c == nil {
			return nil
		}
		return stepU(wr, func(blk *blockCtx, w *warp, l int) uint32 {
			return hmap3(a(blk, w, l), b(blk, w, l), c(blk, w, l),
				func(x, y, z float32) float32 { return x*y + z })
		})

	// --- Integer arithmetic ---
	case sass.SemIAdd:
		wr, a, b := dstWr(in), srcI(in, 0), srcI(in, 1)
		if wr == nil || a == nil || b == nil {
			return nil
		}
		return stepU(wr, func(blk *blockCtx, w *warp, l int) uint32 { return a(blk, w, l) + b(blk, w, l) })
	case sass.SemIAdd3:
		wr, a, b, c := dstWr(in), srcI(in, 0), srcI(in, 1), srcI(in, 2)
		if wr == nil || a == nil || b == nil || c == nil {
			return nil
		}
		return stepU(wr, func(blk *blockCtx, w *warp, l int) uint32 {
			return a(blk, w, l) + b(blk, w, l) + c(blk, w, l)
		})
	case sass.SemIMad:
		wr, a, b, c := dstWr(in), srcI(in, 0), srcI(in, 1), srcI(in, 2)
		if wr == nil || a == nil || b == nil || c == nil {
			return nil
		}
		if mods.High {
			signed := !mods.Unsigned
			return stepU(wr, func(blk *blockCtx, w *warp, l int) uint32 {
				return mulHigh(a(blk, w, l), b(blk, w, l), signed) + c(blk, w, l)
			})
		}
		return stepU(wr, func(blk *blockCtx, w *warp, l int) uint32 {
			return a(blk, w, l)*b(blk, w, l) + c(blk, w, l)
		})
	case sass.SemIMul:
		wr, a, b := dstWr(in), srcI(in, 0), srcI(in, 1)
		if wr == nil || a == nil || b == nil {
			return nil
		}
		if mods.High {
			signed := !mods.Unsigned
			return stepU(wr, func(blk *blockCtx, w *warp, l int) uint32 {
				return mulHigh(a(blk, w, l), b(blk, w, l), signed)
			})
		}
		return stepU(wr, func(blk *blockCtx, w *warp, l int) uint32 { return a(blk, w, l) * b(blk, w, l) })
	case sass.SemIMnMx:
		wr, a, b, p := dstWr(in), srcU(in, 0), srcU(in, 1), srcP(in, 2)
		if wr == nil || a == nil || b == nil {
			return nil
		}
		if mods.Unsigned {
			return stepU(wr, func(blk *blockCtx, w *warp, l int) uint32 {
				x, y := a(blk, w, l), b(blk, w, l)
				if (x < y) == p(blk, w, l) {
					return x
				}
				return y
			})
		}
		return stepU(wr, func(blk *blockCtx, w *warp, l int) uint32 {
			x, y := a(blk, w, l), b(blk, w, l)
			if (int32(x) < int32(y)) == p(blk, w, l) {
				return x
			}
			return y
		})
	case sass.SemIAbs:
		wr, a := dstWr(in), srcU(in, 0)
		if wr == nil || a == nil {
			return nil
		}
		return stepU(wr, func(blk *blockCtx, w *warp, l int) uint32 {
			v := int32(a(blk, w, l))
			if v < 0 {
				v = -v
			}
			return uint32(v)
		})
	case sass.SemISetP:
		wr, a, b := dstWrP(in), srcU(in, 0), srcU(in, 1)
		if wr == nil || a == nil || b == nil {
			return nil
		}
		cmp, unsigned := mods.Cmp, mods.Unsigned
		return stepP(wr, boolQualify(in, func(blk *blockCtx, w *warp, l int) bool {
			return icompare(cmp, a(blk, w, l), b(blk, w, l), unsigned)
		}))
	case sass.SemISCAdd, sass.SemLea:
		wr, a, b, c := dstWr(in), srcU(in, 0), srcU(in, 1), srcU(in, 2)
		if wr == nil || a == nil || b == nil || c == nil {
			return nil
		}
		return stepU(wr, func(blk *blockCtx, w *warp, l int) uint32 {
			return a(blk, w, l)<<(c(blk, w, l)&31) + b(blk, w, l)
		})
	case sass.SemLop:
		wr, a, b := dstWr(in), srcU(in, 0), srcU(in, 1)
		if wr == nil || a == nil || b == nil {
			return nil
		}
		switch mods.Logic {
		case sass.LogicOr:
			return stepU(wr, func(blk *blockCtx, w *warp, l int) uint32 { return a(blk, w, l) | b(blk, w, l) })
		case sass.LogicXor:
			return stepU(wr, func(blk *blockCtx, w *warp, l int) uint32 { return a(blk, w, l) ^ b(blk, w, l) })
		case sass.LogicPassB:
			return stepU(wr, func(blk *blockCtx, w *warp, l int) uint32 { return b(blk, w, l) })
		default: // LogicAnd and the unmodified default
			return stepU(wr, func(blk *blockCtx, w *warp, l int) uint32 { return a(blk, w, l) & b(blk, w, l) })
		}
	case sass.SemLop3:
		wr, a, b, c, d := dstWr(in), srcU(in, 0), srcU(in, 1), srcU(in, 2), srcU(in, 3)
		if wr == nil || a == nil || b == nil || c == nil || d == nil {
			return nil
		}
		return stepU(wr, func(blk *blockCtx, w *warp, l int) uint32 {
			return lop3(a(blk, w, l), b(blk, w, l), c(blk, w, l), uint8(d(blk, w, l)))
		})
	case sass.SemShl:
		wr, a, b := dstWr(in), srcU(in, 0), srcU(in, 1)
		if wr == nil || a == nil || b == nil {
			return nil
		}
		return stepU(wr, func(blk *blockCtx, w *warp, l int) uint32 {
			s := b(blk, w, l)
			if s >= 32 {
				return 0
			}
			return a(blk, w, l) << s
		})
	case sass.SemShr:
		wr, a, b := dstWr(in), srcU(in, 0), srcU(in, 1)
		if wr == nil || a == nil || b == nil {
			return nil
		}
		if mods.Unsigned {
			return stepU(wr, func(blk *blockCtx, w *warp, l int) uint32 {
				s := b(blk, w, l)
				if s >= 32 {
					return 0
				}
				return a(blk, w, l) >> s
			})
		}
		return stepU(wr, func(blk *blockCtx, w *warp, l int) uint32 {
			s := b(blk, w, l)
			if s >= 32 {
				s = 31
			}
			return uint32(int32(a(blk, w, l)) >> s)
		})
	case sass.SemShf:
		wr, a, b, c := dstWr(in), srcU(in, 0), srcU(in, 1), srcU(in, 2)
		if wr == nil || a == nil || b == nil || c == nil {
			return nil
		}
		right := mods.Right
		return stepU(wr, func(blk *blockCtx, w *warp, l int) uint32 {
			lo, sh, hi := uint64(a(blk, w, l)), b(blk, w, l)&63, uint64(c(blk, w, l))
			full := hi<<32 | lo
			if right {
				return uint32(full >> sh)
			}
			return uint32((full << sh) >> 32)
		})
	case sass.SemPopc:
		wr, a := dstWr(in), srcU(in, 0)
		if wr == nil || a == nil {
			return nil
		}
		return stepU(wr, func(blk *blockCtx, w *warp, l int) uint32 {
			return uint32(bits.OnesCount32(a(blk, w, l)))
		})
	case sass.SemFlo:
		wr, a := dstWr(in), srcU(in, 0)
		if wr == nil || a == nil {
			return nil
		}
		return stepU(wr, func(blk *blockCtx, w *warp, l int) uint32 {
			v := a(blk, w, l)
			if v == 0 {
				return 0xffffffff
			}
			return uint32(31 - bits.LeadingZeros32(v))
		})
	case sass.SemBrev:
		wr, a := dstWr(in), srcU(in, 0)
		if wr == nil || a == nil {
			return nil
		}
		return stepU(wr, func(blk *blockCtx, w *warp, l int) uint32 { return bits.Reverse32(a(blk, w, l)) })
	case sass.SemBmsk:
		wr, a, b := dstWr(in), srcU(in, 0), srcU(in, 1)
		if wr == nil || a == nil || b == nil {
			return nil
		}
		return stepU(wr, func(blk *blockCtx, w *warp, l int) uint32 {
			pos, width := a(blk, w, l)&31, b(blk, w, l)&63
			if width >= 32 {
				return 0xffffffff << pos
			}
			return (uint32(1)<<width - 1) << pos
		})
	case sass.SemSgxt:
		wr, a, b := dstWr(in), srcU(in, 0), srcU(in, 1)
		if wr == nil || a == nil || b == nil {
			return nil
		}
		return stepU(wr, func(blk *blockCtx, w *warp, l int) uint32 {
			v, nbits := a(blk, w, l), b(blk, w, l)&31
			if nbits == 0 {
				return 0
			}
			sh := 32 - nbits
			return uint32(int32(v<<sh) >> sh)
		})
	case sass.SemVAbsDiff:
		wr, a, b := dstWr(in), srcU(in, 0), srcU(in, 1)
		if wr == nil || a == nil || b == nil {
			return nil
		}
		return stepU(wr, func(blk *blockCtx, w *warp, l int) uint32 {
			x, y := int64(int32(a(blk, w, l))), int64(int32(b(blk, w, l)))
			d := x - y
			if d < 0 {
				d = -d
			}
			return uint32(d)
		})
	case sass.SemSel:
		wr, a, b, p := dstWr(in), srcU(in, 0), srcU(in, 1), srcP(in, 2)
		if wr == nil || a == nil || b == nil {
			return nil
		}
		return stepU(wr, func(blk *blockCtx, w *warp, l int) uint32 {
			if p(blk, w, l) {
				return a(blk, w, l)
			}
			return b(blk, w, l)
		})
	case sass.SemPrmt:
		wr, a, b, c := dstWr(in), srcU(in, 0), srcU(in, 1), srcU(in, 2)
		if wr == nil || a == nil || b == nil || c == nil {
			return nil
		}
		// PRMT Rd, Ra, Sb, Rc: Sb is the byte selector, Rc the high word.
		return stepU(wr, func(blk *blockCtx, w *warp, l int) uint32 {
			return prmt(a(blk, w, l), c(blk, w, l), b(blk, w, l))
		})

	// --- Movement and special registers ---
	case sass.SemMov:
		wr, a := dstWr(in), srcI(in, 0)
		if wr == nil || a == nil {
			return nil
		}
		return stepU(wr, a)
	case sass.SemS2R:
		wr := dstWr(in)
		if wr == nil || len(in.Src) == 0 {
			return nil
		}
		sr := in.Src[0].SReg
		return stepU(wr, func(blk *blockCtx, w *warp, l int) uint32 { return specialVal(blk, w, l, sr) })
	case sass.SemCS2R:
		wr := dstWrPair(in)
		if wr == nil {
			return nil
		}
		return func(blk *blockCtx, w *warp, m uint32) (bool, TrapKind, uint32) {
			for ; m != 0; m &= m - 1 {
				wr(w, bits.TrailingZeros32(m), blk.dev.smClocks[blk.smID])
			}
			return false, 0, 0
		}
	case sass.SemVote:
		wr, p := dstWr(in), rowPredFor(in, 0)
		if wr == nil {
			return nil
		}
		return func(blk *blockCtx, w *warp, execMask uint32) (bool, TrapKind, uint32) {
			ballot := p.mask(w) & execMask
			for m := execMask; m != 0; m &= m - 1 {
				wr(w, bits.TrailingZeros32(m), ballot)
			}
			return false, 0, 0
		}
	case sass.SemP2R:
		wr := dstWr(in)
		if wr == nil {
			return nil
		}
		mask := srcU(in, 0) // may be nil: P2R with no source reads all predicates
		return func(blk *blockCtx, w *warp, m uint32) (bool, TrapKind, uint32) {
			for ; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m)
				var v uint32
				for p := 0; p < int(sass.NumPreds)-1; p++ {
					v |= (w.preds[p] >> uint(lane) & 1) << uint(p)
				}
				if mask != nil {
					v &= mask(blk, w, lane)
				}
				wr(w, lane, v)
			}
			return false, 0, 0
		}
	case sass.SemR2P:
		wr, a := dstWrP(in), srcU(in, 0)
		if wr == nil || a == nil {
			return nil
		}
		mask := srcU(in, 1)
		if mask == nil {
			mask = func(*blockCtx, *warp, int) uint32 { return 1 }
		}
		return stepP(wr, func(blk *blockCtx, w *warp, l int) bool {
			return a(blk, w, l)&mask(blk, w, l) != 0
		})
	case sass.SemPSetP:
		wr, a, b := dstWrP(in), srcP(in, 0), srcP(in, 1)
		if wr == nil {
			return nil
		}
		op := mods.Bool
		return stepP(wr, func(blk *blockCtx, w *warp, l int) bool {
			return op.Apply(a(blk, w, l), b(blk, w, l))
		})
	case sass.SemPLop3:
		wr, a, b, c, d := dstWrP(in), srcP(in, 0), srcP(in, 1), srcP(in, 2), srcU(in, 3)
		if wr == nil || d == nil {
			return nil
		}
		return stepP(wr, func(blk *blockCtx, w *warp, l int) bool {
			idx := 0
			if a(blk, w, l) {
				idx |= 4
			}
			if b(blk, w, l) {
				idx |= 2
			}
			if c(blk, w, l) {
				idx |= 1
			}
			return uint8(d(blk, w, l))&(1<<uint(idx)) != 0
		})

	// --- Conversion ---
	case sass.SemF2I:
		wr, a := dstWr(in), srcF(in, 0)
		if wr == nil || a == nil {
			return nil
		}
		unsigned := mods.Unsigned
		return stepU(wr, func(blk *blockCtx, w *warp, l int) uint32 { return f2i(a(blk, w, l), unsigned) })
	case sass.SemI2F:
		wr, a := dstWr(in), srcU(in, 0)
		if wr == nil || a == nil {
			return nil
		}
		if mods.Unsigned {
			return stepU(wr, func(blk *blockCtx, w *warp, l int) uint32 {
				return math.Float32bits(float32(a(blk, w, l)))
			})
		}
		return stepU(wr, func(blk *blockCtx, w *warp, l int) uint32 {
			return math.Float32bits(float32(int32(a(blk, w, l))))
		})
	case sass.SemF2F:
		if mods.Width == 8 { // widen f32 -> f64
			wr, a := dstWrPair(in), srcF(in, 0)
			if wr == nil || a == nil {
				return nil
			}
			return stepD(wr, func(blk *blockCtx, w *warp, l int) float64 { return float64(a(blk, w, l)) })
		}
		// narrow f64 -> f32
		wr, a := dstWr(in), srcD(in, 0)
		if wr == nil || a == nil {
			return nil
		}
		return stepF(wr, func(blk *blockCtx, w *warp, l int) float32 { return float32(a(blk, w, l)) })
	case sass.SemI2I:
		wr, a := dstWr(in), srcU(in, 0)
		if wr == nil || a == nil {
			return nil
		}
		switch {
		case mods.Width == 1 && mods.Signed:
			return stepU(wr, func(blk *blockCtx, w *warp, l int) uint32 {
				return uint32(int32(int8(a(blk, w, l))))
			})
		case mods.Width == 1:
			return stepU(wr, func(blk *blockCtx, w *warp, l int) uint32 { return a(blk, w, l) & 0xff })
		case mods.Width == 2 && mods.Signed:
			return stepU(wr, func(blk *blockCtx, w *warp, l int) uint32 {
				return uint32(int32(int16(a(blk, w, l))))
			})
		case mods.Width == 2:
			return stepU(wr, func(blk *blockCtx, w *warp, l int) uint32 { return a(blk, w, l) & 0xffff })
		default:
			return stepU(wr, a)
		}

	// --- Memory ---
	case sass.SemLd:
		return compileLoad(in, in.Op.Info().Space)
	case sass.SemLdc:
		return compileLoadConst(in)
	case sass.SemSt:
		return compileStore(in, in.Op.Info().Space)
	case sass.SemAtom:
		return compileAtomic(in, in.Op.Info().Space, true)
	case sass.SemRed:
		return compileAtomic(in, in.Op.Info().Space, false)

	// --- Control ---
	case sass.SemBar:
		return func(*blockCtx, *warp, uint32) (bool, TrapKind, uint32) { return true, 0, 0 }
	case sass.SemBra, sass.SemJmp:
		if len(in.Src) == 0 {
			return nil
		}
		t := in.Src[0].Target
		return func(_ *blockCtx, w *warp, m uint32) (bool, TrapKind, uint32) {
			for ; m != 0; m &= m - 1 {
				w.pc[bits.TrailingZeros32(m)] = t
			}
			return false, 0, 0
		}
	case sass.SemExit, sass.SemKill:
		return func(_ *blockCtx, w *warp, m uint32) (bool, TrapKind, uint32) {
			w.exitedMask |= m
			return false, 0, 0
		}
	case sass.SemBpt:
		return func(_ *blockCtx, _ *warp, m uint32) (bool, TrapKind, uint32) {
			if m != 0 {
				return false, TrapBreakpoint, 0
			}
			return false, 0, 0
		}
	case sass.SemNop, sass.SemNopLike:
		return func(*blockCtx, *warp, uint32) (bool, TrapKind, uint32) { return false, 0, 0 }

	default:
		// Shfl, Match, Brx, Call, Ret, SemNone, and anything new: interpreter
		// thunk. Cross-lane semantics are rare enough that the dispatch
		// saving does not justify duplicating them.
		return nil
	}
}
