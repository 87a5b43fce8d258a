package gpu

import (
	"math"
	"math/bits"

	"repro/internal/sass"
)

// This file is the accessor tier of the instruction specializer: for an
// instruction the row tier (xlate_fast.go) rejects, specializeStep compiles a
// per-lane closure with every operand access resolved at translation time.
// It has a case only for a semantic a shipped kernel runs here
// (TestShippedKernelsNeverThunk pins the set): loads and stores, RED, BAR,
// BRA, EXIT, MUFU and the conversions I2F, F2I and F2F. Every other
// instruction runs on the interpreter through thunkStep. Each
// source/destination compiler mirrors the corresponding evalCtx accessor in
// exec.go exactly — same zero-register handling, same negation rules, same
// out-of-shape behavior — and returns nil when the interpreter would panic
// on the shape, which makes compileStep fall back to the thunk so malformed
// instructions keep their exact interpreted behavior.

// Per-lane accessor and writer shapes. Readers take blk because constant
// and special-register reads are per-launch state that a cached plan must
// not capture.
type (
	laneU func(blk *blockCtx, w *warp, lane int) uint32
	laneF func(blk *blockCtx, w *warp, lane int) float32
	laneD func(blk *blockCtx, w *warp, lane int) float64

	laneWrU func(w *warp, lane int, v uint32)
	laneWr2 func(w *warp, lane int, v uint64)
)

func zeroLane(*blockCtx, *warp, int) uint32 { return 0 }

func dropU(*warp, int, uint32) {}
func drop2(*warp, int, uint64) {}

// srcU compiles evalCtx.usrc (evalCtx.raw: negation ignored) for one source
// operand; nil when the operand is missing (the interpreter would panic
// indexing it).
func srcU(in *sass.Instr, idx int) laneU {
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

// srcF compiles evalCtx.fsrc (sign-flip negation on the float bits).
func srcF(in *sass.Instr, idx int) laneF {
	f := srcU(in, idx)
	if f == nil {
		return nil
	}
	var neg uint32
	if in.Src[idx].Neg {
		neg = 0x80000000
	}
	return func(blk *blockCtx, w *warp, lane int) float32 {
		return math.Float32frombits(f(blk, w, lane) ^ neg)
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

// compileStep builds the fused step for one instruction: the row tier
// (xlate_fast.go, which also leaves the instruction's row op in *op) for the
// dominant ALU and global-memory shapes, the accessor tier for the semantics
// specializeStep covers, and the interpreter thunk for everything else.
func compileStep(in *sass.Instr, pc int, rt *rowTable, op *rowOp) (planStep, uint8) {
	if step := fastStep(in, rt, op); step != nil {
		return step, tierFast
	}
	if step := specializeStep(in); step != nil {
		return step, tierAccessor
	}
	return thunkStep(in, pc), tierThunk
}

func specializeStep(in *sass.Instr) planStep {
	mods := &in.Mods
	switch in.Op.Info().Sem {
	case sass.SemLd:
		return compileLoad(in, in.Op.Info().Space)
	case sass.SemSt:
		return compileStore(in, in.Op.Info().Space)
	case sass.SemRed:
		return compileRed(in, in.Op.Info().Space)
	case sass.SemBar:
		return func(*blockCtx, *warp, uint32) (bool, TrapKind, uint32) { return true, 0, 0 }
	case sass.SemBra:
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
	case sass.SemExit:
		return func(_ *blockCtx, w *warp, m uint32) (bool, TrapKind, uint32) {
			w.exitedMask |= m
			return false, 0, 0
		}
	case sass.SemMufu:
		wr, a := dstWr(in), srcF(in, 0)
		if wr == nil || a == nil {
			return nil
		}
		fn := mods.Mufu
		return stepF(wr, func(blk *blockCtx, w *warp, l int) float32 { return mufu(fn, a(blk, w, l)) })
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
	default:
		return nil
	}
}
