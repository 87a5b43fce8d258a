package gpu

import (
	"encoding/binary"
	"math"
	"math/bits"

	"repro/internal/sass"
)

// This file is the portable implementation of the row kernels (DESIGN.md
// section 3.11, "Row kernels"): the 32-lane loops of the row tier as plain Go,
// one function per primitive group. It is compiled on every platform. The ALU
// and compare loops (rowBin, rowTern, rowSel, cmpMask) are those kernels' one
// Go form everywhere: on amd64 with AVX2 the dispatcher's handlers run their
// vector bodies and are tested against these loops, lane for lane and bit for
// bit, as one-op row programs. The *Generic primitives are the only
// implementation on every GOARCH but amd64, on amd64 processors without AVX2
// (or an OS that does not save YMM state), and under the purego build tag;
// where rowops_amd64.s provides a Go-callable kernel they are its reference.
// The loops are written so each lane's result depends only on that lane's
// operands and is read before it is written: out may alias any source.
// rowCvt, MUFU and the conversions, is the portable executor's: MUFU RCP,
// RSQ, SQRT, SIN and COS have handlers too (held to mufu bit for bit by
// TestRowMufuExact), LG2, EX2 and the conversions no vector form. FADD, FMUL
// and FFMA apply the FP32 NaN rule of exec.go (fadd32, fmul32, ffma32).

// rowBroadcastGeneric fills r with v.
func rowBroadcastGeneric(r *regRow, v uint32) {
	_ = r[0]
	for l := range r {
		r[l] = v
	}
}

// rowExpandMaskGeneric expands the lane mask m into per-lane select words:
// all ones on the lanes in m, zero elsewhere.
func rowExpandMaskGeneric(k *regRow, m uint32) {
	for l := range k {
		k[l] = -(m >> uint(l) & 1)
	}
}

// rowMergeGeneric copies src's lanes selected by k (an expanded lane mask)
// into dst, leaving the rest untouched.
func rowMergeGeneric(dst, src, k *regRow) {
	_, _ = dst[0], src[0]
	for l := range dst {
		dst[l] ^= (dst[l] ^ src[l]) & k[l]
	}
}

// rowNegGeneric writes x's negation under mode (fnInt: two's complement,
// fnFloat: sign-bit flip) to out.
func rowNegGeneric(mode uint8, out, x *regRow) {
	_, _ = x[0], out[0]
	switch mode {
	case fnInt:
		for l := range out {
			out[l] = -x[l]
		}
	case fnFloat:
		for l := range out {
			out[l] = x[l] ^ 0x80000000
		}
	}
}

// rowBin is the one- and two-source ALU ops.
func rowBin(op fastOp, out, x, y *regRow) {
	_, _, _ = x[0], y[0], out[0] // one nil check here, none in the lane loops
	switch op {
	case fopAdd:
		for l := range out {
			out[l] = x[l] + y[l]
		}
	case fopMul:
		for l := range out {
			out[l] = x[l] * y[l]
		}
	case fopMulHiS:
		for l := range out {
			out[l] = mulHigh(x[l], y[l], true)
		}
	case fopMulHiU:
		for l := range out {
			out[l] = mulHigh(x[l], y[l], false)
		}
	case fopAnd:
		for l := range out {
			out[l] = x[l] & y[l]
		}
	case fopOr:
		for l := range out {
			out[l] = x[l] | y[l]
		}
	case fopXor:
		for l := range out {
			out[l] = x[l] ^ y[l]
		}
	// Go's shifts already have SASS's out-of-range behavior: counts of
	// 32 or more shift everything out (sign-filling for arithmetic).
	case fopShl:
		for l := range out {
			out[l] = x[l] << y[l]
		}
	case fopShrU:
		for l := range out {
			out[l] = x[l] >> y[l]
		}
	case fopShrS:
		for l := range out {
			out[l] = uint32(int32(x[l]) >> y[l])
		}
	case fopFAdd:
		for l := range out {
			out[l] = math.Float32bits(fadd32(f32Of(x[l]), f32Of(y[l])))
		}
	case fopFMul:
		for l := range out {
			out[l] = math.Float32bits(fmul32(f32Of(x[l]), f32Of(y[l])))
		}
	case fopPopc:
		for l := range out {
			out[l] = uint32(bits.OnesCount32(x[l]))
		}
	case fopBrev:
		for l := range out {
			out[l] = bits.Reverse32(x[l])
		}
	case fopFlo:
		// LeadingZeros32(0) is 32, so zero reads 0xffffffff as SASS wants.
		for l := range out {
			out[l] = uint32(31 - bits.LeadingZeros32(x[l]))
		}
	}
}

// rowCvt is MUFU (fn its function) and the conversions; F2F's double is the
// pair of words x (low), y (high), and cvF2FWiden writes its double's high
// words to hi. Each lane goes through the interpreter's own mufu and f2i.
func rowCvt(kind uint8, fn sass.MufuFn, out, hi, x, y *regRow) {
	_, _, _, _ = x[0], y[0], out[0], hi[0]
	switch kind {
	case cvMufu:
		for l := range out {
			out[l] = math.Float32bits(mufu(fn, math.Float32frombits(x[l])))
		}
	case cvI2F:
		for l := range out {
			out[l] = math.Float32bits(float32(int32(x[l])))
		}
	case cvI2FU:
		for l := range out {
			out[l] = math.Float32bits(float32(x[l]))
		}
	case cvF2I, cvF2IU:
		for l := range out {
			out[l] = f2i(math.Float32frombits(x[l]), kind == cvF2IU)
		}
	case cvF2FNarrow:
		for l := range out {
			out[l] = math.Float32bits(float32(math.Float64frombits(uint64(y[l])<<32 | uint64(x[l]))))
		}
	case cvF2FWiden:
		for l := range out {
			b := math.Float64bits(float64(math.Float32frombits(x[l])))
			out[l], hi[l] = uint32(b), uint32(b>>32)
		}
	}
}

// rowTern is the three-source ALU ops; lut carries LOP3's immediate
// truth table.
func rowTern(op fastOp, out, x, y, z *regRow, lut uint8) {
	_, _, _, _ = x[0], y[0], z[0], out[0]
	switch op {
	case fopImadLo:
		for l := range out {
			out[l] = x[l]*y[l] + z[l]
		}
	case fopImadHiS:
		for l := range out {
			out[l] = mulHigh(x[l], y[l], true) + z[l]
		}
	case fopImadHiU:
		for l := range out {
			out[l] = mulHigh(x[l], y[l], false) + z[l]
		}
	case fopIAdd3:
		for l := range out {
			out[l] = x[l] + y[l] + z[l]
		}
	case fopLea:
		for l := range out {
			out[l] = x[l]<<(z[l]&31) + y[l]
		}
	case fopFFma:
		for l := range out {
			out[l] = math.Float32bits(ffma32(f32Of(x[l]), f32Of(y[l]), f32Of(z[l])))
		}
	case fopLop3:
		for l := range out {
			out[l] = lop3(x[l], y[l], z[l], lut)
		}
	}
}

// rowSel is the predicate-selected ops: pm's lanes take x (SEL), the
// minimum (IMNMX, FMNMX); the others take y, the maximum.
func rowSel(op fastOp, out, x, y *regRow, pm uint32) {
	_, _, _ = x[0], y[0], out[0]
	switch op {
	case fopSel:
		for l := range out {
			k := -(pm >> uint(l) & 1)
			out[l] = y[l] ^ (x[l]^y[l])&k
		}
	case fopIMnMxU:
		for l := range out {
			v := y[l]
			if (x[l] < y[l]) == (pm>>uint(l)&1 != 0) {
				v = x[l]
			}
			out[l] = v
		}
	case fopIMnMxS:
		for l := range out {
			v := y[l]
			if (int32(x[l]) < int32(y[l])) == (pm>>uint(l)&1 != 0) {
				v = x[l]
			}
			out[l] = v
		}
	case fopFMnMx:
		for l := range out {
			fx, fy := math.Float32frombits(x[l]), math.Float32frombits(y[l])
			if pm>>uint(l)&1 != 0 {
				out[l] = math.Float32bits(fmin(fx, fy))
			} else {
				out[l] = math.Float32bits(fmax(fx, fy))
			}
		}
	}
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// cmpMask compares two rows lane by lane and returns the lanes that
// compare true.
func cmpMask(cmp fastCmp, x, y *regRow) (r uint32) {
	// Each loop shifts lane l's result in at the top, so after 32 lanes lane
	// 0 sits at bit 0: constant shift counts, no variable-shift register
	// shuffle per lane.
	_, _ = x[0], y[0]
	switch cmp {
	case fcT:
		return fullMask
	case fcEQ:
		for l := range x {
			r = r>>1 | b2u(x[l] == y[l])<<31
		}
	case fcNE:
		for l := range x {
			r = r>>1 | b2u(x[l] != y[l])<<31
		}
	case fcLTS:
		for l := range x {
			r = r>>1 | b2u(int32(x[l]) < int32(y[l]))<<31
		}
	case fcLES:
		for l := range x {
			r = r>>1 | b2u(int32(x[l]) <= int32(y[l]))<<31
		}
	case fcGTS:
		for l := range x {
			r = r>>1 | b2u(int32(x[l]) > int32(y[l]))<<31
		}
	case fcGES:
		for l := range x {
			r = r>>1 | b2u(int32(x[l]) >= int32(y[l]))<<31
		}
	case fcLTU:
		for l := range x {
			r = r>>1 | b2u(x[l] < y[l])<<31
		}
	case fcLEU:
		for l := range x {
			r = r>>1 | b2u(x[l] <= y[l])<<31
		}
	case fcGTU:
		for l := range x {
			r = r>>1 | b2u(x[l] > y[l])<<31
		}
	case fcGEU:
		for l := range x {
			r = r>>1 | b2u(x[l] >= y[l])<<31
		}
	case fcFEQ:
		for l := range x {
			r = r>>1 | b2u(f32Of(x[l]) == f32Of(y[l]))<<31
		}
	case fcFNE:
		for l := range x {
			r = r>>1 | b2u(f32Of(x[l]) != f32Of(y[l]))<<31
		}
	case fcFLT:
		for l := range x {
			r = r>>1 | b2u(f32Of(x[l]) < f32Of(y[l]))<<31
		}
	case fcFLE:
		for l := range x {
			r = r>>1 | b2u(f32Of(x[l]) <= f32Of(y[l]))<<31
		}
	case fcFGT:
		for l := range x {
			r = r>>1 | b2u(f32Of(x[l]) > f32Of(y[l]))<<31
		}
	case fcFGE:
		for l := range x {
			r = r>>1 | b2u(f32Of(x[l]) >= f32Of(y[l]))<<31
		}
	case fcFNum:
		for l := range x {
			r = r>>1 | b2u(!isNaN32(f32Of(x[l])) && !isNaN32(f32Of(y[l])))<<31
		}
	case fcFNan:
		for l := range x {
			r = r>>1 | b2u(isNaN32(f32Of(x[l])) || isNaN32(f32Of(y[l])))<<31
		}
	}
	return r
}

// rowStrideDiffGeneric is the unit-stride address test: it ORs together, over
// the lanes selected by k, the difference between addr[l] and want + l*stride.
// Zero means the selected lanes form that run.
func rowStrideDiffGeneric(addr, k *regRow, want, stride uint32) (bad uint32) {
	_, _ = addr[0], k[0]
	for l := range addr {
		bad |= (addr[l] ^ want) & k[l]
		want += stride
	}
	return bad
}

// rowLoad32Generic loads the lanes in m from win, the bytes of a unit-stride
// .32 access whose first active lane is at win[0], into dst; other lanes of
// dst, and bytes of win belonging to inactive lanes, are not touched.
func rowLoad32Generic(dst *regRow, win []byte, m uint32) {
	first, last := bits.TrailingZeros32(m), 31-bits.LeadingZeros32(m)
	for l := first; l <= last; l++ {
		if m>>uint(l)&1 != 0 {
			dst[l&31] = binary.LittleEndian.Uint32(win[4*(l-first):])
		}
	}
}

// rowStore32Generic is rowLoad32Generic's mirror: src's lanes in m to win.
func rowStore32Generic(win []byte, src *regRow, m uint32) {
	first, last := bits.TrailingZeros32(m), 31-bits.LeadingZeros32(m)
	for l := first; l <= last; l++ {
		if m>>uint(l)&1 != 0 {
			binary.LittleEndian.PutUint32(win[4*(l-first):], src[l&31])
		}
	}
}

// rowLoad64Generic loads the lanes in m from win, the bytes of a unit-stride
// .64 access whose first active lane is at win[0]: a lane's low word into lo,
// its high word into hi. Other lanes, and bytes of inactive lanes, are not
// touched.
func rowLoad64Generic(lo, hi *regRow, win []byte, m uint32) {
	first, last := bits.TrailingZeros32(m), 31-bits.LeadingZeros32(m)
	for l := first; l <= last; l++ {
		if m>>uint(l)&1 != 0 {
			v := binary.LittleEndian.Uint64(win[8*(l-first):])
			lo[l&31], hi[l&31] = uint32(v), uint32(v>>32)
		}
	}
}

// rowStore64Generic is rowLoad64Generic's mirror: the lanes in m of lo and hi,
// as double words, to win.
func rowStore64Generic(win []byte, lo, hi *regRow, m uint32) {
	first, last := bits.TrailingZeros32(m), 31-bits.LeadingZeros32(m)
	for l := first; l <= last; l++ {
		if m>>uint(l)&1 != 0 {
			binary.LittleEndian.PutUint64(win[8*(l-first):], uint64(hi[l&31])<<32|uint64(lo[l&31]))
		}
	}
}
