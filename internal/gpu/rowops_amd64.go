//go:build amd64 && !purego

package gpu

import "math/bits"

// The row primitives on amd64: AVX2 kernels (rowops_amd64.s, four 256-bit
// vectors per 32-lane row) when the processor and the OS support them, the
// portable loops otherwise. The choice is a fact about the machine, read once
// at start-up; nothing selects it.

// useAVX2 reports AVX2 with OS-enabled YMM state (CPUID + XGETBV).
var useAVX2 = cpuHasAVX2()

//go:noescape
func cpuHasAVX2() bool

// ymmUpperInUse reports whether the YMM upper halves are dirty, and whether
// the processor can tell: the tests' check that assembly returning to Go ran
// its VZEROUPPER.
//
//go:noescape
func ymmUpperInUse() (inUse, ok bool)

func rowBroadcast(r *regRow, v uint32) {
	if useAVX2 {
		rowBroadcastAVX2(r, v)
	} else {
		rowBroadcastGeneric(r, v)
	}
}

func rowExpandMask(k *regRow, m uint32) {
	if useAVX2 {
		rowExpandMaskAVX2(k, m)
	} else {
		rowExpandMaskGeneric(k, m)
	}
}

func rowMerge(dst, src, k *regRow) {
	if useAVX2 {
		rowMergeAVX2(dst, src, k)
	} else {
		rowMergeGeneric(dst, src, k)
	}
}

func rowNeg(mode uint8, out, x *regRow) {
	switch {
	case !useAVX2:
		rowNegGeneric(mode, out, x)
	case mode == fnInt:
		rowNegIntAVX2(out, x)
	case mode == fnFloat:
		rowNegFloatAVX2(out, x)
	}
}

// rowBin leaves the multiply-high and bit-count ops to the portable loops:
// AVX2 has no 32-bit popcount, bit reverse or leading-zero count, and no
// shipped kernel's hot path issues IMUL.HI.
func rowBin(op fastOp, out, x, y *regRow) {
	if !useAVX2 {
		rowBinGeneric(op, out, x, y)
		return
	}
	switch op {
	case fopAdd:
		rowAddAVX2(out, x, y)
	case fopMul:
		rowMulAVX2(out, x, y)
	case fopAnd:
		rowAndAVX2(out, x, y)
	case fopOr:
		rowOrAVX2(out, x, y)
	case fopXor:
		rowXorAVX2(out, x, y)
	case fopShl:
		rowShlAVX2(out, x, y)
	case fopShrU:
		rowShrAVX2(out, x, y)
	case fopShrS:
		rowSarAVX2(out, x, y)
	case fopFAdd:
		rowFAddAVX2(out, x, y)
	case fopFMul:
		rowFMulAVX2(out, x, y)
	default:
		rowBinGeneric(op, out, x, y)
	}
}

func rowTern(op fastOp, out, x, y, z *regRow, lut uint8) {
	if !useAVX2 {
		rowTernGeneric(op, out, x, y, z, lut)
		return
	}
	switch op {
	case fopImadLo:
		rowIMadAVX2(out, x, y, z)
	case fopIAdd3:
		rowIAdd3AVX2(out, x, y, z)
	case fopLea:
		rowLeaAVX2(out, x, y, z)
	case fopFFma:
		rowFFmaAVX2(out, x, y, z)
	case fopLop3:
		rowLop3AVX2(out, x, y, z, &lop3Masks[lut])
	default:
		rowTernGeneric(op, out, x, y, z, lut)
	}
}

// lop3Masks[lut][i] is all ones when bit i of the truth table lut is set: the
// eight select words rowLop3AVX2 muxes between.
var lop3Masks = func() (t [256][8]uint32) {
	for lut := range t {
		for i := range t[lut] {
			t[lut][i] = -(uint32(lut) >> uint(i) & 1)
		}
	}
	return t
}()

func rowSel(op fastOp, out, x, y *regRow, pm uint32) {
	switch {
	case !useAVX2:
		rowSelGeneric(op, out, x, y, pm)
	case op == fopSel:
		rowSelAVX2(out, x, y, pm)
	case op == fopIMnMxS:
		rowIMnMxSAVX2(out, x, y, pm)
	case op == fopIMnMxU:
		rowIMnMxUAVX2(out, x, y, pm)
	case op == fopFMnMx:
		rowFMnMxAVX2(out, x, y, pm)
	}
}

// cmpMask derives the twenty comparisons from seven kernels: equality,
// signed and unsigned greater-than, and the ordered float EQ / LT / LE plus
// the ordered test. The rest are operand swaps and complements — exact for
// the float ones too: Go's != is true on NaN (the complement of ordered ==),
// and >, >= are <, <= with the operands swapped.
func cmpMask(cmp fastCmp, x, y *regRow) uint32 {
	if !useAVX2 {
		return cmpMaskGeneric(cmp, x, y)
	}
	switch cmp {
	case fcT:
		return fullMask
	case fcEQ:
		return rowCmpEQAVX2(x, y)
	case fcNE:
		return ^rowCmpEQAVX2(x, y)
	case fcLTS:
		return rowCmpGTSAVX2(y, x)
	case fcLES:
		return ^rowCmpGTSAVX2(x, y)
	case fcGTS:
		return rowCmpGTSAVX2(x, y)
	case fcGES:
		return ^rowCmpGTSAVX2(y, x)
	case fcLTU:
		return rowCmpGTUAVX2(y, x)
	case fcLEU:
		return ^rowCmpGTUAVX2(x, y)
	case fcGTU:
		return rowCmpGTUAVX2(x, y)
	case fcGEU:
		return ^rowCmpGTUAVX2(y, x)
	case fcFEQ:
		return rowFCmpEQAVX2(x, y)
	case fcFNE:
		return ^rowFCmpEQAVX2(x, y)
	case fcFLT:
		return rowFCmpLTAVX2(x, y)
	case fcFLE:
		return rowFCmpLEAVX2(x, y)
	case fcFGT:
		return rowFCmpLTAVX2(y, x)
	case fcFGE:
		return rowFCmpLEAVX2(y, x)
	case fcFNum:
		return rowFCmpOrdAVX2(x, y)
	case fcFNan:
		return ^rowFCmpOrdAVX2(x, y)
	}
	return 0
}

func rowStrideDiff(addr, k *regRow, want, stride uint32) uint32 {
	if useAVX2 {
		return rowStrideDiffAVX2(addr, k, want, stride)
	}
	return rowStrideDiffGeneric(addr, k, want, stride)
}

// rowLoad32 and rowStore32 take the access's lane mask both ways: m for the
// portable loop, k (m expanded) for the masked vector moves, which read and
// write only the bytes of lanes whose select word is set.
func rowLoad32(dst *regRow, win []byte, m uint32, k *regRow) {
	if useAVX2 {
		rowLoad32AVX2(dst, &win[0], uintptr(bits.TrailingZeros32(m)), k)
	} else {
		rowLoad32Generic(dst, win, m)
	}
}

func rowStore32(win []byte, src *regRow, m uint32, k *regRow) {
	if useAVX2 {
		rowStore32AVX2(&win[0], uintptr(bits.TrailingZeros32(m)), src, k)
	} else {
		rowStore32Generic(win, src, m)
	}
}

// rowLoad64 and rowStore64 are the .64 moves: a lane's double word is its
// low word in lo and its high word in hi.
func rowLoad64(lo, hi *regRow, win []byte, m uint32, k *regRow) {
	if useAVX2 {
		rowLoad64AVX2(lo, hi, &win[0], uintptr(bits.TrailingZeros32(m)), k)
	} else {
		rowLoad64Generic(lo, hi, win, m)
	}
}

func rowStore64(win []byte, lo, hi *regRow, m uint32, k *regRow) {
	if useAVX2 {
		rowStore64AVX2(&win[0], uintptr(bits.TrailingZeros32(m)), lo, hi, k)
	} else {
		rowStore64Generic(win, lo, hi, m)
	}
}

//go:noescape
func rowBroadcastAVX2(r *regRow, v uint32)

//go:noescape
func rowExpandMaskAVX2(k *regRow, m uint32)

//go:noescape
func rowMergeAVX2(dst, src, k *regRow)

//go:noescape
func rowNegIntAVX2(out, x *regRow)

//go:noescape
func rowNegFloatAVX2(out, x *regRow)

//go:noescape
func rowAddAVX2(out, x, y *regRow)

//go:noescape
func rowMulAVX2(out, x, y *regRow)

//go:noescape
func rowAndAVX2(out, x, y *regRow)

//go:noescape
func rowOrAVX2(out, x, y *regRow)

//go:noescape
func rowXorAVX2(out, x, y *regRow)

//go:noescape
func rowShlAVX2(out, x, y *regRow)

//go:noescape
func rowShrAVX2(out, x, y *regRow)

//go:noescape
func rowSarAVX2(out, x, y *regRow)

//go:noescape
func rowFAddAVX2(out, x, y *regRow)

//go:noescape
func rowFMulAVX2(out, x, y *regRow)

//go:noescape
func rowIMadAVX2(out, x, y, z *regRow)

//go:noescape
func rowIAdd3AVX2(out, x, y, z *regRow)

//go:noescape
func rowLeaAVX2(out, x, y, z *regRow)

//go:noescape
func rowFFmaAVX2(out, x, y, z *regRow)

//go:noescape
func rowLop3AVX2(out, x, y, z *regRow, masks *[8]uint32)

//go:noescape
func rowSelAVX2(out, x, y *regRow, pm uint32)

//go:noescape
func rowIMnMxSAVX2(out, x, y *regRow, pm uint32)

//go:noescape
func rowIMnMxUAVX2(out, x, y *regRow, pm uint32)

//go:noescape
func rowFMnMxAVX2(out, x, y *regRow, pm uint32)

//go:noescape
func rowCmpEQAVX2(x, y *regRow) uint32

//go:noescape
func rowCmpGTSAVX2(x, y *regRow) uint32

//go:noescape
func rowCmpGTUAVX2(x, y *regRow) uint32

//go:noescape
func rowFCmpEQAVX2(x, y *regRow) uint32

//go:noescape
func rowFCmpLTAVX2(x, y *regRow) uint32

//go:noescape
func rowFCmpLEAVX2(x, y *regRow) uint32

//go:noescape
func rowFCmpOrdAVX2(x, y *regRow) uint32

//go:noescape
func rowStrideDiffAVX2(addr, k *regRow, want, stride uint32) uint32

//go:noescape
func rowLoad32AVX2(dst *regRow, win *byte, first uintptr, k *regRow)

//go:noescape
func rowStore32AVX2(win *byte, first uintptr, src, k *regRow)

//go:noescape
func rowLoad64AVX2(lo, hi *regRow, win *byte, first uintptr, k *regRow)

//go:noescape
func rowStore64AVX2(win *byte, first uintptr, lo, hi, k *regRow)
