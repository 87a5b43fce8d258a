//go:build amd64 && !purego

package gpu

import "math/bits"

// The row primitives Go calls outside the dispatcher on amd64: AVX2 kernels
// (rowops_amd64.s, four 256-bit vectors per 32-lane row) when the processor
// and the OS support them, the portable loops otherwise. The choice is a fact
// about the machine, read once at start-up; nothing selects it. The ALU and
// compare kernels have no Go-callable form: the dispatcher (rowprog_amd64.s)
// is their one entry, and Go runs their portable loops (rowops_generic.go).

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

// lop3Masks[lut][i] is all ones when bit i of the truth table lut is set: the
// eight select words the dispatcher's LOP3 handler muxes between.
var lop3Masks = func() (t [256][8]uint32) {
	for lut := range t {
		for i := range t[lut] {
			t[lut][i] = -(uint32(lut) >> uint(i) & 1)
		}
	}
	return t
}()

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
func rowStrideDiffAVX2(addr, k *regRow, want, stride uint32) uint32

//go:noescape
func rowLoad32AVX2(dst *regRow, win *byte, first uintptr, k *regRow)

//go:noescape
func rowStore32AVX2(win *byte, first uintptr, src, k *regRow)

//go:noescape
func rowLoad64AVX2(lo, hi *regRow, win *byte, first uintptr, k *regRow)

//go:noescape
func rowStore64AVX2(win *byte, first uintptr, lo, hi, k *regRow)
