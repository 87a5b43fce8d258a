//go:build !amd64 || purego

package gpu

// Without vector kernels every row primitive is its portable loop
// (rowops_generic.go).

func rowBroadcast(r *regRow, v uint32)  { rowBroadcastGeneric(r, v) }
func rowExpandMask(k *regRow, m uint32) { rowExpandMaskGeneric(k, m) }
func rowMerge(dst, src, k *regRow)      { rowMergeGeneric(dst, src, k) }
func rowNeg(mode uint8, out, x *regRow) { rowNegGeneric(mode, out, x) }

func rowStrideDiff(addr, k *regRow, want, stride uint32) uint32 {
	return rowStrideDiffGeneric(addr, k, want, stride)
}

func rowLoad32(dst *regRow, win []byte, m uint32, _ *regRow)  { rowLoad32Generic(dst, win, m) }
func rowStore32(win []byte, src *regRow, m uint32, _ *regRow) { rowStore32Generic(win, src, m) }

func rowLoad64(lo, hi *regRow, win []byte, m uint32, _ *regRow)  { rowLoad64Generic(lo, hi, win, m) }
func rowStore64(win []byte, lo, hi *regRow, m uint32, _ *regRow) { rowStore64Generic(win, lo, hi, m) }
