package gpu

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/sass"
)

// The row kernels' differential tests, lane for lane and bit for bit — NaN
// payloads included: there is no canonicalisation here, unlike the row tier's
// tests against the interpreter. The ALU and compare kernels run as one-op row
// programs: through runRows (on amd64 with AVX2 the dispatcher of
// rowprog_amd64.s, whose handlers are those kernels' one entry) and through
// the portable executor, which runs the loops of rowops_generic.go. The
// primitives Go calls itself (broadcast, mask expansion, merge, negation, the
// stride test, the masked moves) run through the platform's function and
// through their *Generic loop. Where the platform has no vector kernels
// (other GOARCH, no AVX2, -tags purego) both sides are the same code and the
// tests hold trivially.

// rowEdges are the operand values that separate a vector instruction from
// the Go expression it replaces: NaNs with distinct payloads and signs
// (quiet and signalling), infinities, signed zeros, denormals, shift counts
// at and past the word size, and the integer extremes.
var rowEdges = []uint32{
	0x7fc00001, 0xffc00002, 0x7f800003, 0xff80f004, 0x7fffffff, // NaNs
	0x7f800000, 0xff800000, // ±Inf
	0, 0x80000000, // ±0, INT_MIN
	0x00000001, 0x807fffff, 0x00400000, // denormals
	31, 32, 33, 0xffffffff, // shift counts
	0x3f800000, 0xbf800000, 0x7f7fffff, 0x00800000, 0x33800000, // 1, -1, max, min normal, 2^-24
}

// rowMufuHandled are the MUFU functions with a handler in the dispatcher.
var rowMufuHandled = []sass.MufuFn{sass.MufuRcp, sass.MufuRsq, sass.MufuSqrt, sass.MufuSin, sass.MufuCos}

// rowCvtHandled are the conversions (rsCvt's kernels but MUFU) with a handler
// in the dispatcher.
var rowCvtHandled = []uint8{cvI2F, cvI2FU, cvF2I, cvF2IU}

// mufuEdges are the MUFU arguments that separate a handler from the Go it
// replays: ±0, denormals, ±Inf, NaN payloads (quiet and signalling), ±2^29
// and the floats either side (the first arguments SIN and COS leave to Go,
// and the last they run), and the multiples of π/4 with the floats either
// side, both signs — where math/sin.go's octant changes — for k·π/4 with k to
// 64 and k a power of two, or one off one, up to 2^29.
func mufuEdges() []uint32 {
	e := []uint32{0, 0x80000000, 1, 0x80000001, 0x00400000, 0x807fffff, 0x00800000,
		0x7f800000, 0xff800000, 0x7fc00000, 0xffc00001, 0x7f800001, 0xff812345, 0x7fffffff,
		0x3f800000, 0xbf800000, 0x7f7fffff, 0xff7fffff}
	for _, b := range []uint32{0x4e000000, 0xce000000} {
		e = append(e, b-1, b, b+1)
	}
	var ks []float64
	for k := 1; k <= 64; k++ {
		ks = append(ks, float64(k))
	}
	for k := 128.0; k < 1<<30; k *= 2 {
		ks = append(ks, k-1, k, k+1)
	}
	for _, k := range ks {
		b := math.Float32bits(float32(k * math.Pi / 4))
		for _, v := range []uint32{b - 1, b, b + 1} {
			e = append(e, v, v|0x80000000)
		}
	}
	return e
}

// rowMaskSet is the 33 contiguous prefix masks plus 64 random ones.
func rowMaskSet(rng *rand.Rand) []uint32 {
	var ms []uint32
	for n := 0; n <= WarpSize; n++ {
		ms = append(ms, uint32(uint64(1)<<uint(n)-1))
	}
	for i := 0; i < 64; i++ {
		ms = append(ms, rng.Uint32())
	}
	return ms
}

// rowOperandSets returns operand triples: every ordered pair of edge values
// in x and y (z cycling through the edges at a different stride), then
// random rows salted with edges.
func rowOperandSets(rng *rand.Rand, random int) [][3]regRow {
	var sets [][3]regRow
	var cur [3]regRow
	n := 0
	for i, a := range rowEdges {
		for j, b := range rowEdges {
			cur[0][n], cur[1][n], cur[2][n] = a, b, rowEdges[(3*i+5*j+n)%len(rowEdges)]
			if n++; n == WarpSize {
				sets = append(sets, cur)
				n = 0
			}
		}
	}
	if n > 0 {
		sets = append(sets, cur)
	}
	for i := 0; i < random; i++ {
		var s [3]regRow
		for r := range s {
			for l := range s[r] {
				if v := rng.Uint32(); v%4 == 0 {
					s[r][l] = rowEdges[v>>2%uint32(len(rowEdges))]
				} else {
					s[r][l] = v
				}
			}
		}
		sets = append(sets, s)
	}
	return sets
}

var (
	rowBinOps = []fastOp{fopAdd, fopMul, fopMulHiS, fopMulHiU, fopAnd, fopOr, fopXor,
		fopShl, fopShrU, fopShrS, fopFAdd, fopFMul, fopPopc, fopBrev, fopFlo}
	rowTernOps = []fastOp{fopImadLo, fopImadHiS, fopImadHiU, fopIAdd3, fopLea, fopFFma, fopLop3}
	rowSelOps  = []fastOp{fopSel, fopIMnMxS, fopIMnMxU, fopFMnMx}
	rowCmps    = []fastCmp{fcF, fcT, fcEQ, fcNE, fcLTS, fcLES, fcGTS, fcGES, fcLTU, fcLEU, fcGTU, fcGEU,
		fcFEQ, fcFNE, fcFLT, fcFLE, fcFGT, fcFGE, fcFNum, fcFNan}
)

// rowPoison is what every output row holds before a kernel writes it.
var rowPoison = laneRow(func(l uint) uint32 { return 0xdead0000 | uint32(l) })

// checkRow runs one row-producing primitive both ways, with out distinct from
// every source and then aliasing each of the srcs in turn.
func checkRow(t testing.TB, name string, srcs []*regRow, kernel, generic func(out *regRow, srcs []*regRow)) {
	t.Helper()
	want := rowPoison
	generic(&want, srcs)
	got := rowPoison
	kernel(&got, srcs)
	if got != want {
		t.Errorf("%s: kernel and portable loop differ\n srcs %#x\n got  %#x\n want %#x", name, derefRows(srcs), got, want)
		return
	}
	for i := range srcs {
		for _, f := range []func(*regRow, []*regRow){kernel, generic} {
			copies := make([]regRow, len(srcs))
			aliased := make([]*regRow, len(srcs))
			for j := range srcs {
				copies[j] = *srcs[j]
				aliased[j] = &copies[j]
				if srcs[j] == srcs[i] {
					aliased[j] = &copies[i] // sources that were one row stay one row
				}
			}
			f(aliased[i], aliased)
			if copies[i] != want {
				t.Errorf("%s: out aliasing source %d: got %#x, want %#x", name, i, copies[i], want)
				return
			}
		}
	}
}

func derefRows(rs []*regRow) []regRow {
	out := make([]regRow, len(rs))
	for i, r := range rs {
		out[i] = *r
	}
	return out
}

// The registers and predicates of a one-op program: the operand triple's
// rows, a destination apart from them, the select-shaped ops' predicate
// source and the compares' destination.
const (
	ooX, ooY, ooZ, ooDst = 1, 2, 3, 4
	ooSelPred, ooSetPred = 0, 1
)

// oneOpRig runs one row op at a time on one warp and block slot.
type oneOpRig struct {
	blk  *blockCtx
	plan xplan
	w    warp
}

func newOneOpRig() *oneOpRig {
	r := &oneOpRig{plan: xplan{ops: make([]rowOp, 1), arena: make([]regRow, 1)}}
	r.blk = &blockCtx{dev: &Device{Mem: NewMemory()}}
	r.blk.setPlan(&r.plan)
	return r
}

// oneOp encodes a row op over the rig's registers: the destination register
// dst (the destination predicate for rsSetP, whose comparison passes through)
// and register sources, the unused ones reading the arena's zero row.
func oneOp(shape, kern, lut uint8, dst int, srcs ...int) rowOp {
	op := rowOp{shape: shape, kern: kern, lut: lut, dst: uint32(dst) * rowBytes, pred: rowPred{sel: rpPred, reg: ooSelPred}}
	if shape == rsSetP {
		op.dst = uint32(dst) * 4
	}
	for i := range op.src {
		op.src[i] = rowOperand{base: rbArena}
		if i < len(srcs) {
			op.src[i] = rowOperand{off: uint32(srcs[i]) * rowBytes, base: rbRegs}
		}
	}
	op.hand = op.handler()
	return op
}

// oneOpObs is what a one-op program leaves: the rig's registers and the
// predicates.
type oneOpObs struct {
	regs  [ooDst + 1]regRow
	preds [sass.NumPreds]uint32
}

// run executes op once for the lanes in atPC through rows, from the operand
// triple s, a poisoned destination and the predicate source pm.
func (r *oneOpRig) run(t testing.TB, rows rowRunner, op rowOp, s *[3]regRow, pm, atPC uint32) (obs oneOpObs) {
	t.Helper()
	w := &r.w
	w.regs[ooX], w.regs[ooY], w.regs[ooZ], w.regs[ooDst] = s[0], s[1], s[2], rowPoison
	w.preds[ooSelPred], w.preds[ooSetPred] = pm, 0x5a5a5a5a
	r.plan.ops[0] = op
	threads, at, kind, _ := rows(r.blk, w, 0, 1, atPC, nil)
	if at != 1 || kind != 0 || threads != uint64(popcount(atPC)) {
		t.Fatalf("a one-op program of shape %d kernel %d under %#x stopped at %d with trap %v after %d threads", op.shape, op.kern, atPC, at, kind, threads)
	}
	copy(obs.regs[:], w.regs[:])
	obs.preds = w.preds
	return obs
}

// check runs op as a one-op program through the dispatcher and through the
// portable executor, under the full mask and under m, and returns the full
// mask's result row. An op without a handler (a kernel AVX2 lacks) runs on
// the portable executor everywhere, so both sides are that.
func (r *oneOpRig) check(t testing.TB, name string, op rowOp, s *[3]regRow, pm, m uint32) regRow {
	t.Helper()
	rows := dispatchRows
	if !op.dispatchable() {
		rows = portableRows
	}
	var full oneOpObs
	for _, atPC := range []uint32{fullMask, m} {
		got := r.run(t, rows, op, s, pm, atPC)
		want := r.run(t, portableRows, op, s, pm, atPC)
		if got != want {
			t.Errorf("%s under %#x: dispatcher and portable executor differ\n srcs %#x\n got  %#x %#x\n want %#x %#x",
				name, atPC, *s, got.regs, got.preds, want.regs, want.preds)
		}
		if atPC == fullMask {
			full = want
		}
	}
	return full.regs[op.dst/rowBytes]
}

// checkRowKernels runs every primitive on one operand triple under one mask
// and one truth table: the ALU ops with the destination apart from the
// sources and then aliasing each, the compares on x, y and on x twice.
func checkRowKernels(t testing.TB, rig *oneOpRig, s *[3]regRow, m uint32, lut uint8) {
	t.Helper()
	x, y, z := &s[0], &s[1], &s[2]

	alu := func(name string, shape uint8, op fastOp, srcs ...int) {
		ref := rig.check(t, name, oneOp(shape, uint8(op), lut, ooDst, srcs...), s, m, m)
		for _, d := range srcs {
			if got := rig.check(t, name, oneOp(shape, uint8(op), lut, d, srcs...), s, m, m); got != ref {
				t.Errorf("%s: out aliasing R%d: got %#x, want %#x", name, d, got, ref)
			}
		}
	}
	for _, op := range rowBinOps {
		alu(fmt.Sprintf("rowBin op %d", op), rsBin, op, ooX, ooY)
		alu(fmt.Sprintf("rowBin op %d, x twice", op), rsBin, op, ooX, ooX)
	}
	for _, op := range rowTernOps {
		shape := rsTern
		if op == fopLop3 {
			shape = rsLop3
		}
		alu(fmt.Sprintf("rowTern op %d lut %#x", op, lut), shape, op, ooX, ooY, ooZ)
	}
	for _, op := range rowSelOps {
		alu(fmt.Sprintf("rowSel op %d pm %#x", op, m), rsSel, op, ooX, ooY)
	}
	// MUFU on x, and on x with every argument SIN and COS leave to Go moved
	// into their range (the top exponent bit cleared), so their handlers run
	// on every row.
	tame := *s
	for l, v := range tame[0] {
		if v&0x7fffffff >= 0x4e000000 {
			tame[0][l] = v ^ 0x40000000
		}
	}
	for _, fn := range rowMufuHandled {
		for _, ops := range []*[3]regRow{s, &tame} {
			name := fmt.Sprintf("MUFU.%v", fn)
			ref := rig.check(t, name, oneOp(rsCvt, cvMufu, uint8(fn), ooDst, ooX), ops, m, m)
			if got := rig.check(t, name, oneOp(rsCvt, cvMufu, uint8(fn), ooX, ooX), ops, m, m); got != ref {
				t.Errorf("%s: out aliasing x: got %#x, want %#x", name, got, ref)
			}
		}
	}
	for _, mode := range []uint8{fnInt, fnFloat} {
		checkRow(t, fmt.Sprintf("rowNeg mode %d", mode), []*regRow{x},
			func(out *regRow, s []*regRow) { rowNeg(mode, out, s[0]) },
			func(out *regRow, s []*regRow) { rowNegGeneric(mode, out, s[0]) })
	}
	for _, cmp := range rowCmps {
		rig.check(t, fmt.Sprintf("cmpMask %d", cmp), oneOp(rsSetP, uint8(cmp), 0, ooSetPred, ooX, ooY), s, m, m)
		rig.check(t, fmt.Sprintf("cmpMask %d, x twice", cmp), oneOp(rsSetP, uint8(cmp), 0, ooSetPred, ooX, ooX), s, m, m)
	}

	var got, want regRow
	rowBroadcast(&got, x[0])
	rowBroadcastGeneric(&want, x[0])
	if got != want {
		t.Errorf("rowBroadcast(%#x): %#x", x[0], got)
	}
	var k regRow
	rowExpandMask(&k, m)
	rowExpandMaskGeneric(&want, m)
	if k != want {
		t.Errorf("rowExpandMask(%#x): %#x, portable %#x", m, k, want)
	}
	k = want
	got, want = *x, *x
	rowMerge(&got, y, &k)
	rowMergeGeneric(&want, y, &k)
	if got != want {
		t.Errorf("rowMerge mask %#x: %#x, portable %#x", m, got, want)
	}
	if rowMerge(&got, &got, &k); got != want {
		t.Errorf("rowMerge mask %#x onto itself changed the row", m)
	}

	if m == 0 {
		return // the memory tier never runs an empty mask
	}
	// The unit-stride test, on a row that is unit-stride under m (other lanes
	// arbitrary), then with one active lane knocked off the run.
	first := bits.TrailingZeros32(m)
	for _, stride := range []uint32{4, 8, z[1]} {
		addr := *x
		base := y[0]
		for l := range addr {
			if m>>uint(l)&1 != 0 {
				addr[l] = base + uint32(l)*stride
			}
		}
		for _, a := range []*regRow{&addr, x} {
			w := a[first] - uint32(first)*stride
			if got, want := rowStrideDiff(a, &k, w, stride) != 0, rowStrideDiffGeneric(a, &k, w, stride) != 0; got != want {
				t.Errorf("rowStrideDiff mask %#x stride %d: off-run %v, portable %v\n addr %#x", m, stride, got, want, *a)
			}
		}
		if rowStrideDiff(&addr, &k, base, stride) != 0 {
			t.Errorf("rowStrideDiff mask %#x stride %d: a unit-stride row reads off-run", m, stride)
		}
		last := 31 - bits.LeadingZeros32(m)
		addr[last] ^= 1 << (z[2] % 32)
		if rowStrideDiff(&addr, &k, base, stride) == 0 {
			t.Errorf("rowStrideDiff mask %#x stride %d: lane %d off the run went unseen", m, stride, last)
		}
	}
	checkRowMoves(t, x, y, m, &k)
}

// checkRowMoves runs the masked .32 (and, through checkRowMoves64, .64) load
// and store over a window that starts
// exactly at the first active lane's word and ends exactly at the last one's,
// inside a buffer poisoned on both sides: the guard bytes, and the window
// bytes of inactive lanes, must come through untouched, as must the inactive
// lanes of a loaded row.
func checkRowMoves(t testing.TB, data, prior *regRow, m uint32, k *regRow) {
	t.Helper()
	first, last := bits.TrailingZeros32(m), 31-bits.LeadingZeros32(m)
	const guard = 160 // more than a whole row either side
	n := 4 * (last - first + 1)
	fresh := func() []byte {
		buf := make([]byte, guard+n+guard)
		for i := range buf {
			buf[i] = byte(0xa0 + i%23)
		}
		return buf
	}

	bufK, bufG := fresh(), fresh()
	rowStore32(bufK[guard:guard+n], data, m, k)
	rowStore32Generic(bufG[guard:guard+n], data, m)
	if !bytes.Equal(bufK, bufG) {
		t.Errorf("rowStore32 mask %#x: buffer differs from the portable loop's\n got  %x\n want %x", m, bufK, bufG)
	}
	poison := fresh()
	for l := 0; l < WarpSize; l++ {
		if i := guard + 4*(l-first); m>>uint(l)&1 != 0 {
			binary.LittleEndian.PutUint32(poison[i:], data[l])
		}
	}
	if !bytes.Equal(bufG, poison) {
		t.Errorf("rowStore32Generic mask %#x wrote outside its active lanes", m)
	}

	before := append([]byte(nil), bufG...)
	gotRow, wantRow := *prior, *prior
	rowLoad32(&gotRow, bufG[guard:guard+n], m, k)
	rowLoad32Generic(&wantRow, bufG[guard:guard+n], m)
	if gotRow != wantRow {
		t.Errorf("rowLoad32 mask %#x: %#x, portable %#x", m, gotRow, wantRow)
	}
	for l := range wantRow {
		want := prior[l]
		if m>>uint(l)&1 != 0 {
			want = data[l]
		}
		if wantRow[l] != want {
			t.Errorf("rowLoad32Generic mask %#x: lane %d = %#x, want %#x", m, l, wantRow[l], want)
		}
	}
	if !bytes.Equal(bufG, before) {
		t.Errorf("rowLoad32 mask %#x wrote to its window", m)
	}
	checkRowMoves64(t, data, prior, m, k)
}

// checkRowMoves64 is checkRowMoves for the .64 moves: lane l's double word
// is data[l] (low) and prior[l] (high), at 8*(l-first) in the window.
func checkRowMoves64(t testing.TB, data, prior *regRow, m uint32, k *regRow) {
	t.Helper()
	first, last := bits.TrailingZeros32(m), 31-bits.LeadingZeros32(m)
	const guard = 288 // more than a whole .64 row either side
	n := 8 * (last - first + 1)
	fresh := func() []byte {
		buf := make([]byte, guard+n+guard)
		for i := range buf {
			buf[i] = byte(0x51 + i%29)
		}
		return buf
	}

	bufK, bufG := fresh(), fresh()
	rowStore64(bufK[guard:guard+n], data, prior, m, k)
	rowStore64Generic(bufG[guard:guard+n], data, prior, m)
	if !bytes.Equal(bufK, bufG) {
		t.Errorf("rowStore64 mask %#x: buffer differs from the portable loop's\n got  %x\n want %x", m, bufK, bufG)
	}
	poison := fresh()
	for l := 0; l < WarpSize; l++ {
		if i := guard + 8*(l-first); m>>uint(l)&1 != 0 {
			binary.LittleEndian.PutUint64(poison[i:], uint64(prior[l])<<32|uint64(data[l]))
		}
	}
	if !bytes.Equal(bufG, poison) {
		t.Errorf("rowStore64Generic mask %#x wrote outside its active lanes", m)
	}

	before := append([]byte(nil), bufG...)
	var gotLo, gotHi, wantLo, wantHi regRow
	for l := range gotLo {
		gotLo[l], gotHi[l] = ^prior[l], prior[l]^0x5a5a5a5a
	}
	wantLo, wantHi = gotLo, gotHi
	rowLoad64(&gotLo, &gotHi, bufG[guard:guard+n], m, k)
	rowLoad64Generic(&wantLo, &wantHi, bufG[guard:guard+n], m)
	if gotLo != wantLo || gotHi != wantHi {
		t.Errorf("rowLoad64 mask %#x: %#x / %#x, portable %#x / %#x", m, gotLo, gotHi, wantLo, wantHi)
	}
	for l := range wantLo {
		lo, hi := ^prior[l], prior[l]^0x5a5a5a5a
		if m>>uint(l)&1 != 0 {
			lo, hi = data[l], prior[l]
		}
		if wantLo[l] != lo || wantHi[l] != hi {
			t.Errorf("rowLoad64Generic mask %#x: lane %d = %#x / %#x, want %#x / %#x", m, l, wantLo[l], wantHi[l], lo, hi)
		}
	}
	if !bytes.Equal(bufG, before) {
		t.Errorf("rowLoad64 mask %#x wrote to its window", m)
	}
}

// TestRowKernelsMatchGeneric: every primitive, platform kernel against
// portable loop — the ALU, compare and MUFU kernels as one-op row programs —
// on the edge-value cross product, MUFU's edges and random rows, under the 33
// contiguous and 64 random masks, every LOP3 truth table, out aliasing each
// source.
func TestRowKernelsMatchGeneric(t *testing.T) {
	rig := newOneOpRig()
	rng := rand.New(rand.NewSource(22))
	masks := rowMaskSet(rng)
	sets := rowOperandSets(rng, 48)
	// MUFU's edges in x, in front: the last 48 sets stay the random ones.
	var edges [][3]regRow
	for i, v := range mufuEdges() {
		if i%WarpSize == 0 {
			edges = append(edges, sets[len(sets)-1-len(edges)])
		}
		edges[len(edges)-1][0][i%WarpSize] = v
	}
	sets = append(edges, sets...)
	for i := range sets {
		m := masks[i%len(masks)]
		checkRowKernels(t, rig, &sets[i], m, uint8(37*i+0x96))
		if t.Failed() {
			t.Fatalf("operand set %d, mask %#x", i, m)
		}
	}
	// Every mask and every truth table at least once, on random operands.
	for i := 0; i < 256; i++ {
		s := &sets[len(sets)-1-i%48]
		checkRowKernels(t, rig, s, masks[i%len(masks)], uint8(i))
		if t.Failed() {
			t.Fatalf("mask %#x, lut %#x", masks[i%len(masks)], i)
		}
	}
}

// FuzzRowKernels feeds the same comparison arbitrary rows: 384 bytes of
// operands, then the mask and the truth table.
func FuzzRowKernels(f *testing.F) {
	seed := func(s *[3]regRow, m uint32, lut uint8) {
		var b []byte
		for r := range s {
			for _, v := range s[r] {
				b = binary.LittleEndian.AppendUint32(b, v)
			}
		}
		f.Add(append(binary.LittleEndian.AppendUint32(b, m), lut))
	}
	rng := rand.New(rand.NewSource(7))
	sets := rowOperandSets(rng, 2)
	for i := range sets {
		seed(&sets[i], rng.Uint32()|1<<uint(i%32), uint8(rng.Uint32()))
	}
	seed(&sets[0], fullMask, 0xe8)
	seed(&sets[1], 1<<31, 0x96)
	edges := sets[2]
	copy(edges[0][:], mufuEdges()[16:]) // ±2^29 and the first multiples of π/4
	seed(&edges, 0x7ffe7ffe, 0)
	f.Fuzz(func(t *testing.T, data []byte) {
		const need = 3*4*WarpSize + 5
		if len(data) < need {
			t.Skip()
		}
		var s [3]regRow
		for r := range s {
			for l := range s[r] {
				s[r][l] = binary.LittleEndian.Uint32(data[4*(r*WarpSize+l):])
			}
		}
		checkRowKernels(t, newOneOpRig(), &s, binary.LittleEndian.Uint32(data[need-5:]), data[need-1])
	})
}
