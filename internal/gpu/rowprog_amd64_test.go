//go:build amd64 && !purego

package gpu

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/sass"
)

// TestRowProgramGlobalFastPath pins when the dispatcher executes a global
// access itself and when it leaves the op to Go: the differential tests hold
// both outcomes to the interpreter, so a fast path that never fires would pass
// them. A coalesced, aligned access executes in the dispatcher when its span
// lies in one page of an allocation the memo names, and that page has been
// written (and, for a store, is private). So does a load every executing lane
// makes from one aligned address, as a broadcast. Anything else — a store to
// one address included — stops the dispatcher at the op, uncounted.
func TestRowProgramGlobalFastPath(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2: runRows is the portable executor")
	}
	h := newProgHarness(t, 7)
	buf := gmemBases[gmemBufIdx]
	for _, width := range []uint8{4, 8} {
		for _, ac := range gmemAccesses(width)[:2] {
			store := ac.name != "LDG"
			for _, c := range []struct {
				name   string
				page   uint32 // of the buffer
				at     uint32 // byte offset in the page
				memo   uint32
				mask   uint32
				stride uint32 // in widths
				fast   bool
			}{
				{"private", 1, 64, gmemBufIdx | gmemTwoIdx<<16, fullMask, 1, true},
				{"private-partial-mask", 1, 64, gmemBufIdx | gmemTwoIdx<<16, 0x7ffe7ffe, 1, true},
				{"memo-older", 1, 64, gmemTwoIdx | gmemBufIdx<<16, fullMask, 1, true},
				{"memo-neither", 1, 64, 0 | 2<<16, fullMask, 1, false},
				{"memo-stale", 1, 64, 7 | 9<<16, fullMask, 1, false},
				{"shared", 0, 64, gmemBufIdx, fullMask, 1, !store},
				{"never-written", 2, 64, gmemBufIdx, fullMask, 1, false},
				{"page-straddle", 1, memPageSize - 64, gmemBufIdx, fullMask, 1, false},
				{"page-straddle-last-lane", 1, memPageSize - 31*uint32(width), gmemBufIdx, fullMask, 1, false},
				{"page-end", 1, memPageSize - 32*uint32(width), gmemBufIdx, fullMask, 1, true},
				{"misaligned", 1, 66, gmemBufIdx, fullMask, 1, false},
				{"strided", 1, 64, gmemBufIdx, fullMask, 2, false},
				{"uniform", 1, 64, gmemBufIdx, fullMask, 0, !store},
				{"uniform-partial-mask", 1, 64, gmemBufIdx, 0x7ffe7ffe, 0, !store},
				{"uniform-memo-older", 1, 64, gmemTwoIdx | gmemBufIdx<<16, fullMask, 0, !store},
				{"uniform-memo-neither", 1, 64, 0 | 2<<16, fullMask, 0, false},
				{"uniform-shared", 0, 64, gmemBufIdx, fullMask, 0, !store},
				{"uniform-never-written", 2, 64, gmemBufIdx, fullMask, 0, false},
				{"uniform-page-end", 1, memPageSize - uint32(width), gmemBufIdx, fullMask, 0, !store},
				{"uniform-misaligned", 1, 66, gmemBufIdx, fullMask, 0, false},
				{"one-lane", 1, 64, gmemBufIdx, 1 << 5, 1, true},
				{"one-lane-misaligned", 1, 66, gmemBufIdx, 1 << 5, 1, false},
			} {
				t.Run(fmt.Sprintf("%s.%d/%s", ac.name, 8*width, c.name), func(t *testing.T) {
					for l := range h.base.regs[gmemAddr] {
						h.base.regs[gmemAddr][l] = buf + c.page*memPageSize + c.at + c.stride*uint32(width)*uint32(l)
					}
					h.mem = &progMemory{memo: c.memo}
					list := gmemStretch(ac.in(0), 1)
					k := &sass.Kernel{Name: "rows", Instrs: append(list, sass.NewInstr(sass.MustOp("EXIT")))}
					plan, err := translate(k)
					if err != nil {
						t.Fatal(err)
					}
					blk, w := h.block(plan), h.base
					mem := blk.dev.Mem
					threads, done := rowProgAVX2(blk, &w, &plan.ops[0], len(list), c.mask, nil, mem.allocs, mem.lastHit)
					want := 1 // the op before the access
					if c.fast {
						want = len(list)
					}
					if done != want {
						t.Fatalf("the dispatcher completed %d ops, want %d", done, want)
					}
					if lanes := uint64(popcount(c.mask)); threads != uint64(done)*lanes {
						t.Fatalf("%d threads counted for %d ops of %d lanes: a bailed op was counted", threads, done, lanes)
					}
				})
			}
		}
	}
}

// TestRowProgramClearsUpperHalves: the dispatcher returns to Go with the YMM
// upper halves clear, from a stretch it finishes and from one it bails out of
// at a global access, so the Go code after it (legacy-SSE scalar floats) pays
// no AVX-SSE transition. The dispatcher's exit is the stretch's one
// VZEROUPPER; its handlers have none.
func TestRowProgramClearsUpperHalves(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2: runRows is the portable executor")
	}
	if _, ok := ymmUpperInUse(); !ok {
		t.Skip("the processor does not report XINUSE")
	}
	h := newProgHarness(t, 7)
	buf := gmemBases[gmemBufIdx]
	for _, c := range []struct {
		name string
		at   uint32 // byte offset in the buffer's written page
		fast bool
	}{{"finished", 64, true}, {"bailed", 66, false}} {
		for l := range h.base.regs[gmemAddr] {
			h.base.regs[gmemAddr][l] = buf + memPageSize + c.at + 4*uint32(l)
		}
		h.mem = &progMemory{memo: gmemBufIdx}
		list := gmemStretch(gmemAccesses(4)[0].in(0), 1)
		k := &sass.Kernel{Name: "rows", Instrs: append(list, sass.NewInstr(sass.MustOp("EXIT")))}
		plan, err := translate(k)
		if err != nil {
			t.Fatal(err)
		}
		blk, w := h.block(plan), h.base
		mem := blk.dev.Mem
		_, done := rowProgAVX2(blk, &w, &plan.ops[0], len(list), fullMask, nil, mem.allocs, mem.lastHit)
		inUse, _ := ymmUpperInUse()
		if (done == len(list)) != c.fast {
			t.Fatalf("%s: the dispatcher completed %d of %d ops", c.name, done, len(list))
		}
		if inUse {
			t.Errorf("%s: the dispatcher returned with the YMM upper halves in use", c.name)
		}
	}
}

// trigCovers reports whether the SIN and COS handlers run on the float32
// argument with bits v: finite and below 2^29 in magnitude.
func trigCovers(v uint32) bool { return v&0x7fffffff < 0x4e000000 }

var mufuSweepAll = flag.Bool("mufu.all", false, "TestRowMufuExact, TestRowCvtExact: sweep all 2^32 arguments, not every 4099th")

// TestRowMufuExact holds each MUFU handler to the interpreter's mufu, the Go
// definition, bit for bit, on mufuEdges and on every 4099th float32 bit
// pattern (all 2^32 of them with -mufu.all), 32 arguments per execution. It
// calls the dispatcher itself, so it also pins when a handler runs: RCP, RSQ
// and SQRT on every argument, SIN and COS on a row whose executing lanes
// trigCovers — a row with one lane it does not stops the dispatcher at the op,
// uncounted, for Go to run. Arguments are fed to the two kinds of row apart,
// so every covered argument goes through a handler. The trig pairs, COS then
// SIN and SIN then COS of one source, run the same rows as a two-op stretch:
// one pass that completes and counts both ops, or stops at the first; and as
// a stretch of the first op alone, which runs its own function and leaves
// the second destination as it was.
func TestRowMufuExact(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2: runRows is the portable executor")
	}
	stride := uint64(4099)
	if *mufuSweepAll {
		stride = 1
	}
	cases := make([][]sass.MufuFn, 0, len(rowMufuHandled)+2)
	for _, fn := range rowMufuHandled {
		cases = append(cases, []sass.MufuFn{fn})
	}
	cases = append(cases, []sass.MufuFn{sass.MufuCos, sass.MufuSin}, []sass.MufuFn{sass.MufuSin, sass.MufuCos})
	for _, fns := range cases {
		name := fns[0].String()
		if len(fns) == 2 {
			name += "+" + fns[1].String()
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rig := newOneOpRig()
			// The ops' destinations: ooDst, then a register apart from the rig's.
			dsts := []int{ooDst, ooDst + 1}
			ops := make([]rowOp, len(fns))
			for i, fn := range fns {
				ops[i] = oneOp(rsCvt, cvMufu, uint8(fn), dsts[i], ooX)
			}
			if len(ops) == 2 {
				if ops[0].hand = ops[0].pairHandler(&ops[1]); ops[0].hand == rhNone {
					t.Fatalf("%s: no pair handler", name)
				}
			}
			trig := fns[0] == sass.MufuSin || fns[0] == sass.MufuCos
			mem := rig.blk.dev.Mem
			var rows [2]struct {
				x regRow
				n int
			}
			ran, bailed := 0, 0
			// exec runs the first n ops on row r and checks them; it returns
			// whether the dispatcher left the row to Go.
			exec := func(r *regRow, lanes, n, wantDone int) bool {
				w := &rig.w
				w.regs[ooX] = *r
				for _, d := range dsts {
					w.regs[d] = rowPoison
				}
				m := uint32(uint64(1)<<uint(lanes) - 1)
				threads, done := rowProgAVX2(rig.blk, w, &ops[0], n, m, nil, mem.allocs, mem.lastHit)
				if done != wantDone || threads != uint64(done*lanes) {
					t.Fatalf("%s of %#x, %d ops: the dispatcher completed %d ops (%d threads), want %d", name, r[:lanes], n, done, threads, wantDone)
				}
				if done == 0 {
					return true
				}
				for i, d := range dsts {
					for l := range w.regs[d] {
						want := rowPoison[l]
						if l < lanes && i < n {
							want = math.Float32bits(mufu(fns[i], math.Float32frombits(r[l])))
						}
						if got := w.regs[d][l]; got != want {
							t.Fatalf("%s, %d ops: MUFU.%v(%#x) lane %d: handler %#x, want %#x", name, n, fns[min(i, n-1)], r[l], l, got, want)
						}
					}
				}
				return false
			}
			// A pair stores its results whole under the full mask and blends
			// them under a partial one: the first full row runs both ways.
			blended := false
			run := func(i int) {
				r := &rows[i]
				if exec(&r.x, r.n, len(ops), (1-i)*len(ops)) {
					bailed += r.n
				} else {
					ran += r.n
					if len(ops) == 2 {
						exec(&r.x, r.n, 1, 1)
						if !blended && r.n == WarpSize {
							exec(&r.x, WarpSize-5, 2, 2)
							blended = true
						}
					}
				}
				r.n = 0
			}
			feed := func(v uint32) {
				i := 0
				if trig && !trigCovers(v) {
					i = 1
				}
				r := &rows[i]
				r.x[r.n] = v
				if r.n++; r.n == WarpSize {
					run(i)
				}
			}
			for _, v := range mufuEdges() {
				feed(v)
			}
			for v := uint64(0); v < 1<<32; v += stride {
				feed(uint32(v))
			}
			for i := range rows {
				if rows[i].n > 0 {
					run(i)
				}
			}
			if len(ops) == 2 && !blended {
				t.Errorf("%s: no full row ran under a partial mask", name)
			}
			t.Logf("%s: %d arguments through the handler, %d left to Go", name, ran, bailed)
		})
	}
}

// cvtEdges are the conversion arguments that separate a handler from rowCvt,
// each with its neighbours either side: as floats ±0, ±Inf, NaN payloads,
// denormals, ±0.5, ±1, ±2^31, 2^31−128 (the last float below it), 2^32 and
// the float below it; as integers the round-to-even ties of I2F and I2F.U32
// (±(2^24+1), 2^25+2 and 2^25+6, 2^31−64, 2^31+128, 2^31+384), ±2^31 and the
// extremes of either signedness.
func cvtEdges() []uint32 {
	var e []uint32
	for _, v := range []uint32{
		0, 0x80000000, 0x7f800000, 0xff800000, 0x7fc00000, 0xffc00001, 0x7f800001, 0xff812345,
		1, 0x80000001, 0x00400000, 0x807fffff,
		0x3f000000, 0xbf000000, 0x3f800000, 0xbf800000,
		0x4f000000, 0xcf000000, 0x4effffff, 0xceffffff, 0x4f800000, 0x4f7fffff, 0xcf800000,
		0x01000001, 0xfeffffff, 0x02000002, 0x02000006, 0x7fffffc0, 0x80000080, 0x80000180,
		0x7fffffff, 0xffffffff,
	} {
		e = append(e, v-1, v, v+1)
	}
	return e
}

var cvtSweepMasks = []uint32{fullMask, 0x7ffe7ffe, 1 << 13}

// TestRowCvtExact holds each conversion handler to rowCvt, bit for bit, on
// cvtEdges and on every 4099th word (all 2^32 with -mufu.all), 32 words per
// execution, each row under the full mask and under partial ones: the lanes
// the mask leaves out keep their value. A conversion runs on every argument:
// the dispatcher completes the op and counts its lanes.
func TestRowCvtExact(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2: runRows is the portable executor")
	}
	stride := uint64(4099)
	if *mufuSweepAll {
		stride = 1
	}
	for _, kern := range rowCvtHandled {
		op := oneOp(rsCvt, kern, 0, ooDst, ooX)
		name := [...]string{cvI2F: "I2F", cvI2FU: "I2F.U32", cvF2I: "F2I", cvF2IU: "F2I.U32"}[kern]
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if op.hand == rhNone {
				t.Fatalf("%s has no handler", name)
			}
			rig := newOneOpRig()
			mem := rig.blk.dev.Mem
			var x, y, want, hi regRow
			n, words := 0, 0
			run := func() {
				rowCvt(kern, 0, &want, &hi, &x, &y)
				for _, m := range cvtSweepMasks {
					w := &rig.w
					w.regs[ooX], w.regs[ooDst] = x, rowPoison
					threads, done := rowProgAVX2(rig.blk, w, &op, 1, m, nil, mem.allocs, mem.lastHit)
					if done != 1 || threads != uint64(popcount(m)) {
						t.Fatalf("%s under %#x: the dispatcher completed %d ops (%d threads)", name, m, done, threads)
					}
					for l, got := range w.regs[ooDst] {
						w := rowPoison[l]
						if m>>uint(l)&1 != 0 {
							w = want[l]
						}
						if got != w {
							t.Fatalf("%s(%#x) lane %d under %#x: handler %#x, rowCvt %#x", name, x[l], l, m, got, w)
						}
					}
				}
				words += n
				n = 0
			}
			feed := func(v uint32) {
				x[n] = v
				if n++; n == WarpSize {
					run()
				}
			}
			for _, v := range cvtEdges() {
				feed(v)
			}
			for v := uint64(0); v < 1<<32; v += stride {
				feed(uint32(v))
			}
			if n > 0 {
				for ; n < WarpSize; n++ {
					x[n] = 0
				}
				run()
			}
			t.Logf("%s: %d words", name, words)
		})
	}
}

// TestRowProgramMufuBail pins the range check of SIN and COS on the lanes
// that execute: an argument the handlers do not cover on a lane outside the
// exec mask, or under RCP, RSQ or SQRT, keeps the op in the dispatcher.
func TestRowProgramMufuBail(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2: runRows is the portable executor")
	}
	rig := newOneOpRig()
	mem := rig.blk.dev.Mem
	for _, fn := range rowMufuHandled {
		trig := fn == sass.MufuSin || fn == sass.MufuCos
		op := oneOp(rsCvt, cvMufu, uint8(fn), ooDst, ooX)
		for _, bad := range []uint32{0x7fc00000, 0xff800000, 0x4e000000, 0xce000000} {
			for _, c := range []struct {
				lane int
				m    uint32
			}{{0, fullMask}, {31, fullMask}, {17, 0x7ffe7ffe}, {16, 0x7ffe7ffe}, {3, 1 << 3}} {
				x := laneRow(func(l uint) uint32 { return math.Float32bits(float32(l) - 7.5) })
				x[c.lane] = bad
				rig.w.regs[ooX] = x
				want := 1
				if trig && c.m>>uint(c.lane)&1 != 0 {
					want = 0
				}
				if _, done := rowProgAVX2(rig.blk, &rig.w, &op, 1, c.m, nil, mem.allocs, mem.lastHit); done != want {
					t.Errorf("MUFU.%v with %#x on lane %d under %#x: the dispatcher completed %d ops, want %d", fn, bad, c.lane, c.m, done, want)
				}
			}
		}
	}
}

// TestMufuConstsMatchMathSin holds mufuConsts to what the SIN and COS handlers
// replay: each constant in all four lanes; 1, 0.5, the float64 magnitude and
// sign masks, and 4/π as Go rounds it; and π/4's three parts and the _sin and
// _cos coefficients as the running toolchain's math/sin.go writes them — its
// literals, in source order, each beside the bit pattern its comment gives.
func TestMufuConstsMatchMathSin(t *testing.T) {
	src, err := os.ReadFile(filepath.Join(runtime.GOROOT(), "src", "math", "sin.go"))
	if err != nil {
		t.Skipf("the toolchain's math/sin.go: %v", err)
	}
	lits := regexp.MustCompile(`(?m)(-?\d\.\d+e[-+]\d+),?\s*// (0x[0-9a-f]{16})`).FindAllSubmatch(src, -1)
	var sinGo []uint64
	for _, m := range lits {
		v, err := strconv.ParseFloat(string(m[1]), 64)
		if err != nil {
			t.Fatal(err)
		}
		b, err := strconv.ParseUint(string(m[2][2:]), 16, 64)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(v) != b {
			t.Fatalf("math/sin.go: %s is %#x, not its comment's %s", m[1], math.Float64bits(v), m[2])
		}
		sinGo = append(sinGo, b)
	}
	// _sin[0..5], _cos[0..5], then PI4A, PI4B, PI4C in cos and again in sin.
	if len(sinGo) != 18 {
		t.Fatalf("read %d commented constants off math/sin.go, want 18", len(sinGo))
	}
	want := map[int]uint64{
		mcOne: math.Float64bits(1), mcHalf: math.Float64bits(0.5), mcAbs: 1<<63 - 1, mcSign: 1 << 63,
		mcFourOverPi: math.Float64bits(4 / math.Pi),
		mcPi4A:       sinGo[15], mcPi4B: sinGo[16], mcPi4C: sinGo[17],
	}
	for i := range 6 {
		want[mcSin0+i], want[mcCos0+i] = sinGo[i], sinGo[6+i]
	}
	if len(want) != numMufuConsts {
		t.Fatalf("%d constants checked of %d", len(want), numMufuConsts)
	}
	for i, b := range want {
		if c := mufuConsts[i]; c != [4]uint64{b, b, b, b} {
			t.Errorf("mufuConsts[%d] = %#x, want %#x in every lane", i, c, b)
		}
	}
}
