//go:build amd64 && !purego

package gpu

import (
	"fmt"
	"testing"

	"repro/internal/sass"
)

// TestRowProgramGlobalFastPath pins when the dispatcher executes a global
// access itself and when it leaves the op to Go: the differential tests hold
// both outcomes to the interpreter, so a fast path that never fires would pass
// them. A coalesced, aligned access executes in the dispatcher when its span
// lies in one page of an allocation the memo names, and that page has been
// written (and, for a store, is private). Anything else — a load every lane
// makes from one address included — stops the dispatcher at the op, uncounted.
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
				{"misaligned", 1, 66, gmemBufIdx, fullMask, 1, false},
				{"strided", 1, 64, gmemBufIdx, fullMask, 2, false},
				{"uniform", 1, 64, gmemBufIdx, fullMask, 0, false},
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
