package gpu

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sass"
)

// The row tier's global accesses (LDG/STG .32 and .64) against the
// interpreter, inside dispatcher stretches: every address pattern the fast
// path must refuse or accept, on pages in each copy-on-write state, with the
// allocation memo in each state, and at every position of a stretch.

// progMemory is the device memory the global-access lists run over, built
// afresh for every run. Allocation 1 is the buffer under test, its pages in
// every state: 0 and 3 shared with a snapshot, 1 written since the snapshot
// (private), 2 never written, and 4 a private partial page at the end.
// Allocations 0 and 2 are its neighbours, 3 a second, private buffer.
type progMemory struct {
	memo      uint32               // Memory.lastHit of the built memory
	keep      int                  // when set, how many allocations the table keeps: the dropped entries stay in its backing array
	snaps     map[*Memory]*memSnap // the snapshot each built memory shares pages with
	snapBytes []byte               // what every such snapshot's pages hold
}

const (
	gmemBuf    = 4*memPageSize + 256 // allocation 1's size
	gmemBufIdx = 1                   // its index in the allocation table
	gmemTwoIdx = 3                   // the second buffer's
)

// gmemFill is what the built memories' written bytes hold: addr's byte is
// gmemFill[addr%memPageSize + i] for the i-th byte of its write.
var gmemFill = func() []byte {
	b := make([]byte, 2*memPageSize+memPageSize)
	rand.New(rand.NewSource(5)).Read(b)
	return b
}()

// gmemBases are the allocations' base addresses: the bump allocator makes
// them the same in every build.
var gmemBases = func() (b [4]uint32) {
	next := uint32(allocBase)
	for i, size := range []uint32{64, gmemBuf, 64, memPageSize} {
		b[i] = next
		next += (size + allocAlign - 1) &^ (allocAlign - 1)
	}
	return b
}()

func (pm *progMemory) build(tb testing.TB) *Memory {
	tb.Helper()
	m := NewMemory()
	for i, size := range []int{64, gmemBuf, 64, memPageSize} {
		if b, err := m.Alloc(size); err != nil || b != gmemBases[i] {
			tb.Fatalf("allocation %d at %#x (%v), want %#x", i, b, err, gmemBases[i])
		}
	}
	fill := func(addr uint32, n int) {
		if err := m.WriteBytes(addr, gmemFill[addr%memPageSize:][:n]); err != nil {
			tb.Fatal(err)
		}
	}
	buf := gmemBases[gmemBufIdx]
	fill(gmemBases[0], 64)
	fill(buf, 2*memPageSize)
	fill(buf+3*memPageSize, memPageSize)
	fill(gmemBases[2], 64)
	snap := m.snapshot()
	fill(buf+memPageSize, memPageSize)
	fill(buf+4*memPageSize, 256)
	fill(gmemBases[gmemTwoIdx], memPageSize)
	m.lastHit = pm.memo
	if pm.keep > 0 {
		m.allocs = m.allocs[:pm.keep]
	}
	if pm.snaps == nil {
		pm.snaps = map[*Memory]*memSnap{}
		for _, a := range snap.allocs {
			for _, p := range a.pages {
				pm.snapBytes = append(pm.snapBytes, p...) // the materialized pages, whole
			}
		}
	}
	pm.snaps[m] = snap
	return m
}

// memObs is what a run leaves in memory: every allocation's bytes, every
// page's state — 'n' never written, 'p' private, 's' shared with the
// snapshot — and the allocation memo.
type memObs struct {
	bytes, pages []byte
	memo         uint32
}

func observeMem(m *Memory) memObs {
	o := memObs{memo: m.lastHit}
	for i := range m.allocs {
		a := &m.allocs[i]
		for pg := range a.pages {
			b := a.readPage(uint32(pg))
			o.bytes = append(o.bytes, b[:min(memPageSize, a.size-uint32(pg)*memPageSize)]...)
			switch {
			case a.pages[pg] == nil:
				o.pages = append(o.pages, 'n')
			case a.shared[pg]:
				o.pages = append(o.pages, 's')
			default:
				o.pages = append(o.pages, 'p')
			}
		}
	}
	return o
}

// observe is observeMem, after checking that the run left the snapshot its
// memory shares pages with as it was taken.
func (pm *progMemory) observe(tb testing.TB, m *Memory) memObs {
	tb.Helper()
	if snap := pm.snaps[m]; snap != nil {
		delete(pm.snaps, m)
		var got []byte
		for _, a := range snap.allocs {
			for _, p := range a.pages {
				got = append(got, p...)
			}
		}
		if !bytes.Equal(got, pm.snapBytes) {
			tb.Fatalf("a run wrote through to the snapshot its memory shares pages with")
		}
	}
	return observeMem(m)
}

// diffMem compares two runs' memories; the allocation memo only when both ran
// the row tier (the interpreter looks up every lane, the row tier a span).
func (h *progHarness) diffMem(label string, instrs []sass.Instr, got, want memObs, memo bool) {
	h.tb.Helper()
	if i := firstDiff(got.bytes, want.bytes); i >= 0 {
		h.tb.Fatalf("%s: memory byte %d = %#x, want %#x%s", label, i, got.bytes[i], want.bytes[i], describe(instrs))
	}
	if !bytes.Equal(got.pages, want.pages) {
		h.tb.Fatalf("%s: page states %s, want %s%s", label, got.pages, want.pages, describe(instrs))
	}
	if memo && got.memo != want.memo {
		h.tb.Fatalf("%s: allocation memo %#x, want %#x%s", label, got.memo, want.memo, describe(instrs))
	}
}

func firstDiff(a, b []byte) int {
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// gmemPattern is one lane address pattern: lane l's address, for an access of
// the given stride aimed at page start b of the buffer.
type gmemPattern struct {
	name string
	addr func(b uint32, l int) uint32
}

// gmemPatterns are the 19 address patterns — coalesced, misaligned,
// page-straddling (by many lanes or the last one alone), at the allocation's
// tail and past it (by many lanes or the last one alone), before its head,
// unmapped, wrapping around the address space, reversed, strided, scattered,
// conflicting, coalesced but for one misaligned or one out-of-bounds lane,
// and one address for every lane (a load's broadcast), misaligned, or but for
// one lane.
func gmemPatterns(stride uint32) []gmemPattern {
	buf := gmemBases[gmemBufIdx]
	end := buf + gmemBuf
	s := stride
	return []gmemPattern{
		{"coalesced", func(b uint32, l int) uint32 { return b + 64 + s*uint32(l) }},
		{"coalesced-misaligned", func(b uint32, l int) uint32 { return b + 66 + s*uint32(l) }},
		{"page-straddle", func(b uint32, l int) uint32 { return b + memPageSize - 5*s + s*uint32(l) }},
		{"alloc-tail", func(_ uint32, l int) uint32 { return end - 32*s + s*uint32(l) }},
		{"oob-tail", func(_ uint32, l int) uint32 { return end - 20*s + s*uint32(l) }},
		{"oob-last-lane", func(_ uint32, l int) uint32 { return end - 31*s + s*uint32(l) }},
		{"straddle-last-lane", func(b uint32, l int) uint32 { return b + memPageSize - 31*s + s*uint32(l) }},
		{"oob-head", func(_ uint32, l int) uint32 { return buf - 3*s + s*uint32(l) }},
		{"unmapped", func(_ uint32, l int) uint32 { return 0x40 + s*uint32(l) }},
		{"wraparound", func(_ uint32, l int) uint32 { return s*uint32(l) - 16*s }},
		{"reversed", func(b uint32, l int) uint32 { return b + 1024 - s*uint32(l) }},
		{"strided", func(b uint32, l int) uint32 { return b + 3*s*uint32(l) }},
		{"scattered", func(b uint32, l int) uint32 { return b + s*uint32(l*2654435761>>20%1000) }},
		{"conflict", func(b uint32, l int) uint32 { return b + 512 + s*uint32(l%3) }},
		{"one-misaligned-lane", func(b uint32, l int) uint32 {
			if l == 17 {
				return b + 64 + s*17 + 1
			}
			return b + 64 + s*uint32(l)
		}},
		{"one-oob-lane", func(b uint32, l int) uint32 {
			if l == 9 {
				return end
			}
			return b + 64 + s*uint32(l)
		}},
		{"uniform", func(b uint32, _ int) uint32 { return b + 128 }},
		{"uniform-misaligned", func(b uint32, _ int) uint32 { return b + 130 }},
		{"uniform-but-one", func(b uint32, l int) uint32 {
			if l == 21 {
				return b + 128 + s
			}
			return b + 128
		}},
	}
}

// gmemAccess is one global-access shape, built for a memory offset.
type gmemAccess struct {
	name  string
	in    func(off int32) sass.Instr
	basic bool // run at every stretch position and on every page state
}

const gmemAddr, gmemVal, gmemDst = 4, 6, 10 // address, store value and load destination registers

func gmemAccesses(width uint8) []gmemAccess {
	ld := func(d, base sass.RegID) func(int32) sass.Instr {
		return func(off int32) sass.Instr {
			in := sass.NewInstr(sass.MustOp("LDG"), sass.R(d), sass.Mem(base, off))
			in.Mods.Width = width
			return in
		}
	}
	st := func(v sass.Operand) func(int32) sass.Instr {
		return func(off int32) sass.Instr {
			in := sass.NewInstr(sass.MustOp("STG"), sass.Mem(gmemAddr, off), v)
			in.Mods.Width = width
			return in
		}
	}
	return []gmemAccess{
		{"LDG", ld(gmemDst, gmemAddr), true},
		{"STG-reg", st(sass.R(gmemVal)), true},
		{"LDG-dst-is-addr", ld(gmemAddr, gmemAddr), false},
		{"LDG-dst-hi-is-addr", ld(gmemAddr-1, gmemAddr), false},
		{"LDG-hi-on-RZ", ld(sass.RZ-1, gmemAddr), false},
		{"LDG-absolute", ld(gmemDst, sass.RZ), false},
		{"STG-addr-reg", st(sass.R(gmemAddr)), false},
		{"STG-imm", st(sass.Imm(0xcafef00d)), false},
		{"STG-const", st(sass.C0(sass.ConstNtidX)), false},
		{"STG-warpid", st(sass.SR(sass.SRWarpID)), false},
		{"STG-RZ", st(sass.R(sass.RZ)), false},
		{"STG-pair-on-RZ", st(sass.R(sass.RZ - 1)), false},
	}
}

// gmemStretch places the access first, in the middle or last of a three-op
// stretch whose other ops read and write registers of their own.
func gmemStretch(access sass.Instr, pos int) []sass.Instr {
	list := []sass.Instr{
		sass.NewInstr(sass.MustOp("IADD"), sass.R(20), sass.R(21), sass.R(22)),
		sass.NewInstr(sass.MustOp("FFMA"), sass.R(23), sass.R(24), sass.R(25), sass.R(26)),
	}
	return append(list[:pos], append([]sass.Instr{access}, list[pos:]...)...)
}

// TestRowTierGlobalAccess holds LDG/STG .32/.64 to the interpreter — through
// the dispatcher (on amd64 with AVX2) and the portable executor, bit for bit,
// and both against the interpreter — on the 19 address patterns, at the
// first, a middle and the last position of a stretch, on shared, private and
// never-written pages, with and without a memory offset, under every mask:
// registers, memory bytes and page states, the snapshot's bytes, trap kind,
// fault address, and the thread count and tally of the ops before a fault.
// Then the allocation memo: hit on its newer slot, on its older one, and on
// neither (the fast path leaves it to Go, which refreshes it).
func TestRowTierGlobalAccess(t *testing.T) {
	h := newProgHarness(t, 6)
	h.masks = append(h.masks, 0)
	buf := gmemBases[gmemBufIdx]
	for _, width := range []uint8{4, 8} {
		for _, ac := range gmemAccesses(width) {
			for _, pat := range gmemPatterns(uint32(width)) {
				positions, pages := []int{0, 1, 2}, []uint32{0, 1, 2}
				if !ac.basic || progQuick() {
					positions, pages = []int{1}, []uint32{1}
				}
				t.Run(fmt.Sprintf("%s.%d/%s", ac.name, 8*width, pat.name), func(t *testing.T) {
					h.tb = t
					for _, pg := range pages {
						b := buf + pg*memPageSize
						for _, off := range []int32{0, -8} {
							for l := range h.base.regs[gmemAddr] {
								h.base.regs[gmemAddr][l] = pat.addr(b, l) - uint32(off)
							}
							in := ac.in(off)
							if in.Src[0].Reg == sass.RZ && in.Op == sass.MustOp("LDG") {
								in.Src[0].Off = int32(pat.addr(b, 0)) // the absolute form, aimed at the pattern
							}
							h.mem = &progMemory{memo: gmemBufIdx | gmemTwoIdx<<16}
							for _, pos := range positions {
								list := gmemStretch(in, pos)
								plan := h.check(list, false)
								if ac.name != "LDG-hi-on-RZ" {
									h.wantStretch(plan, list)
								}
							}
						}
					}
				})
			}
		}
	}

	for _, memo := range []struct {
		name string
		mem  progMemory
		at   uint32 // the access's first address
	}{
		{"newer", progMemory{memo: gmemBufIdx | gmemTwoIdx<<16}, buf + memPageSize + 64},
		{"older", progMemory{memo: gmemTwoIdx | gmemBufIdx<<16}, buf + memPageSize + 64},
		{"neither", progMemory{memo: 0 | 2<<16}, buf + memPageSize + 64},
		// Both slots past the table, whose backing array still holds the
		// dropped entries: the access is to an address no longer mapped.
		{"stale", progMemory{memo: gmemTwoIdx | gmemTwoIdx<<16, keep: 2}, gmemBases[gmemTwoIdx] + 64},
	} {
		for _, width := range []uint8{4, 8} {
			for _, ac := range gmemAccesses(width)[:2] {
				t.Run(fmt.Sprintf("memo-%s/%s.%d", memo.name, ac.name, 8*width), func(t *testing.T) {
					h.tb = t
					for l := range h.base.regs[gmemAddr] {
						h.base.regs[gmemAddr][l] = memo.at + uint32(width)*uint32(l)
					}
					h.mem = &memo.mem
					list := gmemStretch(ac.in(0), 1)
					plan := h.check(list, false)
					obs := h.runPlan(plan, len(list), fullMask, false, dispatchRows)
					switch {
					case memo.name == "stale":
						if obs.trap.kind != TrapIllegalAddress {
							t.Errorf("an access past the table stopped with %+v, want an illegal address", obs.trap)
						}
					case memo.name == "neither":
						if obs.mem.memo&0xffff != gmemBufIdx {
							t.Errorf("a memo miss left the memo at %#x: Go's lookup refreshes it", obs.mem.memo)
						}
					case obs.mem.memo != memo.mem.memo:
						t.Errorf("a memo hit moved the memo from %#x to %#x", memo.mem.memo, obs.mem.memo)
					}
				})
			}
		}
	}
}
