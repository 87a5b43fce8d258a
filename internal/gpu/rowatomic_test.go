package gpu

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/sass"
)

// The row tier's atomics (RED and ATOM over global memory, rsRed and rsAtom)
// against the interpreter: every operation on the address patterns of the
// global accesses, with the results the interpreter leaves — lanes on one
// word serialised in lane order, the first faulting lane's trap with every
// lane below it committed, a destination that aliases the address or the
// value written after the lane read them.

// gatomSwap is CAS's swap register; the address, the value and an ATOM's own
// destination are the global accesses' gmemAddr, gmemVal and gmemDst.
const gatomSwap = 7

// gatomOps are the atomic operations, .ADD.F32 among them.
var gatomOps = []struct {
	name  string
	op    sass.AtomOp
	float bool
}{
	{"ADD", sass.AtomAdd, false}, {"ADD.F32", sass.AtomAdd, true},
	{"MIN", sass.AtomMin, false}, {"MAX", sass.AtomMax, false},
	{"AND", sass.AtomAnd, false}, {"OR", sass.AtomOr, false}, {"XOR", sass.AtomXor, false},
	{"EXCH", sass.AtomExch, false}, {"CAS", sass.AtomCAS, false},
}

// gatomForm is RED, or ATOM into a register of its own or onto a source.
type gatomForm struct {
	name string
	red  bool
	dst  sass.RegID
}

var gatomForms = []gatomForm{
	{"RED", true, 0},
	{"ATOM", false, gmemDst},
	{"ATOM-dst-is-addr", false, gmemAddr},
	{"ATOM-dst-is-value", false, gmemVal},
	{"ATOM-dst-is-swap", false, gatomSwap},
}

// gatomInstr builds the atomic of form f with operation op at [gmemAddr+off].
func gatomInstr(f gatomForm, op sass.AtomOp, float bool, off int32) sass.Instr {
	srcs := []sass.Operand{sass.Mem(gmemAddr, off), sass.R(gmemVal)}
	if op == sass.AtomCAS {
		srcs = append(srcs, sass.R(gatomSwap))
	}
	var in sass.Instr
	if f.red {
		in = sass.NewInstr(sass.MustOp("RED"), srcs...)
	} else {
		in = sass.NewInstr(sass.MustOp("ATOMG"), append([]sass.Operand{sass.R(f.dst)}, srcs...)...)
	}
	in.Mods.Atom, in.Mods.Float = op, float
	return in
}

// TestRowTierAtomic holds RED and ATOM of every operation to the interpreter —
// through runRows and the portable executor, bit for bit, and both against
// the interpreter — on the 19 address patterns of TestRowTierGlobalAccess
// (every lane on one word, distinct words, two pages, misaligned or out of
// bounds at one lane, ...), with and without a memory offset, in a stretch
// of row ops, under full, partial, single-lane and empty masks, with ATOM's
// destination its own register or aliasing the address, the value or CAS's
// swap (on ADD, EXCH and CAS): registers, memory bytes and page states, trap
// kind, fault address, the thread count and tally, and the device digest and
// allocation memo of a full-mask run. Half the lanes' CAS compares hold the
// word they find. RED.ADD.F32 runs at every stretch position and on every
// page state. Then .ADD.F32 of two NaNs: the word found wins, quieted.
func TestRowTierAtomic(t *testing.T) {
	h := newProgHarness(t, 7)
	h.masks = append(h.masks, 0)
	buf := gmemBases[gmemBufIdx]
	words := (&progMemory{}).build(t) // what each address holds before a run
	values := h.base.regs[gmemVal]
	for _, ao := range gatomOps {
		for _, form := range gatomForms {
			// ATOM onto a source on ADD, ADD.F32, EXCH and CAS; onto the swap
			// on CAS alone.
			switch {
			case form.dst == gatomSwap && ao.op != sass.AtomCAS,
				form.dst != gmemDst && !form.red && ao.op != sass.AtomAdd && ao.op != sass.AtomExch && ao.op != sass.AtomCAS:
				continue
			}
			for _, pat := range gmemPatterns(4) {
				basic := ao.float && form.red
				positions, pages := []int{0, 1, 2}, []uint32{0, 1, 2}
				if !basic || progQuick() {
					positions, pages = []int{1}, []uint32{1}
				}
				t.Run(fmt.Sprintf("%s.%s/%s", form.name, ao.name, pat.name), func(t *testing.T) {
					h.tb = t
					for _, pg := range pages {
						b := buf + pg*memPageSize
						for _, off := range []int32{0, -8} {
							h.base.regs[gmemVal] = values
							for l := range h.base.regs[gmemAddr] {
								a := pat.addr(b, l)
								h.base.regs[gmemAddr][l] = a - uint32(off)
								if v, kind := words.Load(a, 4); ao.op == sass.AtomCAS && l%2 == 0 && kind == 0 {
									h.base.regs[gmemVal][l] = uint32(v)
								}
							}
							in := gatomInstr(form, ao.op, ao.float, off)
							h.mem = &progMemory{memo: gmemBufIdx | gmemTwoIdx<<16}
							for _, pos := range positions {
								list := gmemStretch(in, pos)
								plan := h.check(list, false)
								want := rsAtom
								if form.red {
									want = rsRed
								}
								if op := &plan.ops[pos]; op.shape != want || op.dispatchable() {
									t.Fatalf("%v encodes as shape %d, handler %d: want %d, without a handler", &list[pos], op.shape, op.hand, want)
								}
								ref := h.interpret(list, fullMask)
								refDigest := h.devI.Digest()
								got := h.runPlan(plan, len(list), fullMask, false, dispatchRows)
								if gotDigest := h.dev.Digest(); gotDigest != refDigest || got.mem.memo != ref.mem.memo {
									t.Fatalf("device digest %#x, allocation memo %#x; interpreter %#x, %#x%s",
										gotDigest, got.mem.memo, refDigest, ref.mem.memo, describe(list))
								}
							}
						}
					}
				})
			}
		}
	}
	h.base.regs[gmemVal] = values

	t.Run("ADD.F32-both-NaN", func(t *testing.T) {
		const cur, val = 0x7f800001, 0xffc00002 // a signalling and a quiet NaN, different payloads
		want := math.Float32bits(quiet32(math.Float32frombits(cur)))
		if got := atomApply(sass.AtomAdd, true, cur, val, 0); got != want {
			t.Fatalf("atomApply: %#x + %#x = %#x, want %#x", cur, val, got, want)
		}
		k := mustKernel(t, ".kernel nan\n.param buf\n    MOV R1, c0[buf]\n    MOV R2, 0xffc00002\n    RED.ADD.F32 [R1], R2\n    EXIT\n", "nan")
		for _, noXlate := range []bool{false, true} {
			d := newTestDevice(t)
			d.NoXlate = noXlate
			p := mustAllocWrite(t, d, 4, binary.LittleEndian.AppendUint32(nil, cur))
			if _, err := d.Run(&Launch{Kernel: &ExecKernel{K: k}, Grid: Dim3{X: 1, Y: 1, Z: 1}, Block: Dim3{X: 1, Y: 1, Z: 1}, Params: []uint32{p}}); err != nil {
				t.Fatal(err)
			}
			b, err := d.Mem.ReadBytes(p, 4)
			if err != nil {
				t.Fatal(err)
			}
			if got := binary.LittleEndian.Uint32(b); got != want {
				t.Errorf("NoXlate=%v: RED.ADD.F32 of %#x onto %#x left %#x, want %#x", noXlate, val, cur, got, want)
			}
		}
	})
}
