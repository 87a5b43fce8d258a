package gpu

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/race"
	"repro/internal/sass"
)

// The row programs' differential tests. A straight-line list of row-tier
// instructions runs three ways on identical randomized warp state:
//
//   - through blockCtx.runRows, the product path — the assembly dispatcher of
//     rowprog_amd64.s on amd64 with AVX2 (elsewhere, and under -tags purego,
//     the portable executor, and the first comparison holds trivially);
//   - through blockCtx.runRowsPortable, the Go executor of the same ops — bit
//     for bit, NaN payloads included, with no canonicalisation;
//   - through the interpreter (blockCtx.exec, the path of Device.NoXlate),
//     instruction by instruction.
//
// Compared: the whole register file, every predicate mask, the thread-level
// execution count, the per-instruction tally and — for lists with global
// accesses — the trap and where it stopped the list, the memory's bytes and
// page table, and the snapshot the memory shares pages with. The second half
// of the file
// holds whole launches over a kernel made of long row runs to the reference
// loop: paused and budgeted at every position, armed at chosen sites.

// progHarness holds what a block context needs and the warp state every run
// starts from.
type progHarness struct {
	tb        testing.TB
	dev, devI *Device // the translated runs' device and the interpreter's
	launch    *Launch
	bank      []byte
	base      warp
	masks     []uint32    // the atPC masks every list runs under
	mem       *progMemory // when set, every run starts from a fresh copy of its memory
	shared    []byte      // the shared window every run starts from a copy of
}

func newProgHarness(tb testing.TB, seed int64) *progHarness {
	var devs [2]*Device
	for i := range devs {
		d, err := NewDevice(sass.FamilyVolta, 4)
		if err != nil {
			tb.Fatal(err)
		}
		d.smClocks[1] = 0x1234
		devs[i] = d
	}
	masks := progMasks
	if progQuick() {
		masks = []uint32{fullMask, 0x7ffe7ffe}
	}
	h := &progHarness{tb: tb, dev: devs[0], devI: devs[1], masks: masks, launch: &Launch{
		Grid:   Dim3{X: 4, Y: 3, Z: 2},
		Block:  Dim3{X: 8, Y: 4, Z: 2},
		Params: []uint32{0x3fc00000, 0xdeadbeef, 0x40490fdb, 0xbff00000},
	}}
	h.bank = fillConstBank(nil, h.launch)
	rng := rand.New(rand.NewSource(seed))
	w := &h.base
	w.id = 2
	w.liveMask, w.converged = fullMask, true
	for r := range w.regs {
		for l := range w.regs[r] {
			if v := rng.Uint32(); v%4 == 0 {
				w.regs[r][l] = rowEdges[v>>2%uint32(len(rowEdges))]
			} else {
				w.regs[r][l] = v
			}
		}
	}
	for p := 0; p < sass.NumPreds-1; p++ {
		w.preds[p] = rng.Uint32()
	}
	w.preds[progZeroPred] = 0
	for l := 0; l < WarpSize; l++ {
		t := 2*WarpSize + l
		w.tid[0][l], w.tid[1][l], w.tid[2][l] = uint32(t%8), uint32(t/8%4), uint32(t/32)
	}
	return h
}

// progZeroPred reads false on every lane of the harness's warp: a guard on it
// leaves an op no lane.
const progZeroPred = 5

// block returns a fresh block context bound to plan (nil: the interpreter's,
// on a device of its own), over a fresh copy of the harness's memory if it
// has one.
func (h *progHarness) block(plan *xplan) *blockCtx {
	d := h.dev
	if plan == nil {
		d = h.devI
	}
	if h.mem != nil {
		d.Mem = h.mem.build(h.tb)
	}
	blk := &blockCtx{dev: d, launch: h.launch, constBank: h.bank, smID: 1, blockIdx: Dim3{X: 3, Y: 2, Z: 1}, blockLin: 7,
		shared: bytes.Clone(h.shared)}
	blk.setPlan(plan)
	blk.fillUniforms(true)
	return blk
}

// progObs is what one execution of an instruction list leaves behind.
type progObs struct {
	w       warp
	threads uint64
	tally   []SiteTally
	trap    progTrap
	mem     memObs // with a harness memory
	shared  []byte
}

// progTrap is where a list stopped on a trap, and the trap; zero when it ran
// to its end.
type progTrap struct {
	pc   int32
	kind TrapKind
	addr uint32
}

// finish records the end of a run: the trap that stopped it, if any, and the
// memory it leaves.
func (h *progHarness) finish(obs *progObs, blk *blockCtx, trap progTrap) progObs {
	obs.trap, obs.shared = trap, blk.shared
	if h.mem != nil {
		obs.mem = h.mem.observe(h.tb, blk.dev.Mem)
	}
	return *obs
}

// rowRunner is runRows or its portable twin.
type rowRunner func(blk *blockCtx, w *warp, pc, n int32, atPC uint32, tally []SiteTally) (uint64, int32, TrapKind, uint32)

var (
	dispatchRows rowRunner = (*blockCtx).runRows
	portableRows rowRunner = (*blockCtx).runRowsPortable
)

// runPlan issues plan's instructions [0, n) for the lanes in atPC the way the
// batch loops do: every stretch of row ops through rows, anything else
// through its step, up to a trap.
func (h *progHarness) runPlan(plan *xplan, n int, atPC uint32, tallied bool, rows rowRunner) progObs {
	obs := progObs{w: h.base}
	if tallied {
		obs.tally = make([]SiteTally, len(plan.steps))
	}
	blk, w := h.block(plan), &obs.w
	for pc := int32(0); pc < int32(n); pc++ {
		xi := &plan.steps[pc]
		if run := min(xi.rowLen, int32(n)-pc); run > 0 {
			threads, at, kind, addr := rows(blk, w, pc, run, atPC, obs.tally)
			obs.threads += threads
			if kind != 0 {
				return h.finish(&obs, blk, progTrap{at, kind, addr})
			}
			if at != pc+run {
				h.tb.Fatalf("pc %d: a stretch of %d stopped at %d without a trap", pc, run, at)
			}
			pc = at - 1
			continue
		}
		m := xi.guard(w, atPC)
		lanes := uint64(popcount(m))
		obs.threads += lanes
		if _, kind, addr := xi.step(blk, w, m); kind != 0 {
			return h.finish(&obs, blk, progTrap{pc, kind, addr})
		}
		if tallied {
			obs.tally[pc].add(lanes)
		}
	}
	return h.finish(&obs, blk, progTrap{})
}

// interpret is runPlan through the interpreter.
func (h *progHarness) interpret(instrs []sass.Instr, atPC uint32) progObs {
	obs := progObs{w: h.base, tally: make([]SiteTally, len(instrs)+1)}
	blk, w := h.block(nil), &obs.w
	for pc := range instrs {
		in := &instrs[pc]
		m := guardMask(w, in, atPC)
		lanes := uint64(popcount(m))
		obs.threads += lanes
		if _, kind, addr := blk.exec(w, in, pc, m); kind != 0 {
			return h.finish(&obs, blk, progTrap{int32(pc), kind, addr})
		}
		obs.tally[pc].add(lanes)
	}
	return h.finish(&obs, blk, progTrap{})
}

// progMasks are the default atPC masks: full, one lane, the interior pattern
// a boundary exit leaves, and a partial last warp.
var progMasks = []uint32{fullMask, 1 << 13, 0x7ffe7ffe, 0x000fffff}

// progQuick trims the op-level matrices — single-goroutine arithmetic the
// race detector has nothing to say about and slows tenfold — to one full-ish
// and one partial mask and the operand diagonals.
func progQuick() bool { return race.Enabled || testing.Short() }

func describe(instrs []sass.Instr) string {
	s := ""
	for i := range instrs {
		s += fmt.Sprintf("\n  %2d  %v", i, &instrs[i])
	}
	return s
}

func (h *progHarness) diffWarps(label string, instrs []sass.Instr, got, want *warp) {
	h.tb.Helper()
	for r := range got.regs {
		for l := range got.regs[r] {
			if got.regs[r][l] != want.regs[r][l] {
				h.tb.Fatalf("%s: R%d lane %d = %#x, want %#x (was %#x)%s",
					label, r, l, got.regs[r][l], want.regs[r][l], h.base.regs[r][l], describe(instrs))
			}
		}
	}
	if got.preds != want.preds {
		h.tb.Fatalf("%s: predicate masks %#x, want %#x (were %#x)%s", label, got.preds, want.preds, h.base.preds, describe(instrs))
	}
}

// lockstep runs instrs one at a time through the portable executor's one-op
// step and through the interpreter, canonicalising NaN results on both sides
// after every instruction, so a payload the two legitimately disagree on
// cannot reach a later instruction: the comparison for lists whose results
// chain.
func (h *progHarness) lockstep(plan *xplan, instrs []sass.Instr, atPC uint32) {
	h.tb.Helper()
	wx, wi := h.base, h.base
	blkX, blkI := h.block(plan), h.block(nil)
	label := fmt.Sprintf("mask %#x: one-op steps vs interpreter", atPC)
	for pc := range instrs {
		in := &instrs[pc]
		mx, mi := plan.ops[pc].guardMask(&wx, atPC), guardMask(&wi, in, atPC)
		if mx != mi {
			h.tb.Fatalf("mask %#x pc %d: the op's guard leaves %#x, the interpreter's %#x%s", atPC, pc, mx, mi, describe(instrs))
		}
		_, kx, ax := plan.steps[pc].step(blkX, &wx, mx)
		_, ki, ai := blkI.exec(&wi, in, pc, mi)
		if kx != ki || ax != ai {
			h.tb.Fatalf("%s: pc %d trapped (%v, %#x), interpreter (%v, %#x)%s", label, pc, kx, ax, ki, ai, describe(instrs))
		}
		if kx != 0 {
			break
		}
		if len(in.Dst) > 0 {
			canonNaN(in, &wx)
			canonNaN(in, &wi)
		}
	}
	h.diffWarps(label, instrs, &wx, &wi)
	if h.mem != nil {
		h.diffMem(label, instrs, h.mem.observe(h.tb, blkX.dev.Mem), h.mem.observe(h.tb, blkI.dev.Mem), false)
	}
}

// check runs instrs under every mask, tallied and not, and requires the
// dispatcher, the portable executor and the interpreter to agree. chained
// says results feed later instructions, where NaN payloads legitimately part
// ways between a translated tier and the interpreter: those lists are held to
// the interpreter in lockstep instead. It returns the plan for shape
// assertions.
func (h *progHarness) check(instrs []sass.Instr, chained bool) *xplan {
	h.tb.Helper()
	k := &sass.Kernel{Name: "rows", Instrs: append(append([]sass.Instr(nil), instrs...), sass.NewInstr(sass.MustOp("EXIT")))}
	plan, err := translate(k)
	if err != nil {
		h.tb.Fatal(err)
	}
	n := len(instrs)
	for _, atPC := range h.masks {
		for _, tallied := range []bool{true, false} {
			label := fmt.Sprintf("mask %#x tallied=%v", atPC, tallied)
			got := h.runPlan(plan, n, atPC, tallied, dispatchRows)
			want := h.runPlan(plan, n, atPC, tallied, portableRows)
			h.diffWarps(label+": dispatcher vs portable executor", instrs, &got.w, &want.w)
			if got.threads != want.threads || !reflect.DeepEqual(got.tally, want.tally) || got.trap != want.trap {
				h.tb.Fatalf("%s: dispatcher counted %d threads, tally %v, stopped %+v; portable executor %d, %v, %+v%s",
					label, got.threads, got.tally, got.trap, want.threads, want.tally, want.trap, describe(instrs))
			}
			if !bytes.Equal(got.shared, want.shared) {
				h.tb.Fatalf("%s: shared window %x, portable executor %x%s", label, got.shared, want.shared, describe(instrs))
			}
			if h.mem != nil {
				h.diffMem(label+": dispatcher vs portable executor", instrs, got.mem, want.mem, true)
			}
			if chained {
				continue
			}
			ref := h.interpret(instrs, atPC)
			if got.threads != ref.threads || (tallied && !reflect.DeepEqual(got.tally, ref.tally)) || got.trap != ref.trap {
				h.tb.Fatalf("%s: dispatcher counted %d threads, tally %v, stopped %+v; interpreter %d, %v, %+v%s",
					label, got.threads, got.tally, got.trap, ref.threads, ref.tally, ref.trap, describe(instrs))
			}
			if h.mem != nil {
				h.diffMem(label+": dispatcher vs interpreter", instrs, got.mem, ref.mem, false)
			}
			if !bytes.Equal(got.shared, ref.shared) {
				h.tb.Fatalf("%s: shared window %x, interpreter %x%s", label, got.shared, ref.shared, describe(instrs))
			}
			for i := range instrs {
				if len(instrs[i].Dst) > 0 {
					canonNaN(&instrs[i], &got.w)
					canonNaN(&instrs[i], &ref.w)
				}
			}
			h.diffWarps(label+": dispatcher vs interpreter", instrs, &got.w, &ref.w)
		}
		if chained {
			h.lockstep(plan, instrs, atPC)
		}
	}
	return plan
}

// progSrcShapes is every operand kind a row op reads, from register r: the
// register and its negation, immediates, a uniform slot of each kind, RZ, a
// thread-index row, lane-pattern rows, and the warp-broadcast special.
func progSrcShapes(r sass.RegID) []sass.Operand {
	neg := func(o sass.Operand) sass.Operand { o.Neg = true; return o }
	return []sass.Operand{
		sass.R(r), sass.NegReg(r),
		sass.Imm(0x80000003), neg(sass.Imm(5)),
		sass.C0(sass.ParamBase + 4), neg(sass.C0(sass.ParamBase)),
		sass.SR(sass.SRCtaidY), neg(sass.SR(sass.SRSMID)),
		sass.R(sass.RZ), sass.NegReg(sass.RZ),
		sass.SR(sass.SRTidX), neg(sass.SR(sass.SRTidY)),
		sass.SR(sass.SRLaneID), neg(sass.SR(sass.SREqMask)),
		sass.SR(sass.SRWarpID), neg(sass.SR(sass.SRWarpID)),
	}
}

// progGuards are the guards of the matrix. P3 is written by the list's first
// instruction, so a guard on it reads a predicate produced earlier in the
// same run; P2 holds random bits; progZeroPred leaves no lane.
var progGuards = []sass.PredRef{
	{Pred: sass.PT},
	{Pred: 3}, {Pred: 3, Neg: true},
	{Pred: 2}, {Pred: 2, Neg: true},
	{Pred: progZeroPred},
	{Pred: sass.PT, Neg: true},
}

// guardWriter is the first instruction of every matrix list: it writes P3.
func guardWriter() sass.Instr {
	in := sass.NewInstr(sass.MustOp("ISETP"), sass.P(3), sass.R(4), sass.R(8), sass.P(sass.PT))
	in.Mods.Cmp, in.Mods.Bool = sass.CmpLT, sass.BoolAnd
	return in
}

// TestRowProgramALU covers every register-result op × operand kind (each
// position against every kind) × guard × mask, one list per operand choice
// with one instruction per guard, and destination aliasing of each source in
// lists of their own.
func TestRowProgramALU(t *testing.T) {
	h := newProgHarness(t, 11)
	const ra, rb, rc = 4, 6, 8
	for _, op := range rowALUOps() {
		t.Run(op.String(), func(t *testing.T) {
			h.tb = t
			emit := func(d sass.RegID, g sass.PredRef, srcs []sass.Operand) sass.Instr {
				operands := append([]sass.Operand{sass.R(d)}, srcs...)
				in := sass.NewInstr(sass.MustOp(op.op), append(operands, op.tail...)...)
				in.Mods, in.Guard = op.mods, g
				return in
			}
			run := func(srcs ...sass.Operand) {
				// One destination per guard: no result feeds a later op.
				list := []sass.Instr{guardWriter()}
				for i, g := range progGuards {
					list = append(list, emit(sass.RegID(20+i), g, srcs))
				}
				h.wantStretch(h.check(list, false), list)
				// Aliased: the destination is each register source in turn,
				// unguarded and under a guard that narrows the mask.
				for _, s := range srcs {
					if progQuick() && srcs[len(srcs)-1].Kind != sass.OpdReg {
						break // quick: aliasing on the all-register lists only
					}
					if s.Kind == sass.OpdReg && s.Reg != sass.RZ {
						h.check([]sass.Instr{guardWriter(), emit(s.Reg, progGuards[0], srcs)}, false)
						h.check([]sass.Instr{guardWriter(), emit(s.Reg, progGuards[2], srcs)}, false)
					}
				}
			}
			as, bs, cs := progSrcShapes(ra), progSrcShapes(rb), progSrcShapes(rc)
			switch op.nsrc {
			case 1:
				for _, a := range as {
					run(a)
				}
			case 2:
				// Operand resolution is the same code for every op: the full
				// cross product on one integer and one float op, two
				// diagonals of it on the rest.
				full := !progQuick() && (op.op == "IADD" || op.op == "FMUL")
				for i, a := range as {
					for j, b := range bs {
						if full || j == i || j == (i+3)%len(bs) {
							run(a, b)
						}
					}
				}
				run(sass.R(ra), sass.NegReg(ra))
			case 3:
				for i := range as {
					run(as[i], bs[0], cs[0])
					run(as[0], bs[i], cs[1])
					run(as[1], bs[(i+3)%len(bs)], cs[i])
				}
				run(sass.R(ra), sass.NegReg(ra), sass.R(ra))
			}
		})
	}
}

// wantStretch requires the list to be one runRows stretch when every op in it
// has a vector kernel: the shapes the dispatcher is documented to cover may
// not silently drop to their one-op step.
func (h *progHarness) wantStretch(plan *xplan, list []sass.Instr) {
	h.tb.Helper()
	for i := range list {
		op := &plan.ops[i]
		mufu := op.shape == rsCvt && op.kern == cvMufu && slices.Contains(rowMufuHandled, sass.MufuFn(op.lut))
		if op.shape == rsNone || (op.shape >= rsCvt && !mufu) || (op.shape < rsLd32 && op.shape != rsMov && op.shape != rsSetP && !rowVectorOps[op.kern]) {
			return
		}
	}
	if got := plan.steps[0].rowLen; int(got) != len(list) {
		h.tb.Fatalf("rowLen %d, want the whole list of %d%s", got, len(list), describe(list))
	}
}

// TestRowProgramS2R covers S2R of every special register, the unknown ones
// (which read zero) included, under every guard. The SM clock read issues
// alone through its step.
func TestRowProgramS2R(t *testing.T) {
	h := newProgHarness(t, 12)
	for sr := sass.SRInvalid; sr <= sass.SRClock+1; sr++ {
		list := []sass.Instr{guardWriter()}
		for i, g := range progGuards {
			in := sass.NewInstr(sass.MustOp("S2R"), sass.R(sass.RegID(20+i)), sass.SR(sr))
			in.Guard = g
			list = append(list, in)
		}
		plan := h.check(list, false)
		if sr != sass.SRClock {
			h.wantStretch(plan, list)
		} else if plan.steps[1].runLen != 0 || plan.steps[1].rowLen != 0 || plan.ops[1].dispatchable() {
			t.Errorf("a clock read sits inside a batch (runLen %d, rowLen %d) or is dispatchable: the dispatcher reads no clock",
				plan.steps[1].runLen, plan.steps[1].rowLen)
		}
	}
}

// TestRowProgramConvert covers the rsCvt ops: MUFU of every function (RCP,
// RSQ, SQRT, SIN and COS with a handler, LG2 and EX2 on the portable executor
// alone), I2F and F2I of both signednesses and F2F both ways (portable), over
// every operand kind × guard × mask on rowEdges-laden registers, plus
// destination aliasing and the pairs next to RZ: a narrowing F2F reading R254
// (its high word zero) and a widening one writing R254 (its high word
// dropped).
func TestRowProgramConvert(t *testing.T) {
	h := newProgHarness(t, 17)
	type cvt struct {
		name string
		mods sass.Mods
	}
	var ops []cvt
	for fn := sass.MufuRcp; fn <= sass.MufuCos; fn++ {
		ops = append(ops, cvt{"MUFU", sass.Mods{Mufu: fn}})
	}
	ops = append(ops, cvt{"I2F", sass.Mods{}}, cvt{"I2F", sass.Mods{Unsigned: true}},
		cvt{"F2I", sass.Mods{}}, cvt{"F2I", sass.Mods{Unsigned: true}},
		cvt{"F2F", sass.Mods{}}, cvt{"F2F", sass.Mods{Width: 8}})
	for _, op := range ops {
		label := sass.NewInstr(sass.MustOp(op.name))
		label.Mods = op.mods
		handled := op.name == "MUFU" && op.mods.Mufu != sass.MufuLg2 && op.mods.Mufu != sass.MufuEx2
		t.Run(label.String(), func(t *testing.T) {
			h.tb = t
			emit := func(d sass.RegID, g sass.PredRef, a sass.Operand) sass.Instr {
				in := sass.NewInstr(sass.MustOp(op.name), sass.R(d), a)
				in.Mods, in.Guard = op.mods, g
				return in
			}
			srcs := append(progSrcShapes(4), sass.R(254), sass.NegReg(254))
			for _, a := range srcs {
				// Even destinations two apart: a widened pair never overlaps
				// the next op's.
				list := []sass.Instr{guardWriter()}
				for i, g := range progGuards {
					list = append(list, emit(sass.RegID(20+2*i), g, a))
				}
				plan := h.check(list, false)
				for i := range list[1:] {
					if op := &plan.ops[1+i]; op.shape != rsCvt || op.dispatchable() != handled {
						t.Fatalf("%v encodes as shape %d, handler %d: want rsCvt, with a handler %v", &list[1+i], op.shape, op.hand, handled)
					}
				}
				h.wantStretch(plan, list)
				if a.Kind == sass.OpdReg && a.Reg != sass.RZ {
					for _, g := range progGuards[:3] {
						h.check([]sass.Instr{guardWriter(), emit(a.Reg, g, a)}, false)
						h.check([]sass.Instr{guardWriter(), emit(a.Reg-1, g, a)}, false)
					}
				}
			}
			h.check([]sass.Instr{guardWriter(), emit(254, progGuards[0], sass.R(4)), emit(254, progGuards[2], sass.NegReg(6))}, false)
		})
	}
}

// TestRowProgramShared covers LDS and STS .32 over a 64-byte shared window:
// an address register (or RZ) plus offset that lands in bounds, on a
// misaligned word, past the window and wrapped round below zero, on every
// lane or only some, under every guard and mask. A trap must stop the list at
// the same op, lane, kind and address as the interpreter, with the lanes
// below the faulting one done, and the window's bytes must agree.
func TestRowProgramShared(t *testing.T) {
	h := newProgHarness(t, 18)
	rng := rand.New(rand.NewSource(18))
	h.shared = make([]byte, 64)
	rng.Read(h.shared)
	const ra = 4
	addrs := []struct {
		name string
		lane func(l uint32) uint32
	}{
		{"in bounds", func(l uint32) uint32 { return l % 16 * 4 }},
		{"shared words", func(l uint32) uint32 { return l % 3 * 4 }},
		{"one misaligned", func(l uint32) uint32 { return l%16*4 + l/21*2 }},
		{"past the end", func(l uint32) uint32 { return l * 4 }},
		{"wrapped", func(l uint32) uint32 { return (l - 9) * 4 }},
	}
	mem := func(r sass.RegID, off int32) sass.Operand { return sass.Operand{Kind: sass.OpdMem, Reg: r, Off: off} }
	for _, a := range addrs {
		for l := range h.base.regs[ra] {
			h.base.regs[ra][l] = a.lane(uint32(l))
		}
		for _, off := range []int32{0, 0x20, 0x2, -0x4} {
			for _, store := range []bool{false, true} {
				list := []sass.Instr{guardWriter()}
				for i, g := range progGuards {
					in := sass.NewInstr(sass.MustOp("LDS"), sass.R(sass.RegID(20+i)), mem(ra, off))
					if store {
						in = sass.NewInstr(sass.MustOp("STS"), mem(ra, off), sass.R(sass.RegID(20+i)))
					}
					in.Guard = g
					list = append(list, in)
				}
				h.check(list, false)
			}
		}
	}
	for _, off := range []int32{0x3c, 0x40, 0x2} {
		h.check([]sass.Instr{
			sass.NewInstr(sass.MustOp("STS"), mem(sass.RZ, off), sass.R(6)),
			sass.NewInstr(sass.MustOp("LDS"), sass.R(20), mem(sass.RZ, off)),
		}, false)
	}
	// Aliasing: the loaded register is the address register.
	h.check([]sass.Instr{sass.NewInstr(sass.MustOp("LDS"), sass.R(ra), mem(ra, 0))}, false)
}

// TestRowProgramSetP covers ISETP/FSETP: every compare × signedness × combine
// × combine source (PT, !PT, a register, its negation, and the destination
// itself) × operand kind. Each SETP is followed by a SEL on its result into a
// register of its own, so every comparison is observed, not only the last —
// and every SEL reads a predicate written by the op before it in the run.
func TestRowProgramSetP(t *testing.T) {
	h := newProgHarness(t, 13)
	const ra, rb = 4, 6
	for l := 0; l < WarpSize; l += 5 {
		h.base.regs[rb][l] = h.base.regs[ra][l] // EQ/LE/GE see both outcomes
	}
	qs := []sass.Operand{sass.P(sass.PT), sass.NotP(sass.PT), sass.P(2), sass.NotP(2), sass.P(1), sass.NotP(1)}
	as, bs := progSrcShapes(ra), progSrcShapes(rb)
	for _, opName := range []string{"ISETP", "FSETP"} {
		for cmp := sass.CmpF; cmp <= sass.CmpT; cmp++ {
			for _, unsigned := range []bool{false, true} {
				if unsigned && opName == "FSETP" {
					continue
				}
				t.Run(fmt.Sprintf("%s.%v.u=%v", opName, cmp, unsigned), func(t *testing.T) {
					h.tb = t
					var list []sass.Instr
					emit := func(g sass.PredRef, bo sass.BoolOp, srcs ...sass.Operand) {
						in := sass.NewInstr(sass.MustOp(opName), append([]sass.Operand{sass.P(1)}, srcs...)...)
						in.Mods = sass.Mods{Cmp: cmp, Unsigned: unsigned, Bool: bo}
						in.Guard = g
						sel := sass.NewInstr(sass.MustOp("SEL"), sass.R(sass.RegID(20+len(list)/2)), sass.R(ra), sass.R(rb), sass.P(1))
						list = append(list, in, sel)
					}
					flush := func() {
						h.wantStretch(h.check(list, false), list)
						list = nil
					}
					// Every combine and combine source, under every guard...
					for i := 0; i < 3; i++ {
						a, b := as[i], bs[(2*i)%len(bs)]
						for _, bo := range []sass.BoolOp{sass.BoolNone, sass.BoolAnd, sass.BoolOr, sass.BoolXor} {
							emit(progGuards[0], bo, a, b) // no combine source: the comparison passes through
						}
						for _, bo := range []sass.BoolOp{sass.BoolAnd, sass.BoolOr, sass.BoolXor, sass.BoolNone} {
							for j, q := range qs {
								emit(progGuards[(i+j)%len(progGuards)], bo, a, b, q)
							}
						}
						flush()
					}
					// ...and every operand kind pair on one combine.
					for _, a := range as {
						for _, b := range bs {
							emit(progGuards[0], sass.BoolAnd, a, b, sass.NotP(2))
						}
						flush()
					}
				})
			}
		}
	}
}

// TestRowProgramNaNPayloads sends every ordered pair of edge values — NaNs of
// distinct payloads and signs among them — through the float ops and their
// negated-operand forms. The dispatcher must hand the kernels their operands
// in source order: x86 propagates the first source's payload when both are
// NaN, and the portable executor is held to the same rule by the row kernels'
// own tests.
func TestRowProgramNaNPayloads(t *testing.T) {
	h := newProgHarness(t, 14)
	const ra, rb, rc = 4, 6, 8
	sets := rowOperandSets(rand.New(rand.NewSource(15)), 4)
	for _, s := range sets {
		h.base.regs[ra], h.base.regs[rb], h.base.regs[rc] = s[0], s[1], s[2]
		var list []sass.Instr
		add := func(op string, operands ...sass.Operand) {
			d := sass.R(sass.RegID(20 + len(list)))
			list = append(list, sass.NewInstr(sass.MustOp(op), append([]sass.Operand{d}, operands...)...))
		}
		for _, x := range []sass.Operand{sass.R(ra), sass.NegReg(ra)} {
			for _, y := range []sass.Operand{sass.R(rb), sass.NegReg(rb), sass.R(ra)} {
				add("FADD", x, y)
				add("FMUL", x, y)
				add("FFMA", x, y, sass.R(rc))
				add("FFMA", sass.R(rc), x, y)
				add("FMNMX", x, y, sass.P(2))
				add("FSEL", x, y, sass.NotP(2))
			}
		}
		h.wantStretch(h.check(list, false), list)
	}
}

// progInstr decodes three fuzzer bytes (and a fourth for immediates) into one
// row-tier instruction over R1..R7 and P0..P3: sources and destinations
// overlap freely, so results chain. A global access takes its address from
// R8..R11 (see progAddrRows) plus a fuzzed offset; a load may land its pair's
// high half on R8, so later addresses are as fuzzed as the values.
func progInstr(op, a, b, c byte) sass.Instr {
	reg := func(x byte) sass.RegID { return sass.RegID(1 + x%7) }
	src := func(x byte) sass.Operand {
		switch x >> 3 % 8 {
		case 0:
			return sass.NegReg(reg(x))
		case 1:
			return sass.Imm(uint32(x) * 0x01010101)
		case 2:
			return sass.C0(sass.ParamBase + 4*int32(x%4))
		case 3:
			return sass.SR(sass.SRTidX + sass.SpecialReg(x%11)) // every special but the clock
		}
		return sass.R(reg(x))
	}
	pred := func(x byte) sass.Operand {
		o := sass.P(sass.PredID(x % 4))
		o.Pred.Neg = x&4 != 0
		return o
	}
	d := sass.R(reg(a ^ b>>4))
	var in sass.Instr
	switch op % 16 {
	case 0:
		in = sass.NewInstr(sass.MustOp("IADD"), d, src(a), src(b))
	case 1:
		in = sass.NewInstr(sass.MustOp("IMAD"), d, src(a), src(b), src(c))
	case 2:
		in = sass.NewInstr(sass.MustOp("LOP"), d, src(a), src(b))
		in.Mods.Logic = sass.LogicOp(c % 4)
	case 3:
		in = sass.NewInstr(sass.MustOp("SHL"), d, src(a), sass.Imm(uint32(b%34)))
	case 4:
		in = sass.NewInstr(sass.MustOp("SHR"), d, src(a), src(b))
		in.Mods.Unsigned = c&1 != 0
	case 5:
		in = sass.NewInstr(sass.MustOp("FADD"), d, src(a), src(b))
	case 6:
		in = sass.NewInstr(sass.MustOp("FMUL"), d, src(a), src(b))
	case 7:
		in = sass.NewInstr(sass.MustOp("FFMA"), d, src(a), src(b), src(c))
	case 8:
		in = sass.NewInstr(sass.MustOp("LOP3"), d, src(a), src(b), src(c), sass.Imm(uint32(a^c)))
	case 9:
		in = sass.NewInstr(sass.MustOp("LEA"), d, src(a), src(b), sass.Imm(uint32(c)))
	case 10:
		in = sass.NewInstr(sass.MustOp([]string{"SEL", "FSEL", "IMNMX", "FMNMX"}[c%4]), d, src(a), src(b), pred(c>>2))
		in.Mods.Unsigned = c&0x40 != 0
	case 11:
		if b&0x80 == 0 {
			in = sass.NewInstr(sass.MustOp("MOV"), d, src(a))
			break
		}
		addr := sass.Mem(sass.RegID(8+c>>2%4), int32(int8(a))*4)
		if c&2 == 0 {
			in = sass.NewInstr(sass.MustOp("LDG"), d, addr)
		} else {
			v := src(b)
			if b&1 != 0 {
				v = sass.R(reg(b)) // a .64 store's register pair
			}
			in = sass.NewInstr(sass.MustOp("STG"), addr, v)
		}
		in.Mods.Width = 4 << (c & 1)
	case 12:
		in = sass.NewInstr(sass.MustOp("IADD3"), d, src(a), src(b), src(c))
	case 13:
		in = sass.NewInstr(sass.MustOp("IMUL"), d, src(a), src(b))
	default:
		name := "ISETP"
		if op%16 == 15 {
			name = "FSETP"
		}
		in = sass.NewInstr(sass.MustOp(name), sass.P(sass.PredID(a%4)), src(a), src(b), pred(c))
		in.Mods.Cmp = sass.CmpF + sass.CmpOp(b)%(sass.CmpT-sass.CmpF+1)
		in.Mods.Bool = sass.BoolOp(c >> 3 % 4)
		in.Mods.Unsigned = c&0x40 != 0 && name == "ISETP"
	}
	if op&0x10 != 0 {
		in.Guard = sass.PredRef{Pred: sass.PredID(op >> 5 % 4), Neg: op&0x80 != 0}
	}
	return in
}

// checkRowProgram decodes data into warp state and an instruction list and
// runs it: the first bytes choose atPC and corrupt the low registers and
// predicates, every four after that make one instruction. Results chain
// (check's chained mode).
func checkRowProgram(tb testing.TB, data []byte) {
	const head = 12
	if len(data) < head+4 {
		tb.Skip()
	}
	h := newProgHarness(tb, 16)
	for r := 1; r <= 7; r++ {
		for l := range h.base.regs[r] {
			// Corrupted contents: edge values (NaNs, infinities, shift counts
			// past the word) salted by the fuzzer's bytes.
			b := data[(r+l)%head]
			h.base.regs[r][l] = rowEdges[int(b)%len(rowEdges)] ^ uint32(b>>5)<<uint(l%32)
		}
	}
	for p := 0; p < 4; p++ {
		h.base.preds[p] = uint32(data[p]) * 0x01030507 >> uint(p)
	}
	progAddrRows(&h.base, data[8:12])
	h.mem = &progMemory{memo: []uint32{gmemBufIdx | gmemTwoIdx<<16, gmemTwoIdx | gmemBufIdx<<16, 2 << 16}[data[11]%3]}
	var list []sass.Instr
	for i := head; i+3 < len(data) && len(list) < 40; i += 4 {
		list = append(list, progInstr(data[i], data[i+1], data[i+2], data[i+3]))
	}
	h.masks = []uint32{fullMask, uint32(data[4])<<24 | uint32(data[5])<<16 | uint32(data[6])<<8 | uint32(data[7]) | 1}
	h.wantStretch(h.check(list, true), list)
}

// progAddrRows fills R8..R11 with address rows, one fuzzer byte each: a
// .32 or .64 unit-stride run from some offset of a page of the global-access
// buffer in each copy-on-write state (or of the second buffer), a
// three-times-wider stride or one address for every lane, and one lane bent
// off the run — misaligned or out of bounds — for some bytes.
func progAddrRows(w *warp, sel []byte) {
	for i, p := range sel {
		base := gmemBases[gmemBufIdx] + uint32(p%3)*memPageSize
		if p&0x80 != 0 {
			base = gmemBases[gmemTwoIdx]
		}
		base += 64 * uint32(p>>4&3)
		stride := uint32(4) << (p >> 2 & 1)
		switch p & 0x18 {
		case 0x08:
			stride *= 3
		case 0x18:
			stride = 0 // uniform
		}
		r := &w.regs[8+i]
		for l := range r {
			r[l] = base + stride*uint32(l)
		}
		if p&0x40 != 0 {
			r[p%32] += uint32(p)<<8 | 1
		}
	}
}

// TestRowProgramStreams runs checkRowProgram on pseudo-random streams; the
// fuzz target below explores from the same seeds.
func TestRowProgramStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 300; i++ {
		data := make([]byte, 12+4*(1+rng.Intn(40)))
		rng.Read(data)
		checkRowProgram(t, data)
	}
}

// FuzzRowPrograms feeds checkRowProgram arbitrary op streams over corrupted
// register contents.
func FuzzRowPrograms(f *testing.F) {
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 8; i++ {
		data := make([]byte, 12+4*(4+8*i))
		rng.Read(data)
		f.Add(data)
	}
	// A guarded chain on one register, every op kind once.
	var chain []byte
	for op := byte(0); op < 16; op++ {
		chain = append(chain, op|0x10|op<<5, 0x41, 0x41, op*7)
	}
	f.Add(append(make([]byte, 12), chain...))
	// Global accesses of each kind through each address row, between
	// arithmetic on the loaded values.
	var mem []byte
	for k := byte(0); k < 16; k++ {
		mem = append(mem, 11, 4*k, 0x80|k*9, k, 0, k, k+1, 0x20)
	}
	f.Add(append([]byte{0xff, 0x0f, 0xf0, 0x55, 0xff, 0xff, 0xff, 0xff, 0x01, 0x15, 0x42, 0x88}, mem...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 12+4*64 {
			t.Skip()
		}
		checkRowProgram(t, data)
	})
}

// rowRunSrc is a kernel made of long row runs: two warps, the second partial
// and both split by lane parity so every run executes under full and partial
// masks; guards on predicates written inside the run, a guard that leaves no
// lane, negated and broadcast operands, SETP combines and a LOP3 — the shapes
// of TestRowProgramALU inside one launch, so pause, budget and callback
// boundaries land on every position of a stretch.
const rowRunSrc = `
.kernel rowrun
.param outptr
    S2R R0, SR_TID.X
    S2R R9, SR_LANEID
    LOP.AND R8, R0, 0x1
    MOV R2, 0x3
    MOV R1, c0[outptr]
    ISETP.EQ.AND P0, R8, 0x0, PT
loop:
    IMAD R3, R0, 0x9e3779b1, R2
    ISETP.LT.U32.AND P1, R3, 0x80000000, PT
    IADD R4, R3, -R0
@P1 SHL R4, R4, 0x3
@!P1 SHR.U32 R4, R4, 0x5
    FADD R5, R4, -R3
    FSETP.GT.OR P2, R5, R3, !P1
    SEL R6, R4, R5, P2
    LOP3 R6, R6, R3, R9, 0x96
    ISETP.NE.XOR P3, R6, R4, P2
@P3 IADD3 R7, R6, R4, -R5
@!P3 LEA R7, R6, R4, 0x2
    IMNMX.U32 R7, R7, R3, !P3
@!PT IADD R7, R7, 0x1
    ISETP.GT.U32.AND P4, R0, 0xfffffff0, PT
@P4 MOV R7, 0x7
    FFMA R5, R5, R7, -R6
    LOP.XOR R3, R5, R7
@P0 BRA even
    IADD R10, R3, R9
    LOP.OR R10, R10, 0x10
    IMAD R10, R10, R2, R8
    BRA join
even:
    FMUL R10, R3, 0x3fc00000
    IADD R10, R10, -R9
join:
    IADD R2, R2, -0x1
    IADD R11, R11, R10
    ISETP.NE.AND P5, R2, 0x0, PT
@P5 BRA loop
    SHL R6, R0, 0x2
    IADD R6, R6, R1
    STG.32 [R6], R11
    EXIT
`

const rowRunThreads = 48 // a full warp and a half one

// rowRunArm is how a rowrun launch is instrumented: the in-line tally, and
// callback sites — on each, a Before callback that perturbs lane 6's R3 and an
// After callback that counts its dispatch and clears P1 on the odd lanes (a
// guard of ops further down the run) — and, when fire > 0, a Shot on the same
// sites that lands on their thread-level execution fire-1: its Pre hook
// perturbs the landing lane's R3 and its hit flips that lane's P1, and counts
// as 1000 dispatches.
type rowRunArm struct {
	sites    []int
	fire     uint64
	tally    bool
	stepHook bool // the single-step hook, counting: every instruction is a site
}

func armRowRun(k *sass.Kernel, arm rowRunArm, calls *int, counts []SiteTally) *ExecKernel {
	ek := &ExecKernel{K: k}
	if arm.tally {
		ek.Tally = counts
	}
	if arm.stepHook {
		ek.Step = func(*InstrCtx) { *calls++ }
	}
	if len(arm.sites) == 0 {
		return ek
	}
	ek.Before, ek.After = make([][]Callback, len(k.Instrs)), make([][]Callback, len(k.Instrs))
	for _, pc := range arm.sites {
		ek.Before[pc] = []Callback{func(c *InstrCtx) {
			if c.LaneActive(6) {
				c.WriteReg(6, 3, c.ReadReg(6, 3)+uint32(c.InstrIdx))
			}
		}}
		ek.After[pc] = []Callback{func(c *InstrCtx) {
			*calls++
			for lane := 1; lane < WarpSize; lane += 2 {
				c.WritePred(lane, 1, false)
			}
		}}
	}
	if arm.fire > 0 {
		ek.Shot = &Shot{
			Target: arm.fire - 1,
			Pre:    func(c *InstrCtx, lane int) { c.WriteReg(lane, 3, c.ReadReg(lane, 3)^0x10) },
			Hit: func(c *InstrCtx, lane int) {
				*calls += 1000
				c.WritePred(lane, 1, !c.ReadPred(lane, 1))
			},
		}
		ek.ShotSites = shotSitesAt(k, true, arm.sites...)
	}
	return ek
}

// rowRunObs is what the engines must agree on for one rowrun launch.
type rowRunObs struct {
	loopRun
	counts []SiteTally
}

func rowRunLaunch(t testing.TB, d *Device, k *sass.Kernel, arm rowRunArm, calls *int, budget uint64) (*Launch, uint32, []SiteTally) {
	t.Helper()
	outp, err := d.Mem.Alloc(4 * shortDivThreads)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]SiteTally, len(k.Instrs))
	return &Launch{
		Kernel: armRowRun(k, arm, calls, counts),
		Grid:   Dim3{X: 1, Y: 1, Z: 1},
		Block:  Dim3{X: rowRunThreads, Y: 1, Z: 1},
		Params: []uint32{outp},
		Budget: budget,
	}, outp, counts
}

func runRowRun(t testing.TB, e loopEngine, k *sass.Kernel, arm rowRunArm, budget uint64) rowRunObs {
	t.Helper()
	d := e.device(t)
	calls := 0
	l, outp, counts := rowRunLaunch(t, d, k, arm, &calls, budget)
	stats, err := d.Run(l)
	return rowRunObs{finishLoopRun(t, d, outp, stats, err, calls), counts}
}

func expectSameRowRun(t *testing.T, label string, ref, got rowRunObs) {
	t.Helper()
	expectSameLoop(t, label, ref.loopRun, got.loopRun)
	if !reflect.DeepEqual(ref.counts, got.counts) {
		t.Errorf("%s: tally %v, want %v", label, got.counts, ref.counts)
	}
}

// rowRunStretch returns the longest runRows stretch of the kernel: where it
// starts and how many ops it holds.
func rowRunStretch(t *testing.T, k *sass.Kernel) (start, n int) {
	t.Helper()
	plan, err := translate(k)
	if err != nil {
		t.Fatal(err)
	}
	for pc := range plan.steps {
		if l := int(plan.steps[pc].rowLen); l > n {
			start, n = pc, l
		}
	}
	if n < 12 {
		t.Fatalf("longest stretch holds %d ops; the kernel was written to have a long one", n)
	}
	return start, n
}

// TestRowRunEquivalence: rowrun whole — plain, tallied, armed at the first, a
// middle and the last op of its longest stretch (alone and together, with the
// in-line tally and without), and with a Shot on those sites landing on their
// first, a middle and a late execution — on all three engines.
func TestRowRunEquivalence(t *testing.T) {
	k := mustKernel(t, rowRunSrc, "rowrun")
	start, n := rowRunStretch(t, k)
	first, middle, last := start, start+n/2, start+n-1
	arms := []rowRunArm{{}, {tally: true}, {stepHook: true}, {stepHook: true, tally: true}}
	for _, sites := range [][]int{{first}, {middle}, {last}, {first, middle, last}, {first + 1, last - 1}} {
		for _, tally := range []bool{false, true} {
			arms = append(arms, rowRunArm{sites: sites, tally: tally})
			for _, fire := range []uint64{1, 29, 61} {
				arms = append(arms, rowRunArm{sites: sites, tally: tally, fire: fire})
			}
		}
	}
	for _, arm := range arms {
		ref := runRowRun(t, loopEngines[0], k, arm, 0)
		if ref.err != nil {
			t.Fatal(ref.err)
		}
		if arm.fire > 0 && ref.calls/1000 != 1 {
			t.Fatalf("%+v: %d dispatches", arm, ref.calls)
		}
		if (len(arm.sites) > 0 || arm.stepHook) && ref.calls == 0 {
			t.Fatalf("%+v: no callback ran", arm)
		}
		for _, e := range loopEngines[1:] {
			expectSameRowRun(t, fmt.Sprintf("%s %+v", e.name, arm), ref, runRowRun(t, e, k, arm, 0))
		}
	}
}

// TestRowRunBudgetEverywhere: every budget from one instruction to the whole
// launch — the budget runs dry at every position of every stretch — traps at
// the same PC with the same stats, tally and clocks on all three engines.
func TestRowRunBudgetEverywhere(t *testing.T) {
	k := mustKernel(t, rowRunSrc, "rowrun")
	arm := rowRunArm{tally: true}
	total := runRowRun(t, loopEngines[0], k, arm, 0).stats.WarpInstrs
	for budget := uint64(1); budget <= total+1; budget++ {
		ref := runRowRun(t, loopEngines[0], k, arm, budget)
		if (ref.err != nil) != (budget < total) {
			t.Fatalf("budget %d of %d: err = %v", budget, total, ref.err)
		}
		for _, e := range loopEngines[1:] {
			expectSameRowRun(t, fmt.Sprintf("%s budget=%d", e.name, budget), ref, runRowRun(t, e, k, arm, budget))
		}
	}
}

// TestRowRunPauseEverywhere pauses rowrun after every warp-instruction count
// it passes through — plain, recording its own tally, and armed mid-stretch —
// on all three engines: the pause clips a stretch at every position. At each
// the paused digest must equal the reference engine's, and the run resumed to
// the end must leave the uninterrupted launch's result and tally.
func TestRowRunPauseEverywhere(t *testing.T) {
	k := mustKernel(t, rowRunSrc, "rowrun")
	start, n := rowRunStretch(t, k)
	for _, arm := range []rowRunArm{{}, {tally: true}, {sites: []int{start + n/2}}} {
		whole := runRowRun(t, loopEngines[0], k, arm, 0)
		total := int64(whole.stats.WarpInstrs)
		refDigests := make([]uint64, total)
		for _, e := range loopEngines {
			for pos := int64(1); pos < total; pos++ {
				label := fmt.Sprintf("%s %+v pause@%d", e.name, arm, pos)
				d := e.device(t)
				calls := 0
				l, outp, counts := rowRunLaunch(t, d, k, arm, &calls, 0)
				r, err := d.BeginRun(l)
				if err != nil {
					t.Fatal(err)
				}
				if paused, err := r.Resume(pos); !paused || err != nil {
					t.Fatalf("%s: Resume = (%v, %v)", label, paused, err)
				}
				if got := int64(r.Stats().WarpInstrs); got != pos {
					t.Fatalf("%s: paused after %d warp instructions", label, got)
				}
				if dig := r.Digest(); e == loopEngines[0] {
					refDigests[pos] = dig
				} else if dig != refDigests[pos] {
					t.Fatalf("%s: digest %#x, reference %#x", label, dig, refDigests[pos])
				}
				if paused, err := r.Resume(-1); paused || err != nil {
					t.Fatalf("%s: Resume(-1) = (%v, %v)", label, paused, err)
				}
				expectSameRowRun(t, label, whole, rowRunObs{finishLoopRun(t, d, outp, r.Stats(), nil, calls), counts})
				if t.Failed() {
					return
				}
			}
		}
	}
}

// singleIssueSrc is a straight line of guarded row ops, each a callback site
// and so issued alone: an ALU op, a SETP, and global accesses on the
// dispatcher's fast path (a coalesced load and store on a written, private
// page), off it (a strided load, a load and a store on a never-written page)
// and one that traps (a misaligned store).
const singleIssueSrc = `
.kernel single
.param buf
.param page
    S2R R0, SR_TID.X
    SHL R1, R0, 0x2
    MOV R3, c0[buf]
    IADD R2, R3, R1
    SHL R6, R0, 0x3
    IADD R6, R6, R3
    MOV R7, c0[page]
    IADD R7, R7, R2
    IADD R8, R2, 0x2
    LOP.AND R9, R0, 0x3
    ISETP.NE.AND P1, R9, 0x0, PT
    IMAD R4, R0, 0x9e3779b1, R9
    MOV R5, 0x40000000
    MOV R11, 0x11111111
    MOV R12, 0x22222222
    MOV R13, 0x33333333
@P1 IADD R10, R4, R5
@!P1 ISETP.LT.U32.AND P2, R4, R5, PT
@P1 LDG.32 R11, [R2]
@!P1 STG.32 [R2+0x100], R10
@P1 LDG.32 R12, [R6]
@!P1 LDG.32 R13, [R7]
@P1 STG.32 [R7+0x200], R4
@P1 STG.32 [R8], R10
    EXIT
`

// singleIssueFirst is the first callback site of singleIssueSrc.
const singleIssueFirst = 16

// singleIssueObs is what the engines must agree on for one launch of
// singleIssueSrc: the launch's stats and trap, the buffer's bytes, the tally,
// and after every site the registers and predicates of every lane.
type singleIssueObs struct {
	parRun
	tally []SiteTally
	trace []uint32
}

func runSingleIssue(t *testing.T, e loopEngine) singleIssueObs {
	t.Helper()
	d := e.device(t)
	buf, err := d.Mem.Alloc(2 * memPageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Mem.WriteBytes(buf, gmemFill[:memPageSize]); err != nil {
		t.Fatal(err)
	}
	k := mustKernel(t, singleIssueSrc, "single")
	var obs singleIssueObs
	ek := &ExecKernel{K: k, Before: make([][]Callback, len(k.Instrs)), After: make([][]Callback, len(k.Instrs))}
	ek.Tally = make([]SiteTally, len(k.Instrs))
	for pc := singleIssueFirst; pc < len(k.Instrs)-1; pc++ {
		// Before: flip the op's own guard predicate on the odd lanes — a
		// guard re-read now would drop lanes that executed — and rewrite its
		// first register source on lane 6.
		ek.Before[pc] = []Callback{func(c *InstrCtx) {
			for lane := 1; lane < WarpSize; lane += 2 {
				c.WritePred(lane, 1, !c.ReadPred(lane, 1))
			}
			for _, o := range c.Instr.Src {
				if o.Kind == sass.OpdReg && o.Reg != sass.RZ {
					c.WriteReg(6, o.Reg, c.ReadReg(6, o.Reg)^uint32(0x100+c.InstrIdx))
					break
				}
			}
		}}
		ek.After[pc] = []Callback{func(c *InstrCtx) {
			obs.trace = append(obs.trace, uint32(c.InstrIdx), uint32(c.WarpID), c.ActiveMask)
			for lane := 0; lane < WarpSize; lane++ {
				for r := sass.RegID(0); r <= 13; r++ {
					obs.trace = append(obs.trace, c.ReadReg(lane, r))
				}
				obs.trace = append(obs.trace, b2u(c.ReadPred(lane, 1)), b2u(c.ReadPred(lane, 2)))
			}
		}}
	}
	stats, err := d.Run(&Launch{
		Kernel: ek,
		Grid:   Dim3{X: 1, Y: 1, Z: 1},
		Block:  Dim3{X: rowRunThreads, Y: 1, Z: 1},
		Params: []uint32{buf, memPageSize},
	})
	out, rerr := d.Mem.ReadBytes(buf, 2*memPageSize)
	if rerr != nil {
		t.Fatal(rerr)
	}
	obs.parRun = parRun{out: out, stats: stats, err: err, log: d.LogEvents()}
	obs.tally = ek.Tally
	return obs
}

// TestRowSingleIssue holds single issues of dispatchable row ops — each op of
// singleIssueSrc sits at a Before and an After callback site — to the
// reference loop: registers and predicates after every site, memory, the trap
// and where it struck, LaunchStats and the tally. On amd64 with AVX2 such an
// issue runs through the dispatcher as a one-op stretch: the op must run
// under the exec mask guarded before the Before callbacks (not its guard
// re-read after them), a global access the dispatcher leaves to Go must still
// execute (and trap), and the issue must be counted once, by its caller.
func TestRowSingleIssue(t *testing.T) {
	k := mustKernel(t, singleIssueSrc, "single")
	plan, err := translate(k)
	if err != nil {
		t.Fatal(err)
	}
	for pc := singleIssueFirst; pc < len(k.Instrs)-1; pc++ {
		if !plan.ops[pc].dispatchable() {
			t.Fatalf("pc %d (%v) has no handler: the test would not reach the dispatcher", pc, &k.Instrs[pc])
		}
	}
	ref := runSingleIssue(t, loopEngines[0])
	if trap, ok := AsTrap(ref.err); !ok || trap.Kind != TrapMisaligned || trap.PC != len(k.Instrs)-2 {
		t.Fatalf("reference run ended in %v, want a misaligned store at pc %d", ref.err, len(k.Instrs)-2)
	}
	if len(ref.trace) == 0 {
		t.Fatal("no After callback ran")
	}
	for _, e := range loopEngines[1:] {
		got := runSingleIssue(t, e)
		expectSame(t, e.name, ref.parRun, got.parRun)
		if !reflect.DeepEqual(got.tally, ref.tally) {
			t.Errorf("%s: tally %v, want %v", e.name, got.tally, ref.tally)
		}
		if !reflect.DeepEqual(got.trace, ref.trace) {
			for i := range min(len(got.trace), len(ref.trace)) {
				if got.trace[i] != ref.trace[i] {
					t.Fatalf("%s: registers and predicates after the sites part at word %d of %d: %#x, want %#x", e.name, i, len(ref.trace), got.trace[i], ref.trace[i])
				}
			}
			t.Fatalf("%s: %d words of site trace, want %d", e.name, len(got.trace), len(ref.trace))
		}
	}
}
