package gpu

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/sass"
)

// Block slots (arena.go): a schedule claims one blockCtx per launch and
// rebinds it block after block, and the pools hand the same slot to launch
// after launch. The tests here hold slot reuse to an oracle that gives every
// block a context and warps no block has used: a sequence of launches on one
// device must leave the same memory, LaunchStats, traps, device log, SM clocks
// and digests — after every launch and, stepped, after every warp
// instruction — whichever way its blocks got their state.
//
// Three ways of getting it, per engine (reference loop, batched loop, legacy
// scheduler):
//
//   - fresh: a new blockCtx with new warps for every block. The oracle.
//   - pinned: one blockCtx object for the whole scenario, re-adopted for every
//     launch and rebound for every block — the most reuse the product can
//     ever see, made deterministic (the pools may or may not return the slot
//     the previous launch released).
//   - the product: Device.Run, BeginRun/Resume one instruction at a time,
//     and snapshot/restore around every block boundary.
//
// The kernels are written so that a block reads everything a slot carries over
// before writing it: an unwritten register, an unset predicate, shared and
// local memory, the call stack (RET at top level must trap), the thread-index
// rows, and the block-uniform special registers.

// slotSrc is the scenarios' program. %#x is the scenario buffer's address, for
// the one kernel that takes no parameter.
const slotSrc = `
.kernel locals
.param out
.param salt
.shared 512
    S2R R0, SR_TID.X
    S2R R1, SR_CTAID.X
    IMAD R2, R1, c0[NTID_X], R0
    SHL R3, R2, 0x2
    IADD R3, R3, c0[out]
    MOV R4, R20                       // written below: a block must read zero
@P3 IADD R4, R4, 0x1000               // set below: a block must skip this
    LDL.32 R5, [RZ]                   // written below
    SHL R6, R0, 0x2
    LDS.32 R7, [R6]                   // written below
    IADD R4, R4, R5
    IADD R4, R4, R7
    IADD R20, R2, c0[salt]
    ISETP.GE.AND P3, R0, 0x0, PT
    STL.32 [RZ], R20
    STL.32 [RZ+0xffc], R20
    STS.32 [R6], R20
    IADD R4, R4, R20
    STG.32 [R3], R4
    EXIT

.kernel calls
.param out
.param salt
    S2R R0, SR_TID.X
    S2R R1, SR_CTAID.X
    IMAD R2, R1, c0[NTID_X], R0
    SHL R3, R2, 0x2
    IADD R3, R3, c0[out]
    IADD R20, R2, c0[salt]
    CALL leaf
    STG.32 [R3], R21
    LOP.AND R8, R0, 0x1
    ISETP.EQ.AND P0, R8, 0x0, PT
@P0 CALL dies                         // even lanes exit inside the callee: their stacks end non-empty
    EXIT
leaf:
    IADD R21, R20, 0x7
    RET
dies:
    EXIT

.kernel plain
.param out
.param salt
    S2R R0, SR_TID.X
    S2R R1, SR_CTAID.X
    IMAD R2, R1, c0[NTID_X], R0
    SHL R3, R2, 0x2
    IADD R3, R3, c0[out]
    MOV R4, R22
@P4 IADD R4, R4, 0x2000
    IADD R22, R2, c0[salt]
    ISETP.GE.AND P4, R0, 0x0, PT
    IADD R4, R4, R22
    STG.32 [R3], R4
    EXIT

.kernel bareret
.param out
.param salt
    S2R R0, SR_TID.X
    RET                               // nothing called: traps unless a stack is stale
    EXIT

.kernel trapk
.param out
.param k
    S2R R1, SR_CTAID.X
    MOV R2, c0[k]
    ISETP.NE.AND P0, R1, R2, PT
@P0 EXIT
    STG.32 [RZ], R1                   // block k stores to an unmapped address
    EXIT

.kernel where
.param out
    S2R R0, SR_TID.X
    S2R R1, SR_TID.Y
    S2R R2, SR_TID.Z
    S2R R3, SR_CTAID.X
    S2R R4, SR_CTAID.Y
    IMAD R5, R2, c0[NTID_Y], R1
    IMAD R5, R5, c0[NTID_X], R0       // linear thread index
    IMAD R6, R4, c0[NCTAID_X], R3     // linear block index
    MOV R7, c0[NTID_X]
    IMUL R7, R7, c0[NTID_Y]
    IMUL R7, R7, c0[NTID_Z]
    IMAD R8, R6, R7, R5
    SHL R8, R8, 0x5                   // eight words a thread
    IADD R8, R8, c0[out]
    S2R R9, SR_SMID
    S2R R10, SR_WARPID
    IADD R11, R5, SR_CTAID.X
    IADD R12, R0, SR_LANEID
    STG.32 [R8], R0
    STG.32 [R8+0x4], R1
    STG.32 [R8+0x8], R2
    STG.32 [R8+0xc], R6
    STG.32 [R8+0x10], R9
    STG.32 [R8+0x14], R10
    STG.32 [R8+0x18], R11
    STG.32 [R8+0x1c], R12
    EXIT

.kernel consts
.param out
.param a
.param b
.param dlo
.param dhi
    S2R R0, SR_TID.X
    S2R R1, SR_CTAID.X
    IMAD R2, R1, c0[NTID_X], R0
    SHL R2, R2, 0x6                   // sixteen words a thread
    IADD R2, R2, c0[out]
    IADD R3, R0, c0[a]
    IADD R4, R0, -c0[a]
    MOV R5, 0x40400000                // 3.0f
    FADD R6, R5, -c0[b]
    FMUL R7, R5, c0[b]
    MOV R8, RZ
    MOV R9, 0x40080000                // 3.0 as a pair
    DADD R10, R8, -c0[dlo]
    DFMA R12, R8, c0[dlo], R10
    DMUL R14, R8, c0[dlo]
    IADD R16, R0, c0[0x7f0]           // past the parameters: reads zero
    IADD R17, R0, -c0[0x7f0]
    DADD R18, R8, c0[0x7f0]
    STG.32 [R2], R3
    STG.32 [R2+0x4], R4
    STG.32 [R2+0x8], R6
    STG.32 [R2+0xc], R7
    STG.64 [R2+0x10], R10
    STG.64 [R2+0x18], R12
    STG.64 [R2+0x20], R14
    STG.32 [R2+0x28], R16
    STG.32 [R2+0x2c], R17
    STG.64 [R2+0x30], R18
    EXIT

.kernel noconst
    S2R R0, SR_TID.X
    SHL R1, R0, 0x2
    IADD R1, R1, %#x
    IADD R2, R0, 0x5
    STG.32 [R1], R2
    EXIT
`

const (
	slotBufBytes = 16 << 10
	slotSMs      = 8
)

// slotStep is one launch of a scenario. Every kernel's first parameter is the
// scenario buffer; args are the words after it.
type slotStep struct {
	kernel      string
	grid, block Dim3
	args        []uint32
}

func d1(x int) Dim3 { return Dim3{X: x, Y: 1, Z: 1} }

var slotScenarios = []struct {
	name  string
	steps []slotStep
}{
	// Local memory and call stacks behind the laneMem flag: set by a kernel,
	// swept for the next block and the next launch, never swept for kernels
	// that use neither — and a top-level RET still traps afterwards, in block
	// 0, with launches following the trap.
	{"lanemem", []slotStep{
		{"locals", d1(3), d1(40), []uint32{0x100}},
		{"calls", d1(3), d1(40), []uint32{0x200}},
		{"plain", d1(2), d1(40), []uint32{0x300}},
		{"bareret", d1(2), d1(40), []uint32{0}},
		{"locals", d1(2), d1(72), []uint32{0x400}},
		{"plain", d1(3), d1(40), []uint32{0x500}},
		{"calls", d1(2), d1(40), []uint32{0x600}},
		{"bareret", d1(1), d1(33), []uint32{0}},
		{"plain", d1(1), d1(40), []uint32{0x700}},
	}},
	// A trap in block k of a launch, then more launches on the device.
	{"trap", []slotStep{
		{"plain", d1(4), d1(64), []uint32{0x10}},
		{"trapk", d1(5), d1(64), []uint32{2}},
		{"plain", d1(4), d1(64), []uint32{0x20}},
		{"locals", d1(2), d1(64), []uint32{0x30}},
		{"trapk", d1(3), d1(32), []uint32{0}},
		{"calls", d1(3), d1(48), []uint32{0x40}},
	}},
	// Block shapes: 1-D, 2-D, 3-D and back, partial last warps, and warp
	// counts that shrink and grow, so a warp meets thread-index rows computed
	// for another shape or another warp index.
	{"shapes", []slotStep{
		{"where", d1(3), d1(64), nil},
		{"where", Dim3{X: 2, Y: 2, Z: 1}, Dim3{X: 8, Y: 5, Z: 1}, nil},
		{"where", d1(2), Dim3{X: 4, Y: 3, Z: 3}, nil},
		{"where", d1(3), d1(40), nil},
		{"where", Dim3{X: 1, Y: 3, Z: 1}, Dim3{X: 8, Y: 5, Z: 1}, nil},
		{"where", d1(2), d1(128), nil},
		{"where", d1(4), d1(32), nil},
		{"where", d1(2), d1(128), nil},
		{"where", d1(2), Dim3{X: 16, Y: 4, Z: 2}, nil},
		{"where", d1(3), d1(64), nil},
	}},
	// Constant-bank operands: negated, FP64 pairs, offsets past the
	// parameters, one kernel launched with different parameters, and a kernel
	// with no constant operand in between.
	{"consts", []slotStep{
		{"consts", d1(2), d1(40), constArgs(1000, 2.5, 1.75)},
		{"noconst", d1(1), d1(32), nil},
		{"consts", d1(2), d1(40), constArgs(-7, -0.375, 1e9)},
		{"plain", d1(2), d1(40), []uint32{0x900}},
		{"consts", d1(3), d1(24), constArgs(0, 8, -2)},
	}},
}

func constArgs(a int32, b float32, d float64) []uint32 {
	bits := math.Float64bits(d)
	return []uint32{uint32(a), math.Float32bits(b), uint32(bits), uint32(bits >> 32)}
}

// slotDevice builds a scenario device: its one buffer lands at the same
// address on every fresh device.
func slotDevice(t testing.TB, e loopEngine) (*Device, uint32) {
	t.Helper()
	d, err := NewDevice(sass.FamilyVolta, slotSMs)
	if err != nil {
		t.Fatal(err)
	}
	d.NoXlate, d.LegacySched = e.noXlate, e.legacy
	buf, err := d.Mem.Alloc(slotBufBytes)
	if err != nil {
		t.Fatal(err)
	}
	return d, buf
}

func slotProgram(t testing.TB) *sass.Program {
	t.Helper()
	_, buf := slotDevice(t, loopEngines[0])
	p, err := sass.Assemble("slots", fmt.Sprintf(slotSrc, buf))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func (s *slotStep) launch(t testing.TB, p *sass.Program, buf uint32) *Launch {
	t.Helper()
	for _, k := range p.Kernels {
		if k.Name == s.kernel {
			l := &Launch{Kernel: &ExecKernel{K: k}, Grid: s.grid, Block: s.block}
			if len(k.Params) > 0 {
				l.Params = append([]uint32{buf}, s.args...)
			}
			return l
		}
	}
	t.Fatalf("no kernel %q", s.kernel)
	return nil
}

// slotObs is what one launch leaves behind, and — for a stepped run — the
// digest and block index after each of its warp instructions.
type slotObs struct {
	loopRun
	trajectory []uint64
	blockLins  []int
}

func observe(t testing.TB, d *Device, buf uint32, stats LaunchStats, err error) slotObs {
	t.Helper()
	out, rerr := d.Mem.ReadBytes(buf, slotBufBytes)
	if rerr != nil {
		t.Fatal(rerr)
	}
	return slotObs{loopRun: loopRun{
		parRun: parRun{out: out, stats: stats, err: err, log: append([]LogEvent(nil), d.LogEvents()...)},
		clocks: append([]uint64(nil), d.smClocks...),
		digest: d.Digest(),
	}}
}

// slotDriver drives a LaunchRun the way Resume does, from the harness's own
// slots instead of the pools': fresh claims a new context for every block,
// otherwise one pinned context serves every block of every launch it is
// handed. It keeps its slots out of the pools, so nothing else can be given
// the pinned one while the harness holds it.
type slotDriver struct {
	fresh  bool
	pinned *blockCtx
}

func (h *slotDriver) claim(r *LaunchRun) *blockCtx {
	blk := h.pinned
	if h.fresh || blk == nil {
		blk = &blockCtx{}
		for n := (r.launch.Block.Count() + WarpSize - 1) / WarpSize; len(blk.warps) < n; {
			blk.warps = append(blk.warps, new(warp))
		}
	}
	if !h.fresh {
		h.pinned = blk
	}
	blk.adopt(r.dev, &r.launch, r.constBank, r.plan)
	blk.pause, blk.runTally = &r.pause, r.counts
	return blk
}

func (h *slotDriver) resume(r *LaunchRun, pauseIn int64) (paused bool, err error) {
	if r.finished {
		return false, r.err
	}
	r.pause.remaining = pauseIn
	for {
		if r.blk == nil {
			r.blk = h.claim(r)
			r.blk.bind(r.blockLin)
		}
		err := r.blk.run(&r.budget, &r.stats)
		if err == errLaunchPaused {
			return true, nil
		}
		if err == nil {
			r.stats.Blocks++
			r.blockLin++
			if r.blockLin < r.launch.Grid.Count() {
				if h.fresh {
					r.blk = nil
				} else {
					r.blk.bind(r.blockLin)
				}
				continue
			}
		}
		r.blk = nil
		r.finish(err)
		return false, err
	}
}

// stepThrough runs r to its end one warp instruction at a time through
// resume, recording the digest and block index at every pause.
func stepThrough(t testing.TB, r *LaunchRun, resume func(*LaunchRun, int64) (bool, error), o *slotObs) error {
	t.Helper()
	for {
		paused, err := resume(r, 1)
		if !paused {
			return err
		}
		o.trajectory = append(o.trajectory, r.Digest())
		o.blockLins = append(o.blockLins, r.blockLin)
		if len(o.trajectory) > 1<<20 {
			t.Fatal("launch does not end")
		}
	}
}

// runHarness runs a scenario stepped through the harness's own slots.
func runHarness(t testing.TB, p *sass.Program, steps []slotStep, e loopEngine, fresh bool) []slotObs {
	t.Helper()
	d, buf := slotDevice(t, e)
	h := &slotDriver{fresh: fresh}
	var obs []slotObs
	for i := range steps {
		r, err := d.BeginRun(steps[i].launch(t, p, buf))
		if err != nil {
			t.Fatal(err)
		}
		var o slotObs
		err = stepThrough(t, r, h.resume, &o)
		o.loopRun = observe(t, d, buf, r.Stats(), err).loopRun
		obs = append(obs, o)
	}
	return obs
}

// runProduct runs a scenario through Device.Run, or stepped through
// BeginRun/Resume.
func runProduct(t testing.TB, p *sass.Program, steps []slotStep, e loopEngine, stepped bool) []slotObs {
	t.Helper()
	d, buf := slotDevice(t, e)
	var obs []slotObs
	for i := range steps {
		l := steps[i].launch(t, p, buf)
		if !stepped {
			stats, err := d.Run(l)
			obs = append(obs, observe(t, d, buf, stats, err))
			continue
		}
		r, err := d.BeginRun(l)
		if err != nil {
			t.Fatal(err)
		}
		var o slotObs
		err = stepThrough(t, r, (*LaunchRun).Resume, &o)
		o.loopRun = observe(t, d, buf, r.Stats(), err).loopRun
		obs = append(obs, o)
	}
	return obs
}

// expectSameSlots compares two runs of a scenario launch by launch;
// trajectories only when both sides have one.
func expectSameSlots(t *testing.T, label string, steps []slotStep, ref, got []slotObs) {
	t.Helper()
	if len(ref) != len(got) {
		t.Fatalf("%s: %d launches observed, want %d", label, len(got), len(ref))
	}
	for i := range ref {
		at := fmt.Sprintf("%s launch %d (%s)", label, i, steps[i].kernel)
		r, g := ref[i], got[i]
		expectSameLoop(t, at, r.loopRun, g.loopRun)
		if r.trajectory != nil && g.trajectory != nil {
			if len(r.trajectory) != len(g.trajectory) {
				t.Errorf("%s: %d pauses, want %d", at, len(g.trajectory), len(r.trajectory))
			}
			for pos := 0; pos < len(r.trajectory) && pos < len(g.trajectory); pos++ {
				if r.trajectory[pos] != g.trajectory[pos] || r.blockLins[pos] != g.blockLins[pos] {
					t.Errorf("%s: after %d warp instructions digest %#x in block %d, want %#x in block %d",
						at, pos+1, g.trajectory[pos], g.blockLins[pos], r.trajectory[pos], r.blockLins[pos])
					break
				}
			}
		}
		if t.Failed() {
			return
		}
	}
}

// TestSlotReuseMatchesFreshBlocks: every scenario, on every engine, through
// the pinned slot and through every product schedule, against the fresh
// oracle of the same engine; and the three engines' oracles against each other
// (the reference loop reads the constant bank and the special registers
// directly, never through operand rows).
func TestSlotReuseMatchesFreshBlocks(t *testing.T) {
	p := slotProgram(t)
	for _, sc := range slotScenarios {
		t.Run(sc.name, func(t *testing.T) {
			var first []slotObs
			for _, e := range loopEngines {
				oracle := runHarness(t, p, sc.steps, e, true)
				if first == nil {
					first = oracle
					checkScenario(t, sc.name, sc.steps, oracle)
				} else {
					expectSameSlots(t, e.name+" oracle vs reference oracle", sc.steps, first, oracle)
				}
				expectSameSlots(t, e.name+" pinned", sc.steps, oracle, runHarness(t, p, sc.steps, e, false))
				expectSameSlots(t, e.name+" stepped", sc.steps, oracle, runProduct(t, p, sc.steps, e, true))
				expectSameSlots(t, e.name+" run", sc.steps, oracle, runProduct(t, p, sc.steps, e, false))
			}
		})
	}
}

// checkScenario pins what the differential cannot: that the oracle itself saw
// the traps the scenarios are built around and the values the constant
// operands must read.
func checkScenario(t *testing.T, name string, steps []slotStep, obs []slotObs) {
	t.Helper()
	for i, o := range obs {
		trap, trapped := AsTrap(o.err)
		switch steps[i].kernel {
		case "bareret":
			if !trapped || trap.Kind != TrapCallStack {
				t.Errorf("%s launch %d: top-level RET ended in %v, want a call-stack trap", name, i, o.err)
			}
		case "trapk":
			if !trapped || trap.Kind != TrapIllegalAddress || o.stats.Blocks != int(steps[i].args[0]) {
				t.Errorf("%s launch %d: %v after %d blocks, want an illegal-address trap in block %d", name, i, o.err, o.stats.Blocks, steps[i].args[0])
			}
		default:
			if o.err != nil {
				t.Errorf("%s launch %d (%s): %v", name, i, steps[i].kernel, o.err)
			}
		}
		if steps[i].kernel != "consts" {
			continue
		}
		a := steps[i].args
		b32 := math.Float32frombits(a[1])
		d64 := math.Float64frombits(uint64(a[3])<<32 | uint64(a[2]))
		word := func(thread, w int) uint32 { return binary.LittleEndian.Uint32(o.out[64*thread+4*w:]) }
		pair := func(thread, w int) float64 {
			return math.Float64frombits(uint64(word(thread, w+1))<<32 | uint64(word(thread, w)))
		}
		for _, thread := range []int{0, 5, steps[i].block.X + 3} {
			tid := uint32(thread % steps[i].block.X)
			want := []struct {
				what      string
				got, want any
			}{
				{"tid + c0[a]", word(thread, 0), tid + a[0]},
				{"tid - c0[a]", word(thread, 1), tid - a[0]},
				{"3 - c0[b]", math.Float32frombits(word(thread, 2)), 3 - b32},
				{"3 * c0[b]", math.Float32frombits(word(thread, 3)), 3 * b32},
				{"3 - c0[d]", pair(thread, 4), 3 - d64},
				{"3*c0[d] + (3-c0[d])", pair(thread, 6), math.FMA(3, d64, 3-d64)},
				{"3 * c0[d]", pair(thread, 8), 3 * d64},
				{"tid + c0[past the parameters]", word(thread, 10), tid},
				{"tid - c0[past the parameters]", word(thread, 11), tid},
				{"3 + c0[past the parameters] pair", pair(thread, 12), 3.0},
			}
			for _, w := range want {
				if w.got != w.want {
					t.Errorf("%s launch %d thread %d: %s = %v, want %v", name, i, thread, w.what, w.got, w.want)
				}
			}
		}
	}
}

// TestSlotRestoreAtBlockBoundaries: pause, snapshot, restore onto a fresh
// device and resume, at every warp instruction of every launch of the lanemem
// scenario — so around every block boundary, where the restored slot goes on
// to be rebound — then run the rest of the scenario on the fork. The fork must
// walk the oracle's trajectory from the pause on and leave what the oracle
// left after every later launch.
func TestSlotRestoreAtBlockBoundaries(t *testing.T) {
	p := slotProgram(t)
	sc := slotScenarios[0]
	for _, e := range loopEngines {
		oracle := runHarness(t, p, sc.steps, e, true)
		for i := range sc.steps {
			total := len(oracle[i].trajectory)
			for pos := 1; pos <= total; pos++ {
				near := pos == 1 || pos == total
				for _, delta := range []int{-1, 0, 1} {
					if q := pos + delta; q >= 1 && q < total && oracle[i].blockLins[q-1] != oracle[i].blockLins[q] {
						near = true
					}
				}
				if !near && pos%7 != 0 {
					continue // away from the boundaries a sample of positions does
				}
				label := fmt.Sprintf("%s launch %d (%s) pause@%d", e.name, i, sc.steps[i].kernel, pos)
				d, buf := slotDevice(t, e)
				for j := 0; j < i; j++ {
					d.Run(sc.steps[j].launch(t, p, buf)) // traps included: the oracle saw them too
				}
				r, err := d.BeginRun(sc.steps[i].launch(t, p, buf))
				if err != nil {
					t.Fatal(err)
				}
				if paused, err := r.Resume(int64(pos)); !paused || err != nil {
					t.Fatalf("%s: Resume = (%v, %v)", label, paused, err)
				}
				if got := r.Digest(); got != oracle[i].trajectory[pos-1] {
					t.Fatalf("%s: digest %#x, oracle %#x", label, got, oracle[i].trajectory[pos-1])
				}
				snap, err := r.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				r.Close()
				fork, _ := slotDevice(t, e)
				fr, err := fork.Restore(snap)
				if err != nil {
					t.Fatalf("%s: Restore: %v", label, err)
				}
				var o slotObs
				err = stepThrough(t, fr, (*LaunchRun).Resume, &o)
				o.loopRun = observe(t, fork, buf, fr.Stats(), err).loopRun
				want := oracle[i]
				want.trajectory, want.blockLins = want.trajectory[pos:], want.blockLins[pos:]
				got := []slotObs{o}
				for j := i + 1; j < len(sc.steps); j++ {
					stats, err := fork.Run(sc.steps[j].launch(t, p, buf))
					got = append(got, observe(t, fork, buf, stats, err))
				}
				expectSameSlots(t, label+" fork", sc.steps[i:], append([]slotObs{want}, oracle[i+1:]...), got)
				if t.Failed() {
					return
				}
			}
		}
	}
}

// TestPlanUniformSlots pins how a plan numbers its uniform operands: one slot
// per distinct (operand, negation), an FP64 constant as a low and a high
// slot, block-uniform special registers marked per block, nothing for a
// kernel without such operands — the storage a slot needs is sized by this
// list, never by the constant bank.
func TestPlanUniformSlots(t *testing.T) {
	p := slotProgram(t)
	want := map[string][]uniformSrc{
		"noconst": nil,
		"bareret": nil,
		"trapk":   {{sreg: sass.SRCtaidX}, {off: sass.ParamBase + 4}},
		"consts": {
			{sreg: sass.SRCtaidX}, {off: sass.ConstNtidX}, {off: sass.ParamBase},
			{off: sass.ParamBase + 4}, {off: sass.ParamBase + 4, neg: fnInt},
			{off: sass.ParamBase + 8, neg: fnFloat}, {off: sass.ParamBase + 8},
			{off: sass.ParamBase + 12}, {off: sass.ParamBase + 16, neg: fnFloat}, {off: sass.ParamBase + 16},
			{off: 0x7f0}, {off: 0x7f0, neg: fnInt}, {off: 0x7f4},
		},
	}
	for _, k := range p.Kernels {
		w, ok := want[k.Name]
		if !ok {
			continue
		}
		plan, err := translate(k)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.uniforms) != len(w) {
			t.Errorf("%s: uniforms %+v, want %+v", k.Name, plan.uniforms, w)
			continue
		}
		for i := range w {
			if plan.uniforms[i] != w[i] {
				t.Errorf("%s: slot %d is %+v, want %+v", k.Name, i, plan.uniforms[i], w[i])
			}
			if got := plan.uniforms[i].perBlock(); got != (w[i].sreg != sass.SRInvalid) {
				t.Errorf("%s: slot %d perBlock = %v", k.Name, i, got)
			}
		}
	}
}

// TestSlotKeepsThreadRows: the thread-index rows are rebuilt when, and only
// when, the warp is shaped for another (block shape, warp index).
func TestSlotKeepsThreadRows(t *testing.T) {
	w := new(warp)
	w.shape(1, d1(64), false)
	if w.tid[0][3] != 35 || w.liveMask != fullMask {
		t.Fatalf("warp 1 of a 64-thread block: tid.x[3] = %d, live %#x", w.tid[0][3], w.liveMask)
	}
	w.tid[0][3] = 999 // a mark the same shape must keep and any other must overwrite
	w.shape(1, d1(64), true)
	if w.tid[0][3] != 999 || !w.scanSched {
		t.Errorf("same shape: rows rebuilt (tid.x[3] = %d) or scheduler mode kept (%v)", w.tid[0][3], w.scanSched)
	}
	w.shape(0, d1(64), false)
	if w.tid[0][3] != 3 {
		t.Errorf("another warp index: tid.x[3] = %d, want 3", w.tid[0][3])
	}
	w.tid[0][3] = 999
	w.shape(0, Dim3{X: 8, Y: 5, Z: 1}, false)
	if w.tid[0][3] != 3 || w.tid[1][11] != 1 || w.liveMask != fullMask {
		t.Errorf("2-D shape: tid.x[3] = %d, tid.y[11] = %d, live %#x", w.tid[0][3], w.tid[1][11], w.liveMask)
	}
	w.shape(1, Dim3{X: 8, Y: 5, Z: 1}, false)
	if w.tid[0][3] != 3 || w.tid[1][3] != 4 || w.liveMask != 0xff {
		t.Errorf("partial last warp: tid (%d, %d), live %#x", w.tid[0][3], w.tid[1][3], w.liveMask)
	}
	w.shape(1, d1(40), false)
	if w.tid[0][3] != 35 || w.tid[1][3] != 0 || w.liveMask != 0xff {
		t.Errorf("back to 1-D: tid (%d, %d), live %#x", w.tid[0][3], w.tid[1][3], w.liveMask)
	}
}
