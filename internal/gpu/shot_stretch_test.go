package gpu

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
)

// A Shot's armed sites that cannot land run inside the batch loop's
// stretches, also between callback sites, their lanes counted when the
// stretch ends (blockCtx.segment, blockCtx.settle). These tests hold that
// path to the callbacks the Shot stands for on the reference loop.

// stretchSrc runs two blocks of two warps through long straight-line
// stretches: a loop whose body holds a predicated row op and a divergent
// tail, then a store that traps on thread 37 (block 0, warp 1, lane 5) when
// the skew parameter is not zero — with four more row ops after it in the
// same stretch — and a second store.
const stretchSrc = `
.kernel stretch
.param outptr
.param skew
    S2R R0, SR_TID.X
    S2R R9, SR_CTAID.X
    MOV R1, 0x3
    MOV R2, 0x3
    IADD R3, R0, 0x1
    LOP.AND R8, R0, 0x1
    ISETP.EQ.AND P1, R8, 0x0, PT
loop:
    IMAD R1, R1, R3, 0x5
    IADD R1, R1, R0
@P1 IADD R1, R1, 0x9
    LOP.XOR R1, R1, 0x55
    SHL R4, R1, 0x1
@P1 BRA even
    IADD R4, R4, R3
    LOP.XOR R4, R4, 0x33
    IADD R1, R1, R4
even:
    IADD R2, R2, -0x1
    ISETP.NE.AND P0, R2, 0x0, PT
@P0 BRA loop
    IMAD R10, R9, 0x40, R0
    SHL R6, R10, 0x2
    IADD R6, R6, c0[outptr]
    ISETP.EQ.AND P3, R10, 0x25, PT
    MOV R7, R6
@P3 IADD R7, R7, c0[skew]
    STG.32 [R7], R1
    IADD R1, R1, 0x11
    LOP.XOR R4, R4, R1
    IADD R6, R6, 0x200
    STG.32 [R6], R4
    EXIT
`

const (
	stretchThreads = 64
	stretchBlocks  = 2
	stretchOut     = 8 * stretchThreads * stretchBlocks
)

// stretchCase is one Shot on stretchSrc.
type stretchCase struct {
	target uint64
	pre    bool // the Shot has a Pre hook
	hooked bool // an After callback on each SHL, which ends a stretch and issues alone
	thread bool
	block  int
	warp   int
	lane   int
	pc     int    // the one armed pc; -1: every instruction
	skew   uint32 // nonzero: thread 37's first store traps
	budget uint64
}

// shotEvent is one call of a Shot's hook, with what it saw.
type shotEvent struct {
	pre                   bool
	pc, block, warp, lane int
	r1                    uint32
	p1                    bool
	count                 uint64
}

// stretchRun is everything the stretch path must agree on with the callbacks.
type stretchRun struct {
	loopRun
	count  uint64
	fired  bool
	events []shotEvent
}

// runStretch runs c on a fresh device of engine e — the Shot as engine data,
// or, when oracle, as its callbacks — and returns the run, whole and, when
// pause > 0, as it stood paused after pause warp instructions, with its
// digest over the in-flight warps' registers and predicates.
func runStretch(t *testing.T, e loopEngine, c stretchCase, oracle bool, pause int64) (paused, whole stretchRun) {
	t.Helper()
	d := e.device(t)
	k := mustKernel(t, stretchSrc, "stretch")
	outp, err := d.Mem.Alloc(stretchOut)
	if err != nil {
		t.Fatal(err)
	}
	ek := &ExecKernel{K: k}
	calls := 0
	if c.hooked {
		ek.Before, ek.After = make([][]Callback, len(k.Instrs)), make([][]Callback, len(k.Instrs))
		for pc := range k.Instrs {
			if k.Instrs[pc].Op.String() == "SHL" {
				ek.After[pc] = []Callback{func(*InstrCtx) { calls++ }}
			}
		}
	}
	s := &Shot{Target: c.target, Thread: c.thread, Block: c.block, Warp: c.warp, Lane: c.lane}
	var events []shotEvent
	record := func(pre bool, ic *InstrCtx, lane int) {
		events = append(events, shotEvent{pre, ic.InstrIdx, ic.BlockLin, ic.WarpID, lane,
			ic.ReadReg(lane, 1), ic.ReadPred(lane, 1), s.Count})
	}
	if c.pre {
		s.Pre = func(ic *InstrCtx, lane int) { record(true, ic, lane) }
	}
	s.Hit = func(ic *InstrCtx, lane int) {
		record(false, ic, lane)
		ic.WriteReg(lane, 1, ic.ReadReg(lane, 1)^0x5a5a)
	}
	sites := NewShotSites(k, kernelOps(k), c.pc, c.pre)
	if oracle {
		shotOracle(ek, s, sites, nil)
	} else {
		ek.Shot, ek.ShotSites = s, sites
	}
	l := &Launch{
		Kernel: ek,
		Grid:   Dim3{X: stretchBlocks, Y: 1, Z: 1},
		Block:  Dim3{X: stretchThreads, Y: 1, Z: 1},
		Params: []uint32{outp, c.skew},
		Budget: c.budget,
	}
	state := func(stats LaunchStats, err error, digest uint64) stretchRun {
		out, rerr := d.Mem.ReadBytes(outp, stretchOut)
		if rerr != nil {
			t.Fatal(rerr)
		}
		return stretchRun{
			loopRun: loopRun{
				parRun: parRun{out: out, stats: stats, err: err, log: d.LogEvents()},
				clocks: slices.Clone(d.smClocks),
				digest: digest,
				calls:  calls,
			},
			count: s.Count, fired: s.Fired, events: slices.Clone(events),
		}
	}
	if pause <= 0 {
		stats, err := d.Run(l)
		return stretchRun{}, state(stats, err, d.Digest())
	}
	r, err := d.BeginRun(l)
	if err != nil {
		t.Fatal(err)
	}
	if p, err := r.Resume(pause); !p || err != nil {
		t.Fatalf("%s: Resume(%d) = (%v, %v)", e.name, pause, p, err)
	}
	paused = state(r.Stats(), nil, r.Digest())
	_, err = r.Resume(-1)
	return paused, state(r.Stats(), err, d.Digest())
}

func expectSameStretch(t *testing.T, label string, ref, got stretchRun) {
	t.Helper()
	expectSameLoop(t, label, ref.loopRun, got.loopRun)
	if got.count != ref.count || got.fired != ref.fired {
		t.Errorf("%s: Count %d Fired %v, want %d %v", label, got.count, got.fired, ref.count, ref.fired)
	}
	if !reflect.DeepEqual(got.events, ref.events) {
		t.Errorf("%s: hook calls %+v, want %+v", label, got.events, ref.events)
	}
}

// checkStretch runs c on every engine with the Shot as engine data and holds
// each to the reference loop running the Shot's callbacks — or, when c traps
// without a Pre hook, running the Shot as data: the callbacks count an
// execution in its After callback, which a trapping instruction never
// reaches, where the engine's landing rule (aim) counts it as it issues, as
// a Pre hook's Before callback does. It returns the reference run.
func checkStretch(t *testing.T, label string, c stretchCase, pause int64) stretchRun {
	t.Helper()
	refPaused, ref := runStretch(t, loopEngines[0], c, c.skew == 0 || c.pre, pause)
	for _, e := range loopEngines {
		gotPaused, got := runStretch(t, e, c, false, pause)
		if pause > 0 {
			expectSameStretch(t, fmt.Sprintf("%s %s paused@%d", e.name, label, pause), refPaused, gotPaused)
		}
		expectSameStretch(t, e.name+" "+label, ref, got)
	}
	if t.Failed() {
		t.FailNow()
	}
	return ref
}

// TestShotStretchDifferential: the Shot's armed sites passed inside stretches
// count what issuing each alone would have — on landings every 37th
// execution, with and without a Pre hook, with and without callbacks beside
// it; armed on one pc in the loop, plain and predicated; restricted to one
// thread, on its warp and on others; with a store that traps mid-stretch;
// paused at every position; and with every budget — on all three engines
// against the reference loop running the callbacks it stands for: Count,
// Fired, the hooks' landing lane and what they read, output, stats with the
// trampolines, SM clocks, and the paused digest of registers and predicates.
func TestShotStretchDifferential(t *testing.T) {
	k := mustKernel(t, stretchSrc, "stretch")
	imad, predicated := -1, -1
	for pc := range k.Instrs {
		in := &k.Instrs[pc]
		switch op := in.Op.String(); {
		case op == "IMAD" && imad < 0:
			imad = pc
		case op == "IADD" && in.Guard.Pred == 1:
			predicated = pc
		}
	}
	never := checkStretch(t, "never", stretchCase{target: math.MaxUint64, pc: -1}, 0)
	if never.err != nil || never.fired || never.count < 4000 {
		t.Fatalf("a Shot that never lands: err %v, Fired %v, Count %d", never.err, never.fired, never.count)
	}
	total := never.count
	warpInstrs := int64(never.stats.WarpInstrs)

	t.Run("every37th", func(t *testing.T) {
		for _, hooked := range []bool{false, true} {
			for _, pre := range []bool{false, true} {
				targets := []uint64{total - 1, total}
				for at := uint64(0); at < total; at += 37 {
					targets = append(targets, at)
				}
				for _, at := range targets {
					c := stretchCase{target: at, pre: pre, hooked: hooked, pc: -1}
					ref := checkStretch(t, fmt.Sprintf("hooked=%v pre=%v target=%d", hooked, pre, at), c, 0)
					if ref.fired != (at < total) {
						t.Fatalf("target %d of %d: Fired %v", at, total, ref.fired)
					}
				}
			}
		}
	})

	t.Run("onePC", func(t *testing.T) {
		for _, pc := range []int{imad, predicated} {
			for _, hooked := range []bool{false, true} {
				c := stretchCase{target: math.MaxUint64, hooked: hooked, pc: pc}
				n := checkStretch(t, fmt.Sprintf("pc=%d never", pc), c, 0).count
				for at := uint64(0); at <= n; at += 7 {
					c.target = at
					checkStretch(t, fmt.Sprintf("pc=%d hooked=%v target=%d", pc, hooked, at), c, 0)
				}
			}
		}
	})

	t.Run("thread", func(t *testing.T) {
		for _, sel := range []struct{ block, warp, lane int }{{0, 1, 5}, {1, 0, 0}, {1, 1, 31}} {
			for _, hooked := range []bool{false, true} {
				c := stretchCase{target: math.MaxUint64, hooked: hooked, pc: -1,
					thread: true, block: sel.block, warp: sel.warp, lane: sel.lane}
				label := fmt.Sprintf("block %d warp %d lane %d hooked=%v", sel.block, sel.warp, sel.lane, hooked)
				n := checkStretch(t, label+" never", c, 0).count
				if n == 0 || n >= total/WarpSize {
					t.Fatalf("%s: the thread executes %d armed instructions of %d", label, n, total)
				}
				for at := uint64(0); at <= n; at += 3 {
					c.target = at
					checkStretch(t, fmt.Sprintf("%s target=%d", label, at), c, 0)
				}
			}
		}
	})

	t.Run("trap", func(t *testing.T) {
		trap := stretchCase{target: math.MaxUint64, pc: -1, skew: 0x10000000}
		ref := checkStretch(t, "never", trap, 0)
		if tr, ok := AsTrap(ref.err); !ok || tr.Kind != TrapIllegalAddress {
			t.Fatalf("err = %v, want an illegal-address trap", ref.err)
		}
		for _, hooked := range []bool{false, true} {
			for _, pre := range []bool{false, true} {
				for at := uint64(0); at <= ref.count; at += 37 {
					c := trap
					c.target, c.hooked, c.pre = at, hooked, pre
					checkStretch(t, fmt.Sprintf("hooked=%v pre=%v target=%d", hooked, pre, at), c, 0)
				}
				for _, sel := range []struct{ warp, lane int }{{1, 5}, {1, 6}, {0, 3}} {
					c := trap
					c.hooked, c.pre, c.thread, c.warp, c.lane = hooked, pre, true, sel.warp, sel.lane
					checkStretch(t, fmt.Sprintf("hooked=%v pre=%v warp %d lane %d", hooked, pre, sel.warp, sel.lane), c, 0)
				}
			}
		}
	})

	t.Run("pause", func(t *testing.T) {
		cases := []stretchCase{
			{target: total / 2, pre: true, pc: -1},
			{target: total / 3, hooked: true, pc: -1},
			{target: 20, thread: true, block: 1, warp: 1, lane: 31, pc: -1},
		}
		for i, c := range cases {
			for pos := int64(1); pos < warpInstrs; pos++ {
				checkStretch(t, fmt.Sprintf("case %d", i), c, pos)
			}
		}
	})

	t.Run("budget", func(t *testing.T) {
		for i, c := range []stretchCase{
			{target: total / 2, pre: true, pc: -1},
			{target: math.MaxUint64, hooked: true, pc: -1},
			{target: 20, thread: true, warp: 1, lane: 7, pc: -1},
		} {
			for budget := uint64(1); budget <= uint64(warpInstrs)+1; budget++ {
				c.budget = budget
				checkStretch(t, fmt.Sprintf("case %d budget=%d", i, budget), c, 0)
			}
		}
	})
}
