package gpu

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// instrRun is one instrumented-launch observation for the amortization
// differentials: everything expectSame checks, plus the per-SM clocks the
// trampoline accounting must not perturb and the number of closure dispatches
// the fault cost.
type instrRun struct {
	parRun
	clocks    []uint64
	dispatch  int
	activated bool
}

// runSaxpyInstrumented runs the saxpy kernel with a fault on every
// instruction that lands on thread-level execution fireAt and flips a bit of
// the landing lane's R6: as a Shot when shot, else as the callbacks it stands
// for (shotOracle), which dispatch after every instruction to the end of the
// launch. A negative fireAt never lands.
func runSaxpyInstrumented(t *testing.T, fireAt int, shot, noXlate bool, budget uint64) instrRun {
	t.Helper()
	d := newTestDevice(t)
	d.NoXlate = noXlate
	k := mustKernel(t, saxpySrc, "saxpy")
	const n = 512
	xp, _ := d.Mem.Alloc(4 * n)
	yp, _ := d.Mem.Alloc(4 * n)
	x := make([]float32, n)
	y := make([]float32, n)
	for i := range x {
		x[i], y[i] = float32(i), 1
	}
	_ = d.Mem.WriteBytes(xp, f32slice(x))
	_ = d.Mem.WriteBytes(yp, f32slice(y))

	r := instrRun{}
	s := &Shot{Target: uint64(fireAt), Hit: func(c *InstrCtx, lane int) {
		c.WriteReg(lane, 6, c.ReadReg(lane, 6)^0x40000)
		r.activated = true
		if shot {
			r.dispatch++
		}
	}}
	if fireAt < 0 {
		s.Target = math.MaxUint64
	}
	ek := &ExecKernel{K: k}
	armShot(ek, s, !shot, &r.dispatch)

	stats, err := d.Run(&Launch{
		Kernel: ek,
		Grid:   Dim3{X: n / 128, Y: 1, Z: 1},
		Block:  Dim3{X: 128, Y: 1, Z: 1},
		Params: []uint32{n, f32bits(2), xp, yp},
		Budget: budget,
	})
	out, _ := d.Mem.ReadBytes(yp, 4*n)
	r.parRun = parRun{out: out, stats: stats, err: err, log: d.LogEvents()}
	r.clocks = append([]uint64(nil), d.smClocks...)
	return r
}

// expectSameInstr extends expectSame with the per-SM clocks.
func expectSameInstr(t *testing.T, label string, ref, got instrRun) {
	t.Helper()
	expectSame(t, label, ref.parRun, got.parRun)
	if !reflect.DeepEqual(ref.clocks, got.clocks) {
		t.Errorf("%s: smClocks %v, want %v", label, got.clocks, ref.clocks)
	}
}

// TestTrampolineAccountingDifferential: the batched loop's per-batch
// trampoline charge (from the kernel's site prefix count) must be observably
// identical to the reference loop charging every site as it reaches it —
// stats (including the trampoline counter), per-SM clocks, outputs, traps,
// and device log — with and without a mid-launch fault, and when the budget
// trips mid-batch.
func TestTrampolineAccountingDifferential(t *testing.T) {
	cases := []struct {
		name   string
		fireAt int
		budget uint64
	}{
		{"clean", -1, 0},
		{"fault", 3000, 0},
		{"budget-trap", -1, 150},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			interp := runSaxpyInstrumented(t, tc.fireAt, false, true, tc.budget)
			acct := runSaxpyInstrumented(t, tc.fireAt, false, false, tc.budget)
			expectSameInstr(t, "per batch vs per site", interp, acct)
			if acct.stats.TrampolineInstrs == 0 {
				t.Error("instrumented launch charged no trampoline instructions")
			}
			if interp.dispatch != acct.dispatch {
				t.Errorf("callback dispatches differ: %d vs %d", acct.dispatch, interp.dispatch)
			}
		})
	}
}

// TestDisarmDifferential: a Shot, spent once it lands, is observably the
// callbacks it replaces, which keep dispatching to the end of the launch —
// same outputs, LaunchStats (trampoline accounting included), per-SM clocks,
// traps, and device log — while it provably dispatches no closure but its
// one hit.
func TestDisarmDifferential(t *testing.T) {
	for _, budget := range []uint64{0, 200} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			armed := runSaxpyInstrumented(t, 3000, false, false, budget)
			shot := runSaxpyInstrumented(t, 3000, true, false, budget)
			expectSameInstr(t, "shot vs callbacks", armed, shot)
			if armed.activated != shot.activated {
				t.Fatalf("activation differs: callbacks %v, shot %v", armed.activated, shot.activated)
			}
			if budget == 0 && !shot.activated {
				t.Fatal("the fault never landed")
			}
			if shot.activated && (shot.dispatch != 1 || armed.dispatch <= 1) {
				t.Errorf("the shot dispatched %d closures, the callbacks %d", shot.dispatch, armed.dispatch)
			}
		})
	}
}

// TestDisarmScopedToLaunch: a spent Shot does not leak into the next launch
// of the same kernel on the same device. Left spent, the next launch runs it
// as if absent but for the trampoline charge; re-armed by its tool, it counts
// from the start of that launch and lands on the same execution again.
func TestDisarmScopedToLaunch(t *testing.T) {
	d := newTestDevice(t)
	k := mustKernel(t, saxpySrc, "saxpy")
	const n = 256
	xp, _ := d.Mem.Alloc(4 * n)
	yp, _ := d.Mem.Alloc(4 * n)

	type landing struct{ pc, block, warp, lane int }
	var hits []landing
	s := &Shot{Target: 1000, Hit: func(c *InstrCtx, lane int) {
		hits = append(hits, landing{c.InstrIdx, c.BlockLin, c.WarpID, lane})
	}}
	ek := &ExecKernel{K: k}
	armShot(ek, s, false, nil)
	launch := func() LaunchStats {
		stats, err := d.Run(&Launch{
			Kernel: ek,
			Grid:   Dim3{X: n / 128, Y: 1, Z: 1},
			Block:  Dim3{X: 128, Y: 1, Z: 1},
			Params: []uint32{n, f32bits(2), xp, yp},
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	first := launch()
	if len(hits) != 1 || !s.Fired {
		t.Fatalf("first launch: %d hits, fired %v", len(hits), s.Fired)
	}
	spent := launch()
	if len(hits) != 1 {
		t.Fatalf("a spent Shot hit again in the next launch: %v", hits)
	}
	if spent.TrampolineInstrs != first.TrampolineInstrs || spent.WarpInstrs != first.WarpInstrs {
		t.Fatalf("spent launch stats %+v, first %+v", spent, first)
	}
	s.Count, s.Fired = 0, false
	again := launch()
	if len(hits) != 2 || hits[1] != hits[0] {
		t.Fatalf("re-armed Shot landed at %v, first at %v", hits[1:], hits[0])
	}
	if again != first {
		t.Fatalf("re-armed launch stats %+v, first %+v", again, first)
	}
}
