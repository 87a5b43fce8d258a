package gpu

import (
	"fmt"
	"reflect"
	"testing"
)

// instrRun is one instrumented-launch observation for the amortization
// differentials: everything expectSame checks, plus the per-SM clocks the
// trampoline accounting must not perturb and the number of callback
// dispatches that actually happened.
type instrRun struct {
	parRun
	clocks    []uint64
	dispatch  int
	activated bool
}

// runSaxpyInstrumented runs the saxpy kernel with an After callback on
// every instruction. The callback mimics a transient injector: it counts
// dynamic executions, corrupts one register at execution fireAt, then goes
// inert — and, when disarm is true, calls Disarm after corrupting. A
// non-positive fireAt never corrupts.
func runSaxpyInstrumented(t *testing.T, fireAt int, disarm, noXlate bool, budget uint64) instrRun {
	t.Helper()
	d := newTestDevice(t)
	d.NoXlate = noXlate
	d.DisableDisarm = !disarm
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
	seen := 0
	ek := &ExecKernel{K: k}
	ek.After = make([][]Callback, len(k.Instrs))
	cb := func(c *InstrCtx) {
		r.dispatch++
		if r.activated || fireAt <= 0 {
			return
		}
		seen++
		if seen < fireAt {
			return
		}
		for lane := 0; lane < WarpSize; lane++ {
			if !c.LaneActive(lane) {
				continue
			}
			c.WriteReg(lane, 6, c.ReadReg(lane, 6)^0x40000)
			break
		}
		r.activated = true
		c.Disarm()
	}
	for i := range k.Instrs {
		ek.After[i] = []Callback{cb}
	}

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
		{"clean", 0, 0},
		{"fault", 100, 0},
		{"budget-trap", 0, 150},
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

// TestDisarmDifferential: after the injected corruption, the disarmed
// callback-free loop must be observably identical to full armed dispatch —
// same outputs, LaunchStats (trampoline accounting included), per-SM
// clocks, traps, and device log — while provably skipping the remaining
// closure dispatch.
func TestDisarmDifferential(t *testing.T) {
	for _, budget := range []uint64{0, 200} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			armed := runSaxpyInstrumented(t, 100, false, false, budget)
			disarmed := runSaxpyInstrumented(t, 100, true, false, budget)
			expectSameInstr(t, "disarmed vs armed", armed, disarmed)
			if armed.activated != disarmed.activated {
				t.Fatalf("activation differs: armed %v, disarmed %v", armed.activated, disarmed.activated)
			}
			if armed.activated && disarmed.dispatch >= armed.dispatch {
				t.Errorf("disarm did not reduce callback dispatch: %d vs armed %d",
					disarmed.dispatch, armed.dispatch)
			}
		})
	}
}

// TestDisarmScopedToLaunch: disarm must not leak into the next launch on
// the same device — each Launch re-arms its instrumentation.
func TestDisarmScopedToLaunch(t *testing.T) {
	d := newTestDevice(t)
	k := mustKernel(t, saxpySrc, "saxpy")
	const n = 256
	xp, _ := d.Mem.Alloc(4 * n)
	yp, _ := d.Mem.Alloc(4 * n)

	dispatch := 0
	disarmAtFirst := true
	ek := &ExecKernel{K: k}
	ek.After = make([][]Callback, len(k.Instrs))
	cb := func(c *InstrCtx) {
		dispatch++
		if disarmAtFirst {
			disarmAtFirst = false
			c.Disarm()
		}
	}
	for i := range k.Instrs {
		ek.After[i] = []Callback{cb}
	}
	launch := func() int {
		dispatch = 0
		_, err := d.Run(&Launch{
			Kernel: ek,
			Grid:   Dim3{X: n / 128, Y: 1, Z: 1},
			Block:  Dim3{X: 128, Y: 1, Z: 1},
			Params: []uint32{n, f32bits(2), xp, yp},
		})
		if err != nil {
			t.Fatal(err)
		}
		return dispatch
	}
	first := launch() // disarms on its very first dispatch
	disarmAtFirst = false
	second := launch() // fresh Launch: fully armed again
	if first != 1 {
		t.Fatalf("first launch dispatched %d callbacks after immediate disarm, want 1", first)
	}
	if second <= first {
		t.Fatalf("second launch dispatched %d callbacks; disarm leaked across launches", second)
	}
}
