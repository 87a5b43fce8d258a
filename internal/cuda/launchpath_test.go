package cuda_test

import (
	"testing"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/race"
)

// eventCopy is what a subscriber may keep of a LaunchEvent: a copy.
type eventCopy struct {
	fn      string
	stats   gpu.LaunchStats
	trap    *gpu.Trap
	skipped bool
	exec    *gpu.ExecKernel
}

// secondSubscriber records, by value, the event each OnLaunchEnd shows it.
// It is subscribed behind another subscriber, so it sees the event after the
// first one is done with it.
type secondSubscriber struct{ ends []eventCopy }

func (*secondSubscriber) OnModuleLoad(*cuda.Module)       {}
func (*secondSubscriber) OnLaunchBegin(*cuda.LaunchEvent) {}
func (s *secondSubscriber) OnLaunchEnd(ev *cuda.LaunchEvent) {
	s.ends = append(s.ends, eventCopy{ev.Function.Name(), ev.Stats, ev.Trap, ev.Skipped, ev.Exec})
}

// TestNestedSubscriberEvent: the context reuses one LaunchEvent for every
// launch, so each launch must rewrite it whole — a second subscriber's
// OnLaunchEnd sees this launch's Stats and Trap, and a launch issued after a
// trapped one (skipped, on the poisoned context) sees neither the previous
// launch's Trap nor its Stats.
func TestNestedSubscriberEvent(t *testing.T) {
	ctx := newCtx(t)
	mod, err := ctx.LoadModule("m", modSrc)
	if err != nil {
		t.Fatal(err)
	}
	store, err := mod.Function("store42")
	if err != nil {
		t.Fatal(err)
	}
	crash, err := mod.Function("crash")
	if err != nil {
		t.Fatal(err)
	}
	out, err := ctx.Malloc(4 * 64)
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Subscribe(&recordingSubscriber{})()
	second := &secondSubscriber{}
	defer ctx.Subscribe(second)()

	two := cfg1()
	two.Grid.X = 2
	before := ctx.AccumulatedStats()
	if err := ctx.Launch(store, cfg1(), out); err != nil {
		t.Fatal(err)
	}
	afterOne := ctx.AccumulatedStats()
	if err := ctx.Launch(store, two, out); err != nil {
		t.Fatal(err)
	}
	afterTwo := ctx.AccumulatedStats()
	if err := ctx.Launch(crash, cfg1()); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Launch(store, cfg1(), out); err == nil {
		t.Fatal("launch on a poisoned context succeeded")
	}

	if len(second.ends) != 4 {
		t.Fatalf("second subscriber saw %d launch ends, want 4", len(second.ends))
	}
	e := second.ends
	if e[0].stats.WarpInstrs != afterOne.WarpInstrs-before.WarpInstrs || e[0].stats.Blocks != 1 {
		t.Errorf("first launch: event stats %+v, context accumulated %+v", e[0].stats, afterOne)
	}
	if e[1].stats.WarpInstrs != afterTwo.WarpInstrs-afterOne.WarpInstrs || e[1].stats.Blocks != 2 {
		t.Errorf("second launch: event stats %+v do not describe a two-block launch", e[1].stats)
	}
	if e[0].trap != nil || e[1].trap != nil {
		t.Error("clean launches carry a trap")
	}
	if e[2].trap == nil || e[2].trap.Kind != gpu.TrapIllegalAddress || e[2].trap != ctx.StickyTrap() {
		t.Errorf("trapped launch: event trap %+v, sticky trap %+v", e[2].trap, ctx.StickyTrap())
	}
	if e[2].stats.WarpInstrs == 0 || e[2].stats.WarpInstrs == e[1].stats.WarpInstrs {
		t.Errorf("trapped launch: event stats %+v are not its own", e[2].stats)
	}
	if !e[3].skipped || e[3].trap != nil || e[3].stats != (gpu.LaunchStats{}) || e[3].fn != "store42" {
		t.Errorf("launch after the trap: %+v, want a skipped store42 with no trap and no stats", e[3])
	}
	if e[0].exec == nil || e[0].exec != e[1].exec || e[0].exec == e[2].exec {
		t.Error("uninstrumented launches of one function should present that function's own ExecKernel")
	}
}

// swapSubscriber replaces every launch's kernel with a prebuilt instrumented
// one, like a tool whose JIT build is cached.
type swapSubscriber struct{ ek *gpu.ExecKernel }

func (swapSubscriber) OnModuleLoad(*cuda.Module)            {}
func (s swapSubscriber) OnLaunchBegin(ev *cuda.LaunchEvent) { ev.Exec = s.ek }
func (swapSubscriber) OnLaunchEnd(*cuda.LaunchEvent)        {}

// TestLaunchAllocs is the driver half of the allocation gate: a warm
// Context.Launch → Device.Run of a one-block kernel allocates nothing, with
// or without a subscriber swapping in an instrumented kernel. Under -race the
// launches run but the count is only logged (see internal/race).
func TestLaunchAllocs(t *testing.T) {
	ctx := newCtx(t)
	mod, err := ctx.LoadModule("m", modSrc)
	if err != nil {
		t.Fatal(err)
	}
	fn, err := mod.Function("store42")
	if err != nil {
		t.Fatal(err)
	}
	out, err := ctx.Malloc(4 * 32)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cfg1()
	launch := func() {
		if err := ctx.Launch(fn, cfg, out); err != nil {
			t.Fatal(err)
		}
	}
	gate := func(label string) {
		t.Helper()
		launch() // warm: plan, pools, the context's parameter buffer
		avg := testing.AllocsPerRun(20, launch)
		if race.Enabled {
			t.Logf("%s launch allocated %.1f objects under -race", label, avg)
		} else if avg != 0 {
			t.Errorf("%s launch allocated %.1f objects, want 0", label, avg)
		}
	}
	gate("uninstrumented")

	k := fn.Kernel()
	var lanes int
	ek := &gpu.ExecKernel{K: k, After: make([][]gpu.Callback, len(k.Instrs))}
	for i := range k.Instrs {
		ek.After[i] = []gpu.Callback{func(c *gpu.InstrCtx) { lanes += c.LaneCount() }}
	}
	defer ctx.Subscribe(swapSubscriber{ek})()
	gate("instrumented")
	if lanes == 0 {
		t.Error("instrumentation callbacks never ran")
	}
}
