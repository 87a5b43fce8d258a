package cuda_test

import (
	"math/bits"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/cuda"
	"repro/internal/race"
)

// replaySrc is a one-warp kernel long enough (about 130 warp instructions)
// that a 48-instruction stride drops checkpoints inside every launch.
const replaySrc = `
.kernel iter
.param outptr
    S2R R0, SR_TID.X
    MOV R1, 0x1
    MOV R2, 0x14
loop:
    IMAD R1, R1, R0, 0x7
    LOP.XOR R1, R1, R2
    SHL R3, R1, 0x1
    IADD R1, R1, R3
    IADD R2, R2, -0x1
    ISETP.NE.AND P0, R2, 0x0, PT
@P0 BRA loop
    SHL R4, R0, 0x2
    IADD R4, R4, c0[outptr]
    STG.32 [R4], R1
    EXIT
`

const replayLaunches = 8

// replayHost is the host side of the recorded workload, split so a test can
// time individual launches: setup issues the calls before the first launch,
// launch issues one.
type replayHost struct {
	ctx *cuda.Context
	fn  *cuda.Function
	out cuda.DevPtr
}

func newReplayHost(t *testing.T, ctx *cuda.Context) *replayHost {
	t.Helper()
	mod, err := ctx.LoadModule("replay", replaySrc)
	if err != nil {
		t.Fatal(err)
	}
	fn, err := mod.Function("iter")
	if err != nil {
		t.Fatal(err)
	}
	out, err := ctx.Malloc(4 * 32)
	if err != nil {
		t.Fatal(err)
	}
	return &replayHost{ctx: ctx, fn: fn, out: out}
}

func (h *replayHost) launch(t *testing.T) {
	t.Helper()
	if err := h.ctx.Launch(h.fn, cfg1(), h.out); err != nil {
		t.Fatal(err)
	}
}

// mallocsOf reports the heap objects and bytes f allocates, measured the way
// testing.AllocsPerRun measures: one P, MemStats before and after.
func mallocsOf(f func()) (objects, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestReplayLaunchAllocs is the replay path's allocation gate. Launches on a
// replaying context go through the device's pausable run, which the device
// holds and rewrites: a warm live launch allocates nothing; a launch that
// restores a checkpoint allocates what any first launch on a fresh device does
// (constant bank, plan memo, the page it first writes) plus the fork's private
// page tables (two slices per device allocation, the Memory and its
// allocation list) and the run's parameter buffer; a launch that exits early
// on a digest match allocates nothing, gives its paused block back, and the
// launches short-circuited after it allocate nothing. The byte bounds
// are the pool-balance check: a block abandoned without release costs the
// next launch a fresh 33 KiB warp. Under -race the counts are only logged.
func TestReplayLaunchAllocs(t *testing.T) {
	// A collection in mid-test empties the sync.Pools, and the next Get on
	// each reallocates its per-P array: the collector's allocations, which
	// land on whichever launch comes next. Where collections fall depends
	// on the tests run before this one, so none runs while it measures.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rec := newCtx(t)
	if err := rec.StartRecording(48); err != nil {
		t.Fatal(err)
	}
	host := newReplayHost(t, rec)
	for i := 0; i < replayLaunches; i++ {
		host.launch(t)
	}
	trace, err := rec.FinishRecording()
	if err != nil {
		t.Fatal(err)
	}
	if trace.Checkpoints() < replayLaunches {
		t.Fatalf("trace holds %d checkpoints, want one or more per launch", trace.Checkpoints())
	}
	check := func(label string, objects, bytes, maxObjects uint64) {
		t.Helper()
		if race.Enabled {
			t.Logf("%s allocated %d objects, %d bytes under -race", label, objects, bytes)
		} else if objects > maxObjects || bytes > 16<<10 {
			t.Errorf("%s allocated %d objects, %d bytes; want at most %d objects and no fresh warp", label, objects, bytes, maxObjects)
		}
	}

	// Live: nothing restored, every launch executes through BeginRun/Resume.
	live := newCtx(t)
	if err := live.BeginReplay(trace, cuda.ReplayPlan{RestoreCall: -1, FaultCall: -1}); err != nil {
		t.Fatal(err)
	}
	host = newReplayHost(t, live)
	first, _ := mallocsOf(func() { host.launch(t) }) // also warms the pools
	avg := testing.AllocsPerRun(replayLaunches-2, func() { host.launch(t) })
	check("live replay launch", uint64(avg), 0, 0)

	// Restored and early-exited, over and over on fresh contexts: the fault
	// "targets" launch 3, the latest checkpoint before it lies inside launch 2,
	// and the probe claims the fault fired, so launch 3 compares digests at its
	// first recorded boundary, finds the golden state and exits early.
	for rep := 0; rep < 60; rep++ {
		ctx := newCtx(t)
		plan := trace.PlanRestore("iter", 3, -1, 0, false)
		if plan.Ckpt == nil {
			t.Fatal("no checkpoint before launch 3")
		}
		plan.Probe = func() bool { return true }
		if err := ctx.BeginReplay(trace, plan); err != nil {
			t.Fatal(err)
		}
		host := newReplayHost(t, ctx)
		host.launch(t) // 0 and 1 are served from the journal
		host.launch(t)
		objects, bytes := mallocsOf(func() { host.launch(t) })
		if !ctx.ReplayRestored() {
			t.Fatal("launch 2 did not restore")
		}
		check("restored launch", objects, bytes, first+2+2*1+1)
		objects, bytes = mallocsOf(func() { host.launch(t) })
		if !ctx.ReplayEarlyExited() {
			t.Fatal("launch 3 did not exit early")
		}
		check("early-exited launch", objects, bytes, 0)
		objects, bytes = mallocsOf(func() { host.launch(t) })
		check("launch after the early exit", objects, bytes, 0)
		if err := ctx.ReplayErr(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReplayMatchesWholeLaunch requires a short-circuiting replay to match a
// launch by its whole request: a launch before the restore call that differs
// from the recorded one in a parameter word, its grid, its block or its shared
// bytes is a divergence, and the same launch again is not.
func TestReplayMatchesWholeLaunch(t *testing.T) {
	rec := newCtx(t)
	if err := rec.StartRecording(48); err != nil {
		t.Fatal(err)
	}
	h := newReplayHost(t, rec)
	for i := 0; i < 3; i++ {
		h.launch(t)
	}
	trace, err := rec.FinishRecording()
	if err != nil {
		t.Fatal(err)
	}
	// Call 0 is the Malloc; the plan restores inside call 2, the second launch.
	plan := trace.PlanRestore("iter", 2, -1, 0, false)
	if plan.RestoreCall != 2 {
		t.Fatalf("plan restores at call %d, want 2", plan.RestoreCall)
	}
	for _, c := range []struct {
		name     string
		edit     func(cfg *cuda.LaunchConfig, out *cuda.DevPtr)
		diverges bool
	}{
		{"same", func(*cuda.LaunchConfig, *cuda.DevPtr) {}, false},
		{"param", func(_ *cuda.LaunchConfig, out *cuda.DevPtr) { *out += 4 }, true},
		{"grid", func(cfg *cuda.LaunchConfig, _ *cuda.DevPtr) { cfg.Grid.Y = 2 }, true},
		{"block", func(cfg *cuda.LaunchConfig, _ *cuda.DevPtr) { cfg.Block.X = 16 }, true},
		{"shared", func(cfg *cuda.LaunchConfig, _ *cuda.DevPtr) { cfg.SharedBytes = 64 }, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			ctx := newCtx(t)
			if err := ctx.BeginReplay(trace, plan); err != nil {
				t.Fatal(err)
			}
			h := newReplayHost(t, ctx)
			cfg, out := cfg1(), h.out
			c.edit(&cfg, &out)
			err := ctx.Launch(h.fn, cfg, out)
			if got := ctx.ReplayErr() != nil; got != c.diverges || (err != nil) != c.diverges {
				t.Fatalf("the first launch returned %v, replay error %v; want a divergence: %v", err, ctx.ReplayErr(), c.diverges)
			}
		})
	}
}

// TestRecordingParamAllocs: a recording keeps every launch's parameter words
// in one trace-wide slab, so journaling N launches allocates O(log N) times —
// the slab's and the call list's doublings — not once per launch, and each
// launch still keeps its own words, capped, though the context hands every
// launch the same scratch.
func TestRecordingParamAllocs(t *testing.T) {
	const launches, width = 4096, 3
	scratch := make([]uint32, width)
	words := func(i int) []uint32 {
		for k := range scratch {
			scratch[k] = uint32(i + k)
		}
		return scratch
	}
	var trace *cuda.Trace
	objects, _ := mallocsOf(func() { trace = cuda.NoteLaunches(launches, words) })
	// append grows the call list and the slab by a constant factor (2, then
	// about 1.25 past 256 elements): logarithmically many growths each. One
	// allocation per launch is 4096.
	if max := uint64(3 * bits.Len(launches*width)); race.Enabled {
		t.Logf("journaling %d launches allocated %d objects under -race", launches, objects)
	} else if objects > max {
		t.Errorf("journaling %d launches allocated %d objects, want at most %d", launches, objects, max)
	}
	for i := 0; i < launches; i++ {
		got := trace.LaunchWords(i)
		if len(got) != width || cap(got) != width || got[0] != uint32(i) || got[width-1] != uint32(i+width-1) {
			t.Fatalf("launch %d kept words %v (cap %d), want %d from %d on", i, got, cap(got), width, i)
		}
	}
}

// TestRecordingLaunchAllocs: a recording tallies every launch per static
// instruction for its checkpoints in a buffer the device's runs share, so
// recording N launches through Context.Launch allocates O(log N) times — the
// journal's call list and parameter slab growing — not once per launch.
func TestRecordingLaunchAllocs(t *testing.T) {
	const launches = 4096
	ctx := newCtx(t)
	h := newReplayHost(t, ctx)
	h.launch(t) // warms the plan, the constant bank and the pools
	if err := ctx.StartRecording(0); err != nil {
		t.Fatal(err)
	}
	objects, _ := mallocsOf(func() {
		for i := 0; i < launches; i++ {
			h.launch(t)
		}
	})
	// The journal's two growing slices, the pools re-pinned to one P and the
	// tally buffer once: about 40. One allocation per launch is 4096.
	if max := uint64(4 * bits.Len(launches)); race.Enabled {
		t.Logf("recording %d launches allocated %d objects under -race", launches, objects)
	} else if objects > max {
		t.Errorf("recording %d launches allocated %d objects, want at most %d", launches, objects, max)
	}
	if _, err := ctx.FinishRecording(); err != nil {
		t.Fatal(err)
	}
}
