package nvbit_test

import (
	"testing"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/nvbit"
	"repro/internal/race"
	"repro/internal/sass"
)

// infoTool copies, per callback, the LaunchInfo it is shown (the pointer is
// the attachment's scratch and must not be kept) and instruments "beta" with
// a callback that allocates nothing and, beside it, the in-line lane tally.
type infoTool struct {
	begins, dones []nvbit.LaunchInfo
	skipped       []bool
	execs         int
	tally         []gpu.SiteTally
}

func (*infoTool) Name() string { return "info" }

func (it *infoTool) OnLaunch(info *nvbit.LaunchInfo) nvbit.Decision {
	if it.begins != nil {
		it.begins = append(it.begins, *info)
	}
	if info.Kernel.Name == "beta" {
		return nvbit.Decision{Instrument: true, Key: "count"}
	}
	return nvbit.RunOriginal
}

func (it *infoTool) Instrument(_ *sass.Kernel, _ string, ins *nvbit.Inserter) {
	for i := range ins.Instrs() {
		ins.InsertAfter(i, func(c *gpu.InstrCtx) { it.execs += c.LaneCount() })
	}
	it.tally = make([]gpu.SiteTally, len(ins.Instrs()))
	ins.TallyLanes(it.tally)
}

func (it *infoTool) OnLaunchDone(info *nvbit.LaunchInfo, _ gpu.LaunchStats, _ *gpu.Trap, skipped bool) {
	if it.dones != nil {
		it.dones = append(it.dones, *info)
		it.skipped = append(it.skipped, skipped)
	}
}

const crashSrc = `
.kernel crash
    MOV R1, 0x4
    LDG.32 R2, [R1]
    EXIT
`

// TestLaunchInfoPerLaunch: the attachment hands every callback the same
// LaunchInfo storage, so it must describe the launch in flight each time —
// OnLaunchDone repeats OnLaunch's values, the next launch replaces them, and
// a launch skipped on a poisoned context (which never began) is described
// from its event alone, not by whatever launch came before.
func TestLaunchInfoPerLaunch(t *testing.T) {
	ctx := newCtx(t, sass.FamilyVolta)
	tool := &infoTool{begins: []nvbit.LaunchInfo{}, dones: []nvbit.LaunchInfo{}}
	att, err := nvbit.Attach(ctx, tool)
	if err != nil {
		t.Fatal(err)
	}
	defer att.Detach()
	mod, err := ctx.LoadModule("m", twoKernelSrc)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := ctx.LoadModule("bad", crashSrc)
	if err != nil {
		t.Fatal(err)
	}
	fn := func(m *cuda.Module, name string) *cuda.Function {
		t.Helper()
		f, err := m.Function(name)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	alpha, beta, crash := fn(mod, "alpha"), fn(mod, "beta"), fn(bad, "crash")
	out, err := ctx.Malloc(4 * 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []*cuda.Function{alpha, beta, beta} {
		if err := ctx.Launch(f, cfg1(), out); err != nil {
			t.Fatal(err)
		}
	}
	if err := ctx.Launch(crash, cfg1()); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Launch(alpha, cfg1(), out); err == nil {
		t.Fatal("launch on a poisoned context succeeded")
	}

	want := []struct {
		kernel, module string
		index, global  int
	}{{"alpha", "m", 0, 0}, {"beta", "m", 0, 1}, {"beta", "m", 1, 2}, {"crash", "bad", 0, 3}}
	if len(tool.begins) != len(want) || len(tool.dones) != len(want)+1 {
		t.Fatalf("%d OnLaunch and %d OnLaunchDone calls, want %d and %d",
			len(tool.begins), len(tool.dones), len(want), len(want)+1)
	}
	for i, w := range want {
		b, d := tool.begins[i], tool.dones[i]
		if b.Kernel.Name != w.kernel || b.Module != w.module || b.LaunchIndex != w.index || b.GlobalLaunch != w.global {
			t.Errorf("launch %d: OnLaunch saw %s/%s #%d (global %d), want %+v", i, b.Kernel.Name, b.Module, b.LaunchIndex, b.GlobalLaunch, w)
		}
		if d != b {
			t.Errorf("launch %d: OnLaunchDone saw %+v, OnLaunch saw %+v", i, d, b)
		}
		if tool.skipped[i] {
			t.Errorf("launch %d reported skipped", i)
		}
	}
	last := tool.dones[len(want)]
	if !tool.skipped[len(want)] || last.Kernel == nil || last.Kernel.Name != "alpha" || last.Module != "m" ||
		last.LaunchIndex != 0 || last.GlobalLaunch != 0 {
		t.Errorf("skipped launch described as %+v (skipped %v), want a bare alpha/m", last, tool.skipped[len(want)])
	}
	if att.TotalLaunches() != 4 || att.InstrumentedLaunches() != 2 || att.JITBuilds() != 1 {
		t.Errorf("launches %d, instrumented %d, JIT builds %d; want 4, 2, 1",
			att.TotalLaunches(), att.InstrumentedLaunches(), att.JITBuilds())
	}
}

// TestKernelIDsAcrossModules: KernelID numbers the kernels of the decoded
// modules densely in load order, while LaunchIndex counts launches per kernel
// name — two modules holding a kernel of the same name share one count.
func TestKernelIDsAcrossModules(t *testing.T) {
	ctx := newCtx(t, sass.FamilyVolta)
	tool := &infoTool{begins: []nvbit.LaunchInfo{}}
	att, err := nvbit.Attach(ctx, tool)
	if err != nil {
		t.Fatal(err)
	}
	defer att.Detach()
	out, err := ctx.Malloc(4 * 32)
	if err != nil {
		t.Fatal(err)
	}
	mods := map[string]*cuda.Module{}
	for _, name := range []string{"m", "m2"} {
		if mods[name], err = ctx.LoadModule(name, twoKernelSrc); err != nil {
			t.Fatal(err)
		}
	}
	want := []struct {
		module, kernel string
		id, index      int
	}{{"m", "beta", 1, 0}, {"m2", "beta", 3, 1}, {"m2", "alpha", 2, 0}, {"m", "alpha", 0, 1}, {"m2", "beta", 3, 2}}
	for _, w := range want {
		f, err := mods[w.module].Function(w.kernel)
		if err != nil {
			t.Fatal(err)
		}
		if err := ctx.Launch(f, cfg1(), out); err != nil {
			t.Fatal(err)
		}
	}
	for i, w := range want {
		b := tool.begins[i]
		if b.Module != w.module || b.Kernel.Name != w.kernel || b.KernelID != w.id || b.LaunchIndex != w.index {
			t.Errorf("launch %d: %s/%s id %d #%d, want %+v", i, b.Module, b.Kernel.Name, b.KernelID, b.LaunchIndex, w)
		}
	}
}

// TestAttachedLaunchAllocs is the NVBit half of the allocation gate: with a
// tool attached, a launch it declines and a launch it instruments from a
// cached JIT build both allocate nothing outside the tool's own callbacks
// (infoTool's allocate nothing either). Under -race the launches run but the
// count is only logged (see internal/race).
func TestAttachedLaunchAllocs(t *testing.T) {
	ctx := newCtx(t, sass.FamilyVolta)
	tool := &infoTool{}
	att, err := nvbit.Attach(ctx, tool)
	if err != nil {
		t.Fatal(err)
	}
	defer att.Detach()
	mod, err := ctx.LoadModule("m", twoKernelSrc)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ctx.Malloc(4 * 32)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cfg1()
	for _, name := range []string{"alpha", "beta"} {
		f, err := mod.Function(name)
		if err != nil {
			t.Fatal(err)
		}
		launch := func() {
			if err := ctx.Launch(f, cfg, out); err != nil {
				t.Fatal(err)
			}
		}
		launch() // warm: plan, pools, JIT build
		avg := testing.AllocsPerRun(20, launch)
		if race.Enabled {
			t.Logf("%s launch allocated %.1f objects under -race", name, avg)
		} else if avg != 0 {
			t.Errorf("%s launch allocated %.1f objects, want 0", name, avg)
		}
	}
	if att.JITBuilds() != 1 || att.InstrumentedLaunches() != 22 {
		t.Errorf("JIT builds %d, instrumented launches %d; want 1 and 22", att.JITBuilds(), att.InstrumentedLaunches())
	}
	var tallied uint64
	for _, c := range tool.tally {
		tallied += c.Threads
	}
	if tallied != uint64(tool.execs) {
		t.Errorf("in-line tally counted %d thread executions, the callbacks %d", tallied, tool.execs)
	}
	if tool.execs == 0 {
		t.Error("instrumentation callbacks never ran")
	}
}
