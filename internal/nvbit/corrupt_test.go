package nvbit_test

import (
	"testing"

	"repro/internal/gpu"
	"repro/internal/nvbit"
	"repro/internal/race"
	"repro/internal/sass"
)

// corruptTool instruments every launch with one in-line permanent fault on
// the given opcodes, charging their functional categories.
type corruptTool struct {
	spec gpu.Corruption
	cats uint32
}

func newCorruptTool(ops ...string) *corruptTool {
	ct := &corruptTool{spec: gpu.Corruption{Lane: 1, Value: func(_ sass.Op, old uint32) uint32 { return old ^ 4 }}}
	for _, name := range ops {
		op := sass.MustOp(name)
		ct.spec.Ops.Add(op)
		ct.cats |= 1 << op.Info().Cat
	}
	return ct
}

func (*corruptTool) Name() string { return "corrupt" }
func (*corruptTool) OnLaunch(*nvbit.LaunchInfo) nvbit.Decision {
	return nvbit.Decision{Instrument: true, Key: "pf"}
}
func (ct *corruptTool) Instrument(_ *sass.Kernel, _ string, ins *nvbit.Inserter) {
	ins.Corrupt(&ct.spec, ct.cats)
}
func (*corruptTool) OnLaunchDone(*nvbit.LaunchInfo, gpu.LaunchStats, *gpu.Trap, bool) {}

// TestCorruptionFactsPerKernel: every experiment attaches its own fault and
// builds its own ExecKernel of a kernel the module cache shares, and none
// after the first derives the kernel's Corruption site facts again — the
// builds share them, keyed by the charged categories and the whole opcode set
// (a fault on one more opcode gets facts of its own). The lookup allocates
// nothing, so a spec build allocates only its ExecKernel; the fault fires.
func TestCorruptionFactsPerKernel(t *testing.T) {
	experiment := func(tool *corruptTool) *gpu.ExecKernel {
		t.Helper()
		ctx := newCtx(t, sass.FamilyVolta)
		att, err := nvbit.Attach(ctx, tool)
		if err != nil {
			t.Fatal(err)
		}
		defer att.Detach()
		mod, err := ctx.LoadModule("m", twoKernelSrc)
		if err != nil {
			t.Fatal(err)
		}
		f, err := mod.Function("beta")
		if err != nil {
			t.Fatal(err)
		}
		out, err := ctx.Malloc(4 * 32)
		if err != nil {
			t.Fatal(err)
		}
		if err := ctx.Launch(f, cfg1(), out); err != nil {
			t.Fatal(err)
		}
		ek := att.BuildFor(f, "pf")
		if ek == nil || ek.Corrupt != &tool.spec || ek.Before != nil || ek.After != nil {
			t.Fatalf("the build is %+v, want the tool's spec and no callback table", ek)
		}
		if tool.spec.Activations == 0 || tool.spec.Corruptions == 0 {
			t.Fatalf("%d activations, %d corruptions", tool.spec.Activations, tool.spec.Corruptions)
		}
		return ek
	}
	first := experiment(newCorruptTool("IADD"))
	second := experiment(newCorruptTool("IADD"))
	if first == second || first.CorruptSites != second.CorruptSites {
		t.Error("a second experiment derived its own Corruption site facts")
	}
	if wider := experiment(newCorruptTool("IADD", "SHL")); wider.CorruptSites == first.CorruptSites {
		t.Error("a fault on another opcode set shares the first one's site facts")
	}

	k := first.K
	tool := newCorruptTool("IADD")
	avg := testing.AllocsPerRun(20, func() {
		if nvbit.CorruptionSites(k, tool.cats, &tool.spec.Ops) != first.CorruptSites {
			t.Fatal("lookup missed the shared facts")
		}
	})
	if race.Enabled {
		t.Logf("the site-facts lookup allocated %.1f objects under -race", avg)
	} else if avg != 0 {
		t.Errorf("the site-facts lookup allocated %.1f objects, want 0", avg)
	}
}

// shotTool instruments every launch with one Shot armed on the given opcodes
// (at pc only, when pc >= 0).
type shotTool struct {
	spec gpu.Shot
	ops  sass.OpSet
	pc   int
	hits int
}

func (*shotTool) Name() string { return "shot" }
func (*shotTool) OnLaunch(*nvbit.LaunchInfo) nvbit.Decision {
	return nvbit.Decision{Instrument: true, Key: "shot"}
}
func (st *shotTool) Instrument(_ *sass.Kernel, _ string, ins *nvbit.Inserter) {
	ins.Shot(&st.spec, &st.ops, st.pc)
}
func (*shotTool) OnLaunchDone(*nvbit.LaunchInfo, gpu.LaunchStats, *gpu.Trap, bool) {}

// TestShotFactsPerKernel: a Shot's site facts are shared like a Corruption's,
// keyed by opcode set, armed pc and Pre hook; the lookup allocates nothing,
// and the Shot lands once.
func TestShotFactsPerKernel(t *testing.T) {
	experiment := func(pc int, pre bool) *gpu.ExecKernel {
		t.Helper()
		tool := &shotTool{pc: pc}
		tool.ops.Add(sass.MustOp("IADD"))
		tool.spec.Hit = func(*gpu.InstrCtx, int) { tool.hits++ }
		if pre {
			tool.spec.Pre = func(*gpu.InstrCtx, int) {}
		}
		ctx := newCtx(t, sass.FamilyVolta)
		att, err := nvbit.Attach(ctx, tool)
		if err != nil {
			t.Fatal(err)
		}
		defer att.Detach()
		mod, err := ctx.LoadModule("m", twoKernelSrc)
		if err != nil {
			t.Fatal(err)
		}
		f, err := mod.Function("beta")
		if err != nil {
			t.Fatal(err)
		}
		out, err := ctx.Malloc(4 * 32)
		if err != nil {
			t.Fatal(err)
		}
		if err := ctx.Launch(f, cfg1(), out); err != nil {
			t.Fatal(err)
		}
		ek := att.BuildFor(f, "shot")
		if ek == nil || ek.Shot != &tool.spec || ek.Before != nil || ek.After != nil {
			t.Fatalf("the build is %+v, want the tool's spec and no callback table", ek)
		}
		if tool.hits != 1 || !tool.spec.Fired {
			t.Fatalf("%d hits, fired %v", tool.hits, tool.spec.Fired)
		}
		return ek
	}
	first := experiment(-1, false)
	if second := experiment(-1, false); second == first || second.ShotSites != first.ShotSites {
		t.Error("a second experiment derived its own Shot site facts")
	}
	if experiment(-1, true).ShotSites == first.ShotSites {
		t.Error("a Shot with a Pre hook shares the facts of one without")
	}
	var ops sass.OpSet
	ops.Add(sass.MustOp("IADD"))
	k := first.K
	pc := -1
	for i := range k.Instrs {
		if ops.Has(k.Instrs[i].Op) {
			pc = i
			break
		}
	}
	if one := experiment(pc, false); one.ShotSites == first.ShotSites {
		t.Error("a Shot on one pc shares the facts of one on every instruction of its opcodes")
	}
	avg := testing.AllocsPerRun(20, func() {
		if nvbit.ShotSites(k, &ops, -1, false) != first.ShotSites {
			t.Fatal("lookup missed the shared facts")
		}
	})
	if race.Enabled {
		t.Logf("the site-facts lookup allocated %.1f objects under -race", avg)
	} else if avg != 0 {
		t.Errorf("the site-facts lookup allocated %.1f objects, want 0", avg)
	}
}
