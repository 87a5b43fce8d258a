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
