package nvbit_test

import (
	"fmt"
	"testing"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/nvbit"
	"repro/internal/sass"
	"repro/internal/sass/encoding"
)

const twoKernelSrc = `
.kernel alpha
.param outptr
    S2R R0, SR_TID.X
    SHL R1, R0, 0x2
    IADD R2, R1, c0[outptr]
    MOV R3, 0x1
    STG.32 [R2], R3
    EXIT

.kernel beta
.param outptr
    S2R R0, SR_TID.X
    SHL R1, R0, 0x2
    IADD R2, R1, c0[outptr]
    MOV R3, 0x2
    STG.32 [R2], R3
    EXIT
`

func newCtx(t *testing.T, family sass.Family) *cuda.Context {
	t.Helper()
	dev, err := gpu.NewDevice(family, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := cuda.NewContext(dev)
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

func cfg1() cuda.LaunchConfig {
	return cuda.LaunchConfig{Grid: gpu.Dim3{X: 1, Y: 1, Z: 1}, Block: gpu.Dim3{X: 32, Y: 1, Z: 1}}
}

// countingTool counts launches per kernel and instruments a chosen kernel
// with an execution counter.
type countingTool struct {
	target       string
	launches     []string
	indices      []int
	execs        int
	doneCount    int
	trapObserved bool
}

var _ nvbit.Tool = (*countingTool)(nil)

func (c *countingTool) Name() string { return "counter" }

func (c *countingTool) OnLaunch(info *nvbit.LaunchInfo) nvbit.Decision {
	c.launches = append(c.launches, info.Kernel.Name)
	c.indices = append(c.indices, info.LaunchIndex)
	if info.Kernel.Name == c.target {
		return nvbit.Decision{Instrument: true, Key: "count"}
	}
	return nvbit.RunOriginal
}

func (c *countingTool) Instrument(k *sass.Kernel, _ string, ins *nvbit.Inserter) {
	for i := range ins.Instrs() {
		ins.InsertAfter(i, func(ctx *gpu.InstrCtx) { c.execs += ctx.LaneCount() })
	}
}

func (c *countingTool) OnLaunchDone(_ *nvbit.LaunchInfo, _ gpu.LaunchStats, trap *gpu.Trap, _ bool) {
	c.doneCount++
	if trap != nil {
		c.trapObserved = true
	}
}

func TestInterceptionAndLaunchCounting(t *testing.T) {
	ctx := newCtx(t, sass.FamilyVolta)
	tool := &countingTool{target: "beta"}
	att, err := nvbit.Attach(ctx, tool)
	if err != nil {
		t.Fatal(err)
	}
	defer att.Detach()

	mod, err := ctx.LoadModule("m", twoKernelSrc)
	if err != nil {
		t.Fatal(err)
	}
	alpha, err := mod.Function("alpha")
	if err != nil {
		t.Fatal(err)
	}
	beta, err := mod.Function("beta")
	if err != nil {
		t.Fatal(err)
	}
	out, err := ctx.Malloc(4 * 32)
	if err != nil {
		t.Fatal(err)
	}
	// Launch pattern: alpha, beta, alpha, beta, beta.
	for _, f := range []*cuda.Function{alpha, beta, alpha, beta, beta} {
		if err := ctx.Launch(f, cfg1(), out); err != nil {
			t.Fatal(err)
		}
	}

	wantNames := []string{"alpha", "beta", "alpha", "beta", "beta"}
	wantIdx := []int{0, 0, 1, 1, 2}
	for i := range wantNames {
		if tool.launches[i] != wantNames[i] || tool.indices[i] != wantIdx[i] {
			t.Fatalf("launch %d = %s/%d, want %s/%d",
				i, tool.launches[i], tool.indices[i], wantNames[i], wantIdx[i])
		}
	}
	if tool.doneCount != 5 {
		t.Fatalf("done callbacks = %d", tool.doneCount)
	}
	if att.TotalLaunches() != 5 || att.InstrumentedLaunches() != 3 {
		t.Fatalf("attachment stats: total=%d instrumented=%d",
			att.TotalLaunches(), att.InstrumentedLaunches())
	}
	// JIT caching: three instrumented launches of beta share one build.
	if att.JITBuilds() != 1 {
		t.Fatalf("JIT builds = %d, want 1 (cached)", att.JITBuilds())
	}
	// beta has 6 instructions x 32 lanes x 3 launches.
	if tool.execs != 6*32*3 {
		t.Fatalf("instrumented executions = %d, want %d", tool.execs, 6*32*3)
	}
}

// TestSelectiveInstrumentationPreservesOutput: instrumented and original
// launches compute the same results.
func TestSelectiveInstrumentationPreservesOutput(t *testing.T) {
	ctx := newCtx(t, sass.FamilyVolta)
	tool := &countingTool{target: "alpha"}
	att, err := nvbit.Attach(ctx, tool)
	if err != nil {
		t.Fatal(err)
	}
	defer att.Detach()
	mod, err := ctx.LoadModule("m", twoKernelSrc)
	if err != nil {
		t.Fatal(err)
	}
	alpha, err := mod.Function("alpha")
	if err != nil {
		t.Fatal(err)
	}
	out, err := ctx.Malloc(4 * 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.Launch(alpha, cfg1(), out); err != nil {
		t.Fatal(err)
	}
	b, err := ctx.MemcpyDtoH(out, 4*32)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if b[4*i] != 1 {
			t.Fatalf("instrumented alpha wrote %d at %d", b[4*i], i)
		}
	}
}

// TestDecodeFromBinaryOnEveryFamily: the attachment decodes machine code —
// not source — into the instruction view, for every architecture family.
// This is the architectural-abstraction claim as a test.
func TestDecodeFromBinaryOnEveryFamily(t *testing.T) {
	prog := sass.MustAssemble("closed", twoKernelSrc)
	for _, fam := range sass.Families() {
		fam := fam
		t.Run(fam.String(), func(t *testing.T) {
			bin, err := encoding.MustCodec(fam).EncodeProgram(prog)
			if err != nil {
				t.Fatal(err)
			}
			ctx := newCtx(t, fam)
			tool := &countingTool{target: "alpha"}
			att, err := nvbit.Attach(ctx, tool)
			if err != nil {
				t.Fatal(err)
			}
			defer att.Detach()

			mod, err := ctx.LoadModuleBinary(bin) // no source anywhere
			if err != nil {
				t.Fatal(err)
			}
			alpha, err := mod.Function("alpha")
			if err != nil {
				t.Fatal(err)
			}
			out, err := ctx.Malloc(4 * 32)
			if err != nil {
				t.Fatal(err)
			}
			if err := ctx.Launch(alpha, cfg1(), out); err != nil {
				t.Fatal(err)
			}
			if tool.execs != 6*32 {
				t.Fatalf("instrumented executions = %d on %v", tool.execs, fam)
			}
			b, err := ctx.MemcpyDtoH(out, 4)
			if err != nil {
				t.Fatal(err)
			}
			if b[0] != 1 {
				t.Fatalf("decoded kernel computed wrong result on %v", fam)
			}
		})
	}
}

// TestAttachAfterModuleLoad: modules loaded before Attach are decoded at
// attach time.
func TestAttachAfterModuleLoad(t *testing.T) {
	ctx := newCtx(t, sass.FamilyVolta)
	mod, err := ctx.LoadModule("m", twoKernelSrc)
	if err != nil {
		t.Fatal(err)
	}
	tool := &countingTool{target: "alpha"}
	att, err := nvbit.Attach(ctx, tool)
	if err != nil {
		t.Fatal(err)
	}
	defer att.Detach()
	alpha, err := mod.Function("alpha")
	if err != nil {
		t.Fatal(err)
	}
	out, err := ctx.Malloc(4 * 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.Launch(alpha, cfg1(), out); err != nil {
		t.Fatal(err)
	}
	if tool.execs == 0 {
		t.Fatal("pre-loaded module was not decoded at attach time")
	}
}

// TestToolObservesTrap: OnLaunchDone reports device traps to the tool.
func TestToolObservesTrap(t *testing.T) {
	ctx := newCtx(t, sass.FamilyVolta)
	tool := &countingTool{target: "none"}
	att, err := nvbit.Attach(ctx, tool)
	if err != nil {
		t.Fatal(err)
	}
	defer att.Detach()
	mod, err := ctx.LoadModule("m", `
.kernel bad
    MOV R1, 0x4
    LDG.32 R2, [R1]
    EXIT
`)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := mod.Function("bad")
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.Launch(bad, cfg1()); err != nil {
		t.Fatal(err)
	}
	if !tool.trapObserved {
		t.Fatal("tool did not observe the device trap")
	}
}

// TestDistinctKeysBuildSeparately: different decision keys produce
// different cached builds.
func TestDistinctKeysBuildSeparately(t *testing.T) {
	ctx := newCtx(t, sass.FamilyVolta)
	tool := &keyedTool{}
	att, err := nvbit.Attach(ctx, tool)
	if err != nil {
		t.Fatal(err)
	}
	defer att.Detach()
	mod, err := ctx.LoadModule("m", twoKernelSrc)
	if err != nil {
		t.Fatal(err)
	}
	alpha, err := mod.Function("alpha")
	if err != nil {
		t.Fatal(err)
	}
	out, err := ctx.Malloc(4 * 32)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := ctx.Launch(alpha, cfg1(), out); err != nil {
			t.Fatal(err)
		}
	}
	// Keys alternate a/b: two distinct builds, both cached on reuse.
	if att.JITBuilds() != 2 {
		t.Fatalf("JIT builds = %d, want 2", att.JITBuilds())
	}
}

type keyedTool struct {
	n int
}

func (k *keyedTool) Name() string { return "keyed" }

func (k *keyedTool) OnLaunch(*nvbit.LaunchInfo) nvbit.Decision {
	k.n++
	return nvbit.Decision{Instrument: true, Key: fmt.Sprintf("key-%d", k.n%2)}
}

func (k *keyedTool) Instrument(kernel *sass.Kernel, _ string, ins *nvbit.Inserter) {
	ins.InsertBefore(0, func(*gpu.InstrCtx) {})
}

func (k *keyedTool) OnLaunchDone(*nvbit.LaunchInfo, gpu.LaunchStats, *gpu.Trap, bool) {}

// tallyTool instruments every launch with the in-line lane tally alone, over
// a slice short by short entries.
type tallyTool struct {
	short int
	tally []gpu.SiteTally
	stats gpu.LaunchStats
}

func (*tallyTool) Name() string { return "tally" }

func (*tallyTool) OnLaunch(*nvbit.LaunchInfo) nvbit.Decision {
	return nvbit.Decision{Instrument: true, Key: "tally"}
}

func (tt *tallyTool) Instrument(k *sass.Kernel, _ string, ins *nvbit.Inserter) {
	tt.tally = make([]gpu.SiteTally, len(k.Instrs)-tt.short)
	ins.TallyLanes(tt.tally)
}

func (tt *tallyTool) OnLaunchDone(_ *nvbit.LaunchInfo, stats gpu.LaunchStats, _ *gpu.Trap, _ bool) {
	tt.stats = stats
}

// TestTallyLanes: a build that only tallies is an instrumented launch — one
// After trampoline per dynamic instruction, every site's lanes counted, no
// callback anywhere — and a tally that does not match the kernel is refused
// when the build is made.
func TestTallyLanes(t *testing.T) {
	launchAlpha := func(tool nvbit.Tool) {
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
		out, err := ctx.Malloc(4 * 32)
		if err != nil {
			t.Fatal(err)
		}
		f, err := mod.Function("alpha")
		if err != nil {
			t.Fatal(err)
		}
		if err := ctx.Launch(f, cfg1(), out); err != nil {
			t.Fatal(err)
		}
	}
	tool := &tallyTool{}
	launchAlpha(tool)
	for i, c := range tool.tally {
		if c != (gpu.SiteTally{Threads: 32, Issues: 1}) {
			t.Errorf("site %d tallied %+v, want 32 threads in 1 issue", i, c)
		}
	}
	if want := uint64(len(tool.tally)) * gpu.TrampolineLen; tool.stats.TrampolineInstrs != want {
		t.Errorf("%d trampoline instructions, want %d", tool.stats.TrampolineInstrs, want)
	}

	defer func() {
		if recover() == nil {
			t.Error("a tally one entry short of the kernel was accepted")
		}
	}()
	launchAlpha(&tallyTool{short: 1})
}
