package core_test

import (
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/nvbit"
	"repro/internal/sass"
	"repro/internal/specaccel"
)

// tinySrc: every instruction's dynamic execution order is fully known, so
// injections can be aimed at exact (instruction, lane) coordinates.
//
// G_GP-eligible executions per launch (one warp):
//
//	instr 0 S2R   lanes 0..31  -> counts   0..31
//	instr 1 IADD  lanes 0..31  -> counts  32..63
//	instr 2 IADD  lanes 0..31  -> counts  64..95
//	instr 3 SHL   lanes 0..31  -> counts  96..127
//	instr 4 IADD  lanes 0..31  -> counts 128..159
const tinySrc = `
.kernel tiny
.param outptr
    S2R R0, SR_TID.X
    IADD R1, R0, 0x1
    IADD R2, R1, 0x2
    SHL R3, R0, 0x2
    IADD R4, R3, c0[outptr]
    STG.32 [R4], R2
    EXIT
`

func runTiny(t *testing.T, tool nvbit.Tool, launches int) []uint32 {
	t.Helper()
	return runKernel(t, tool, tinySrc, "tiny", launches)
}

// runKernel launches one 32-thread block of a kernel taking a single output
// pointer, launches times, and returns the 32 output words.
func runKernel(t *testing.T, tool nvbit.Tool, src, kernel string, launches int) []uint32 {
	t.Helper()
	dev, err := gpu.NewDevice(sass.FamilyVolta, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := cuda.NewContext(dev)
	if err != nil {
		t.Fatal(err)
	}
	if tool != nil {
		att, err := nvbit.Attach(ctx, tool)
		if err != nil {
			t.Fatal(err)
		}
		defer att.Detach()
	}
	mod, err := ctx.LoadModule("m", src)
	if err != nil {
		t.Fatal(err)
	}
	fn, err := mod.Function(kernel)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ctx.Malloc(4 * 32)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cuda.LaunchConfig{Grid: gpu.Dim3{X: 1, Y: 1, Z: 1}, Block: gpu.Dim3{X: 32, Y: 1, Z: 1}}
	for i := 0; i < launches; i++ {
		if err := ctx.Launch(fn, cfg, out); err != nil {
			t.Fatal(err)
		}
	}
	// A poisoned context (an injected fault that trapped) fails the copy;
	// return zeros, as a host buffer the memcpy never filled would hold.
	b, err := ctx.MemcpyDtoH(out, 4*32)
	if err != nil {
		return make([]uint32, 32)
	}
	vals := make([]uint32, 32)
	for i := range vals {
		vals[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return vals
}

// TestDirectedTransientInjection aims a single-bit flip at instruction 2
// (the second IADD), lane 6, and checks exactly one output word changed in
// exactly the predicted way.
func TestDirectedTransientInjection(t *testing.T) {
	inj, err := core.NewTransientInjector(core.TransientParams{
		Group:           sass.GroupGP,
		BitFlip:         core.FlipSingleBit,
		KernelName:      "tiny",
		KernelCount:     0,
		InstrCount:      64 + 6, // instruction 2, lane 6
		DestRegSelect:   0,
		BitPatternValue: 0.5, // bit 16
	})
	if err != nil {
		t.Fatal(err)
	}
	vals := runTiny(t, inj, 1)
	rec := inj.Record()
	if !rec.Activated || rec.NoDestination {
		t.Fatalf("injection record: %+v", rec)
	}
	if rec.Lane != 6 || rec.InstrIdx != 2 || rec.Target != "R2" {
		t.Fatalf("injection hit the wrong site: %+v", rec)
	}
	if rec.Mask != 1<<16 {
		t.Fatalf("mask = 0x%x", rec.Mask)
	}
	for i, v := range vals {
		want := uint32(i + 3)
		if i == 6 {
			want ^= 1 << 16
		}
		if v != want {
			t.Fatalf("out[%d] = 0x%x, want 0x%x (record %+v)", i, v, want, rec)
		}
	}
}

// TestInjectionTargetsSecondLaunch: kernel count selects the dynamic
// instance; the first launch runs clean.
func TestInjectionTargetsSecondLaunch(t *testing.T) {
	inj, err := core.NewTransientInjector(core.TransientParams{
		Group: sass.GroupGP, BitFlip: core.RandomValue,
		KernelName: "tiny", KernelCount: 1, InstrCount: 64,
		DestRegSelect: 0, BitPatternValue: 0.77,
	})
	if err != nil {
		t.Fatal(err)
	}
	vals := runTiny(t, inj, 3)
	rec := inj.Record()
	if !rec.Activated {
		t.Fatal("fault did not activate")
	}
	// The third launch overwrote the corruption: output must be clean.
	for i, v := range vals {
		if v != uint32(i+3) {
			t.Fatalf("corruption leaked into a later launch: out[%d]=0x%x", i, v)
		}
	}
}

// TestInjectionNeverActivates: a site beyond the real execution (as an
// approximate profile can produce) leaves the program untouched.
func TestInjectionNeverActivates(t *testing.T) {
	inj, err := core.NewTransientInjector(core.TransientParams{
		Group: sass.GroupGP, BitFlip: core.FlipSingleBit,
		KernelName: "tiny", KernelCount: 5, // only 2 launches happen
		InstrCount: 10, DestRegSelect: 0, BitPatternValue: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	vals := runTiny(t, inj, 2)
	if inj.Record().Activated {
		t.Fatal("fault activated for a launch that never happened")
	}
	for i, v := range vals {
		if v != uint32(i+3) {
			t.Fatalf("output changed without activation: out[%d]=%d", i, v)
		}
	}
}

// TestNoDestInjection: a G_NODEST selection (the STG) activates but has
// nothing to corrupt.
func TestNoDestInjection(t *testing.T) {
	inj, err := core.NewTransientInjector(core.TransientParams{
		Group: sass.GroupNODEST, BitFlip: core.FlipSingleBit,
		KernelName: "tiny", KernelCount: 0,
		InstrCount: 3, DestRegSelect: 0, BitPatternValue: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	vals := runTiny(t, inj, 1)
	rec := inj.Record()
	if !rec.Activated || !rec.NoDestination {
		t.Fatalf("NODEST record: %+v", rec)
	}
	for i, v := range vals {
		if v != uint32(i+3) {
			t.Fatal("NODEST injection changed state")
		}
	}
}

// TestThreadTargetedInjection uses the Section V extension to pin the
// fault to one specific thread.
func TestThreadTargetedInjection(t *testing.T) {
	inj, err := core.NewTransientInjector(core.TransientParams{
		Group: sass.GroupGP, BitFlip: core.FlipSingleBit,
		KernelName: "tiny", KernelCount: 0,
		InstrCount:      2, // third eligible execution OF THAT THREAD: instr 2
		DestRegSelect:   0,
		BitPatternValue: 0, // bit 0
		Thread:          &core.ThreadSelector{BlockLinear: 0, WarpID: 0, Lane: 13},
	})
	if err != nil {
		t.Fatal(err)
	}
	vals := runTiny(t, inj, 1)
	rec := inj.Record()
	if !rec.Activated || rec.Lane != 13 || rec.InstrIdx != 2 {
		t.Fatalf("thread-targeted record: %+v", rec)
	}
	for i, v := range vals {
		want := uint32(i + 3)
		if i == 13 {
			want ^= 1
		}
		if v != want {
			t.Fatalf("out[%d] = %d, want %d", i, v, want)
		}
	}
}

// TestPredicateInjection: corrupting an ISETP result changes control flow.
func TestPredicateInjection(t *testing.T) {
	const src = `
.kernel predk
.param outptr
    S2R R0, SR_TID.X
    ISETP.LT.AND P0, R0, 0x10, PT
    MOV R2, 0x1
@P0 MOV R2, 0x2
    SHL R3, R0, 0x2
    IADD R4, R3, c0[outptr]
    STG.32 [R4], R2
    EXIT
`
	dev, err := gpu.NewDevice(sass.FamilyVolta, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := cuda.NewContext(dev)
	if err != nil {
		t.Fatal(err)
	}
	// The ISETP is the only G_PR instruction: lane 3's execution is count 3.
	inj, err := core.NewTransientInjector(core.TransientParams{
		Group: sass.GroupPR, BitFlip: core.FlipSingleBit,
		KernelName: "predk", KernelCount: 0,
		InstrCount: 3, DestRegSelect: 0, BitPatternValue: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	att, err := nvbit.Attach(ctx, inj)
	if err != nil {
		t.Fatal(err)
	}
	defer att.Detach()
	mod, err := ctx.LoadModule("m", src)
	if err != nil {
		t.Fatal(err)
	}
	fn, err := mod.Function("predk")
	if err != nil {
		t.Fatal(err)
	}
	out, err := ctx.Malloc(4 * 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.Launch(fn, cuda.LaunchConfig{
		Grid: gpu.Dim3{X: 1, Y: 1, Z: 1}, Block: gpu.Dim3{X: 32, Y: 1, Z: 1},
	}, out); err != nil {
		t.Fatal(err)
	}
	rec := inj.Record()
	if !rec.Activated || rec.Target != "P0" {
		t.Fatalf("predicate record: %+v", rec)
	}
	b, err := ctx.MemcpyDtoH(out, 4*32)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		got := binary.LittleEndian.Uint32(b[4*i:])
		want := uint32(1)
		if i < 16 {
			want = 2
		}
		if i == 3 {
			want = 1 // flipped predicate suppressed the guarded MOV
		}
		if got != want {
			t.Fatalf("out[%d] = %d, want %d", i, got, want)
		}
	}
}

// TestPermanentInjectorFilters: only the configured SM and lane are hit,
// and every dynamic instance of the opcode on that site is corrupted.
func TestPermanentInjectorFilters(t *testing.T) {
	// SHL executes once per lane per launch; target SM 0 (1 block -> SM 0).
	pi, err := core.NewPermanentInjector(core.PermanentParams{
		SMID: 0, Lane: 9, BitMask: 0x4,
		OpcodeID: opcodeID(t, "SHL"),
	}, sass.FamilyVolta, 4)
	if err != nil {
		t.Fatal(err)
	}
	vals := runTiny(t, pi, 2)
	if pi.Activations() != 2 { // one SHL execution per launch on that site
		t.Fatalf("activations = %d, want 2", pi.Activations())
	}
	if pi.Corruptions() != 2 {
		t.Fatalf("corruptions = %d, want 2", pi.Corruptions())
	}
	// Lane 9's SHL feeds its output address: 9*4 ^ 0x4 = 0x20 -> slot 8.
	for i, v := range vals {
		want := uint32(i + 3)
		switch i {
		case 8:
			want = 9 + 3 // lane 9's value landed on slot 8
		case 9:
			want = 9 + 3 // slot 9 keeps the value from the first launch? No:
			// both launches redirect lane 9's store to slot 8, so slot 9
			// keeps lane 9's own original value only if something wrote it.
		}
		_ = want
		_ = v
	}
	// Slot 8 receives lane 9's value (12); slot 9 is never written and
	// stays zero.
	if vals[8] != 12 {
		t.Fatalf("redirected store: out[8] = %d, want 12", vals[8])
	}
	if vals[9] != 0 {
		t.Fatalf("out[9] = %d, want 0 (store redirected away)", vals[9])
	}
}

// TestPermanentInjectorWrongSM: a fault on an SM the kernel's blocks never
// reach stays dormant.
func TestPermanentInjectorWrongSM(t *testing.T) {
	pi, err := core.NewPermanentInjector(core.PermanentParams{
		SMID: 3, Lane: 0, BitMask: 0xffffffff,
		OpcodeID: opcodeID(t, "SHL"),
	}, sass.FamilyVolta, 4)
	if err != nil {
		t.Fatal(err)
	}
	vals := runTiny(t, pi, 1) // 1 block -> SM 0 only
	if pi.Activations() != 0 {
		t.Fatalf("activations = %d on an idle SM", pi.Activations())
	}
	for i, v := range vals {
		if v != uint32(i+3) {
			t.Fatal("dormant fault changed output")
		}
	}
}

// TestIntermittentGates: gated faults activate for the configured subset.
func TestIntermittentGates(t *testing.T) {
	run := func(gate core.ActivationGate) (uint64, uint64) {
		// Mask 0x40 keeps the lane-0 store address in bounds (the output
		// base is 256-aligned), so no launch traps and all four launches run.
		pi, err := core.NewPermanentInjector(core.PermanentParams{
			SMID: 0, Lane: 0, BitMask: 0x40,
			OpcodeID: opcodeID(t, "IADD"),
		}, sass.FamilyVolta, 4)
		if err != nil {
			t.Fatal(err)
		}
		pi.SetGate(gate)
		runTiny(t, pi, 4)
		return pi.Activations(), pi.Corruptions()
	}
	// IADD executes 3 times per launch on lane 0 -> 12 activations.
	act, corr := run(nil)
	if act != 12 || corr == 0 {
		t.Fatalf("ungated: %d activations, %d corruptions", act, corr)
	}
	_, corrBurst := run(core.BurstGate{Period: 4, BurstLen: 1})
	if corrBurst == 0 || corrBurst >= corr {
		t.Fatalf("bursty gate corrupted %d of %d", corrBurst, corr)
	}
	_, corrNever := run(core.BurstGate{Period: 4, BurstLen: 0})
	if corrNever != 0 {
		t.Fatalf("zero-length burst corrupted %d times", corrNever)
	}
	_, corrRare := run(core.RandomGate{P: 0, Seed: 3})
	if corrRare != 0 {
		t.Fatalf("p=0 random gate corrupted %d times", corrRare)
	}
	_, corrAlways := run(core.RandomGate{P: 1, Seed: 3})
	if corrAlways != corr {
		t.Fatalf("p=1 random gate corrupted %d of %d", corrAlways, corr)
	}
}

// TestRandomGateDeterminism: the same gate decides identically on replay.
func TestRandomGateDeterminism(t *testing.T) {
	g := core.RandomGate{P: 0.5, Seed: 42}
	for i := uint64(0); i < 100; i++ {
		if g.Active(i) != g.Active(i) {
			t.Fatalf("gate decision %d not deterministic", i)
		}
	}
	// And roughly balanced.
	hits := 0
	for i := uint64(0); i < 1000; i++ {
		if g.Active(i) {
			hits++
		}
	}
	if hits < 350 || hits > 650 {
		t.Fatalf("p=0.5 gate fired %d/1000 times", hits)
	}
}

// TestFaultDictionary: a dictionary entry overrides the XOR mask.
func TestFaultDictionary(t *testing.T) {
	pi, err := core.NewPermanentInjector(core.PermanentParams{
		SMID: 0, Lane: 4, BitMask: 0x1,
		OpcodeID: opcodeID(t, "IADD"),
	}, sass.FamilyVolta, 4)
	if err != nil {
		t.Fatal(err)
	}
	pi.SetDictionary(core.FaultDictionary{
		sass.MustOp("IADD"): func(_ sass.Op, old uint32) uint32 { return 0x1000 },
	})
	vals := runTiny(t, pi, 1)
	// Lane 4's final IADD (address computation) is forced to 0x1000...
	// but so are the earlier IADDs; the last corrupted dest is R4 (the
	// address), so lane 4 stores to device address 0x1000 — unallocated,
	// poisoning the context. The read back then fails and runTiny would
	// have returned zeros; accept either zeroed output or a changed value.
	nonzero := false
	for _, v := range vals {
		if v != 0 {
			nonzero = true
		}
	}
	if pi.Corruptions() == 0 {
		t.Fatal("dictionary never corrupted")
	}
	_ = nonzero
}

// TestMultiOpcodePermanentFault: the Section V multi-opcode extension hits
// every configured opcode.
func TestMultiOpcodePermanentFault(t *testing.T) {
	pi, err := core.NewPermanentInjector(core.PermanentParams{
		SMID: 0, Lane: 2, BitMask: 0x1,
		OpcodeID:       opcodeID(t, "IADD"),
		ExtraOpcodeIDs: []int{opcodeID(t, "SHL")},
	}, sass.FamilyVolta, 4)
	if err != nil {
		t.Fatal(err)
	}
	runTiny(t, pi, 1)
	// Lane 2 executes IADD 3x and SHL 1x per launch.
	if pi.Activations() != 4 {
		t.Fatalf("multi-opcode activations = %d, want 4", pi.Activations())
	}
}

func opcodeID(t *testing.T, name string) int {
	t.Helper()
	set := sass.OpcodeSet(sass.FamilyVolta)
	for i, op := range set {
		if op == sass.MustOp(name) {
			return i
		}
	}
	t.Fatalf("opcode %s not in the Volta set", name)
	return -1
}

// TestMultiRegisterInjection: the Section V multi-register extension
// corrupts consecutive destination registers of a wide load with one fault.
func TestMultiRegisterInjection(t *testing.T) {
	const src = `
.kernel widek
.param inptr
.param outptr
    S2R R0, SR_TID.X
    MOV R1, c0[inptr]
    LDG.64 R4, [R1]
    SHL R6, R0, 0x2
    IADD R7, R6, c0[outptr]
    STG.32 [R7], R4
    EXIT
`
	dev, err := gpu.NewDevice(sass.FamilyVolta, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := cuda.NewContext(dev)
	if err != nil {
		t.Fatal(err)
	}
	// Target the LDG.64 (the only G_LD instruction): lane 0's execution is
	// eligible count 0. Corrupt both halves of the pair.
	inj, err := core.NewTransientInjector(core.TransientParams{
		Group: sass.GroupLD, BitFlip: core.FlipSingleBit,
		KernelName: "widek", KernelCount: 0,
		InstrCount: 0, DestRegSelect: 0, BitPatternValue: 0,
		MultiRegCount: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	att, err := nvbit.Attach(ctx, inj)
	if err != nil {
		t.Fatal(err)
	}
	defer att.Detach()
	mod, err := ctx.LoadModule("m", src)
	if err != nil {
		t.Fatal(err)
	}
	fn, err := mod.Function("widek")
	if err != nil {
		t.Fatal(err)
	}
	in, err := ctx.Malloc(8)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ctx.Malloc(4 * 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.Launch(fn, cuda.LaunchConfig{
		Grid: gpu.Dim3{X: 1, Y: 1, Z: 1}, Block: gpu.Dim3{X: 32, Y: 1, Z: 1},
	}, in, out); err != nil {
		t.Fatal(err)
	}
	rec := inj.Record()
	if !rec.Activated || rec.Target != "R4,R5" {
		t.Fatalf("multi-register record: %+v", rec)
	}
	// Lane 0 stored R4, which was corrupted by bit 0.
	b, err := ctx.MemcpyDtoH(out, 4)
	if err != nil {
		t.Fatal(err)
	}
	if binary.LittleEndian.Uint32(b) != 1 {
		t.Fatalf("corrupted low word = %d, want 1", binary.LittleEndian.Uint32(b))
	}
}

// TestMultiRegParamsRoundTrip: the multiregs extension survives the
// parameter-file format.
func TestMultiRegParamsRoundTrip(t *testing.T) {
	p := core.TransientParams{
		Group: sass.GroupLD, BitFlip: core.FlipSingleBit,
		KernelName: "k", InstrCount: 9,
		DestRegSelect: 0.5, BitPatternValue: 0.5,
		MultiRegCount: 3,
	}
	got, err := core.ParseTransientParams(strings.NewReader(p.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.MultiRegCount != 3 {
		t.Fatalf("multiregs lost: %+v", got)
	}
}

// TestDiffExactVsApproximateReal: on 303.ostencil every stencil_step
// instance executes identical counts, so the approximate profile must
// match the exact one exactly; the diff quantifies this.
func TestDiffExactVsApproximateReal(t *testing.T) {
	w, err := specaccel.ByName("303.ostencil")
	if err != nil {
		t.Fatal(err)
	}
	r := campaign.Runner{}
	exact, _, err := r.Profile(w, core.Exact)
	if err != nil {
		t.Fatal(err)
	}
	approx, _, err := r.Profile(w, core.Approximate)
	if err != nil {
		t.Fatal(err)
	}
	d := core.DiffProfiles(exact, approx, sass.GroupGPPR)
	if d.TotalRelDelta() != 0 || d.MaxRelDelta() != 0 {
		t.Fatalf("ostencil approximate profile deviates: total %v max %v",
			d.TotalRelDelta(), d.MaxRelDelta())
	}
	if len(d.OnlyA)+len(d.OnlyB) != 0 {
		t.Fatalf("profiles disagree on dynamic kernels: %v %v", d.OnlyA, d.OnlyB)
	}
}

// TestSiteResolvedInjection: site mode instruments only the named static
// instruction and counts its executions, hitting the same coordinates as
// the equivalent legacy parameters.
func TestSiteResolvedInjection(t *testing.T) {
	inj, err := core.NewTransientInjector(core.TransientParams{
		Group:           sass.GroupGP,
		BitFlip:         core.FlipSingleBit,
		KernelName:      "tiny",
		KernelCount:     0,
		InstrCount:      6, // 7th execution of instruction 2 = lane 6
		SiteResolved:    true,
		StaticInstrIdx:  2,
		DestRegSelect:   0,
		BitPatternValue: 0.5, // bit 16
	})
	if err != nil {
		t.Fatal(err)
	}
	vals := runTiny(t, inj, 1)
	rec := inj.Record()
	if !rec.Activated || rec.NoDestination {
		t.Fatalf("injection record: %+v", rec)
	}
	if rec.Lane != 6 || rec.InstrIdx != 2 || rec.Target != "R2" {
		t.Fatalf("injection hit the wrong site: %+v", rec)
	}
	for i, v := range vals {
		want := uint32(i + 3)
		if i == 6 {
			want ^= 1 << 16
		}
		if v != want {
			t.Fatalf("out[%d] = 0x%x, want 0x%x", i, v, want)
		}
	}
}

// TestSiteResolvedOutOfRange: a static index beyond the kernel (or naming
// an instruction outside the group) instruments nothing and never
// activates, like any other site that does not exist at run time.
func TestSiteResolvedOutOfRange(t *testing.T) {
	inj, err := core.NewTransientInjector(core.TransientParams{
		Group: sass.GroupGP, BitFlip: core.FlipSingleBit,
		KernelName: "tiny", KernelCount: 0, InstrCount: 0,
		SiteResolved: true, StaticInstrIdx: 99,
		DestRegSelect: 0, BitPatternValue: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	vals := runTiny(t, inj, 1)
	if rec := inj.Record(); rec.Activated {
		t.Fatalf("out-of-range site activated: %+v", rec)
	}
	for i, v := range vals {
		if v != uint32(i+3) {
			t.Fatalf("out[%d] = 0x%x, want clean run", i, v)
		}
	}
}

// TestProfilerSiteCounts: a live profiler run fills the per-static-
// instruction breakdown consistently with the per-opcode totals.
func TestProfilerSiteCounts(t *testing.T) {
	prof, err := core.NewProfiler("tiny", core.Exact)
	if err != nil {
		t.Fatal(err)
	}
	runTiny(t, prof, 2)
	p := prof.Finish()
	if len(p.Records) != 2 {
		t.Fatalf("records = %d", len(p.Records))
	}
	for ri := range p.Records {
		rec := &p.Records[ri]
		if !rec.HasSites() || len(rec.SiteCounts) != 7 {
			t.Fatalf("record %d: site breakdown missing or wrong length: %+v", ri, rec)
		}
		// Every instruction executes all 32 lanes once per launch.
		for i, c := range rec.SiteCounts {
			if c != 32 {
				t.Fatalf("record %d site %d count = %d, want 32", ri, i, c)
			}
		}
		perOp := make(map[sass.Op]uint64)
		for i, op := range rec.SiteOps {
			perOp[op] += rec.SiteCounts[i]
		}
		for _, c := range rec.OpCounts {
			if perOp[c.Op] != c.Count {
				t.Fatalf("record %d: site sum for %v = %d, opcode count %d", ri, c.Op, perOp[c.Op], c.Count)
			}
		}
	}
	// The breakdown survives serialization.
	got, err := core.ParseProfile(strings.NewReader(p.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Records[1].HasSites() || got.Records[1].SiteCounts[0] != 32 {
		t.Fatalf("site data lost in round trip: %+v", got.Records[1])
	}
}

// guardedSrc has one site that issues with no lane active (the @P0 FADD: P0
// is false on all 32 threads) and one that never issues (the FMUL after
// EXIT).
const guardedSrc = `
.kernel guarded
.param outptr
    S2R R0, SR_TID.X
    ISETP.GE.AND P0, R0, 0x40, PT
@P0 FADD R5, R0, R0
    SHL R3, R0, 0x2
    IADD R4, R3, c0[outptr]
    STG.32 [R4], R0
    EXIT
    FMUL R6, R0, R0
`

// TestProfilerWriteToByteIdentity pins the serialized profile. The profiler
// counts per site during the launch and folds into the per-opcode map at
// launch end; the file it writes must not show that: an opcode whose only
// executions had zero active lanes keeps its "=0" entry, an opcode that never
// issued has none.
func TestProfilerWriteToByteIdentity(t *testing.T) {
	// Recorded from the per-callback map implementation this one replaced.
	const golden = `# program: guarded
# mode: exact
guarded; 0; FADD=0 IADD=32 ISETP=32 SHL=32 STG=32 EXIT=32 S2R=32
# sites: 0:S2R=32 1:ISETP=32 2:FADD=0 3:SHL=32 4:IADD=32 5:STG=32 6:EXIT=32 7:FMUL=0
guarded; 1; FADD=0 IADD=32 ISETP=32 SHL=32 STG=32 EXIT=32 S2R=32
# sites: 0:S2R=32 1:ISETP=32 2:FADD=0 3:SHL=32 4:IADD=32 5:STG=32 6:EXIT=32 7:FMUL=0
`
	prof, err := core.NewProfiler("guarded", core.Exact)
	if err != nil {
		t.Fatal(err)
	}
	runKernel(t, prof, guardedSrc, "guarded", 2)
	if got := prof.Finish().String(); got != golden {
		t.Fatalf("profile file changed:\n--- got\n%s--- want\n%s", got, golden)
	}
}

// TestProfilerAcrossAttachments: one Profiler attached to two contexts sees
// two kernels under the same KernelID. Interleaved launches must record what
// each kernel records when profiled alone.
func TestProfilerAcrossAttachments(t *testing.T) {
	solo := map[string][]core.KernelRecord{}
	for _, src := range []struct{ text, kernel string }{{tinySrc, "tiny"}, {guardedSrc, "guarded"}} {
		prof, err := core.NewProfiler(src.kernel, core.Exact)
		if err != nil {
			t.Fatal(err)
		}
		runKernel(t, prof, src.text, src.kernel, 2)
		solo[src.kernel] = prof.Finish().Records
	}

	prof, err := core.NewProfiler("both", core.Exact)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cuda.LaunchConfig{Grid: gpu.Dim3{X: 1, Y: 1, Z: 1}, Block: gpu.Dim3{X: 32, Y: 1, Z: 1}}
	var launches []func()
	for _, src := range []struct{ text, kernel string }{{tinySrc, "tiny"}, {guardedSrc, "guarded"}} {
		dev, err := gpu.NewDevice(sass.FamilyVolta, 4)
		if err != nil {
			t.Fatal(err)
		}
		ctx, err := cuda.NewContext(dev)
		if err != nil {
			t.Fatal(err)
		}
		att, err := nvbit.Attach(ctx, prof)
		if err != nil {
			t.Fatal(err)
		}
		defer att.Detach()
		mod, err := ctx.LoadModule("m", src.text)
		if err != nil {
			t.Fatal(err)
		}
		fn, err := mod.Function(src.kernel)
		if err != nil {
			t.Fatal(err)
		}
		out, err := ctx.Malloc(4 * 32)
		if err != nil {
			t.Fatal(err)
		}
		launches = append(launches, func() {
			if err := ctx.Launch(fn, cfg, out); err != nil {
				t.Fatal(err)
			}
		})
	}
	for range 2 {
		for _, launch := range launches {
			launch()
		}
	}
	text := func(r core.KernelRecord) string {
		return (&core.Profile{Records: []core.KernelRecord{r}}).String()
	}
	got := prof.Finish().Records
	for i, r := range got {
		if want := solo[r.Kernel][r.LaunchIndex]; text(r) != text(want) {
			t.Errorf("record %d:\n%s\nwant\n%s", i, text(r), text(want))
		}
	}
	if len(got) != 4 {
		t.Errorf("%d records, want 4", len(got))
	}
}
