package baseline_test

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/av"
	"repro/internal/baseline"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/nvbit"
	"repro/internal/sass"
)

func newCtx(t *testing.T) *cuda.Context {
	t.Helper()
	dev, err := gpu.NewDevice(sass.FamilyVolta, 8)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := cuda.NewContext(dev)
	if err != nil {
		t.Fatal(err)
	}
	ctx.SetDefaultBudget(1 << 30)
	return ctx
}

// vendorFault targets the 3rd dynamic instance of the binary-only vendor
// conv1d kernel.
func vendorFault() core.TransientParams {
	return core.TransientParams{
		Group:           sass.GroupGP,
		BitFlip:         core.FlipSingleBit,
		KernelName:      "conv1d",
		KernelCount:     2,
		InstrCount:      500,
		DestRegSelect:   0.3,
		BitPatternValue: 0.4,
	}
}

// TestAVGolden checks the pipeline runs clean with no tool attached.
func TestAVGolden(t *testing.T) {
	p := av.New(av.Config{Frames: 4})
	out, err := p.Run(newCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	if out.ExitCode != 0 {
		t.Fatalf("exit %d, stdout:\n%s", out.ExitCode, out.Stdout)
	}
	if strings.Contains(out.Stdout, "RT ASSERT") {
		t.Fatalf("golden run missed a deadline:\n%s", out.Stdout)
	}
}

// TestNVBitFIInjectsVendorLibrary is the Table I headline: the dynamic
// binary instrumentation injector reaches a kernel inside a module that has
// no source.
func TestNVBitFIInjectsVendorLibrary(t *testing.T) {
	ctx := newCtx(t)
	inj, err := core.NewTransientInjector(vendorFault())
	if err != nil {
		t.Fatal(err)
	}
	att, err := nvbit.Attach(ctx, inj)
	if err != nil {
		t.Fatal(err)
	}
	defer att.Detach()
	p := av.New(av.Config{Frames: 4})
	out, err := p.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !inj.Record().Activated {
		t.Fatal("NVBitFI failed to inject into the binary-only vendor kernel")
	}
	if strings.Contains(out.Stdout, "RT ASSERT") {
		t.Errorf("selective instrumentation should not trip the RT assertion:\n%s", out.Stdout)
	}
}

// TestStaticFICannotInjectVendorLibrary: the compile-time tool needs
// source, so the vendor module is out of reach (Table I: "Needs source
// code? Yes / Inject libraries? No").
func TestStaticFICannotInjectVendorLibrary(t *testing.T) {
	ctx := newCtx(t)
	s, err := baseline.AttachStaticFI(ctx, vendorFault())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Detach()
	p := av.New(av.Config{Frames: 4})
	if _, err := p.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if len(s.Failures()) == 0 {
		t.Fatal("StaticFI claims it instrumented a module with no source")
	}
	if s.Record().Activated {
		t.Fatal("StaticFI injected into a kernel it cannot see the source of")
	}
}

// TestStaticFIInjectsOwnSource: with source available the compile-time tool
// does work — targeting the tracker module.
func TestStaticFIInjectsOwnSource(t *testing.T) {
	ctx := newCtx(t)
	params := vendorFault()
	params.KernelName = "track_update"
	params.InstrCount = 100
	s, err := baseline.AttachStaticFI(ctx, params)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Detach()
	p := av.New(av.Config{Frames: 4})
	if _, err := p.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if !s.Record().Activated {
		t.Fatal("StaticFI failed to inject into a source-available kernel")
	}
}

// TestDebuggerFITripsRealTimeAssertion: the debugger injects fine without
// source, but its per-instruction overhead blows the frame deadline — the
// paper's argument for why cuda-gdb-based injection was unusable on the AV
// application. The deadline is ten uninstrumented frames of the same
// pipeline on the same host, so the test asserts the debugger's overhead
// (two orders of magnitude), not the host's speed.
func TestDebuggerFITripsRealTimeAssertion(t *testing.T) {
	const frames = 4
	frame := time.Duration(math.MaxInt64)
	for i := 0; i < 3; i++ { // the first run also warms the module and plan caches
		ctx := newCtx(t)
		start := time.Now()
		if _, err := av.New(av.Config{Frames: frames, FrameDeadline: time.Hour}).Run(ctx); err != nil {
			t.Fatal(err)
		}
		frame = min(frame, time.Since(start)/frames)
	}
	ctx := newCtx(t)
	d, err := baseline.AttachDebuggerFI(ctx, vendorFault())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Detach()
	p := av.New(av.Config{Frames: frames, FrameDeadline: 10 * frame})
	out, err := p.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Record().Activated {
		t.Fatal("DebuggerFI failed to inject")
	}
	if d.Steps() == 0 {
		t.Fatal("DebuggerFI made no single-step stops")
	}
	if out.ExitCode != 3 || !strings.Contains(out.Stdout, "REAL-TIME FAILURE") {
		t.Fatalf("expected the RT assertion to trip under the debugger (deadline %v, ten uninstrumented frames); got exit %d:\n%s",
			10*frame, out.ExitCode, out.Stdout)
	}
}

// TestDebuggerFIStepsEveryInstruction: the debugger stops once after every
// executed warp instruction, each stop one trampoline, and still injects. The
// record and the counts are pinned to what the pipeline reads: a change to
// how the stop is inserted must move none of them.
func TestDebuggerFIStepsEveryInstruction(t *testing.T) {
	ctx := newCtx(t)
	d, err := baseline.AttachDebuggerFI(ctx, vendorFault())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Detach()
	if _, err := av.New(av.Config{Frames: 4, FrameDeadline: time.Hour}).Run(ctx); err != nil {
		t.Fatal(err)
	}
	stats := ctx.AccumulatedStats()
	if d.Steps() != stats.WarpInstrs {
		t.Errorf("%d stops for %d warp instructions", d.Steps(), stats.WarpInstrs)
	}
	if want := gpu.TrampolineLen * stats.WarpInstrs; stats.TrampolineInstrs != want {
		t.Errorf("TrampolineInstrs = %d, want %d (one site per warp instruction)", stats.TrampolineInstrs, want)
	}
	rec := d.Record()
	if !rec.Activated {
		t.Fatal("DebuggerFI failed to inject")
	}
	if got, want := [3]uint64{stats.WarpInstrs, stats.ThreadInstrs, stats.TrampolineInstrs},
		[3]uint64{43272, 1266688, 1211616}; got != want {
		t.Errorf("{WarpInstrs, ThreadInstrs, TrampolineInstrs} = %v, want %v", got, want)
	}
	if rec.Kernel != "conv1d" || rec.Opcode.String() != "SHL" || rec.InstrIdx != 15 || rec.Lane != 8 ||
		rec.Target != "R13" || rec.Before != 4 || rec.After != 4100 {
		t.Errorf("record %+v, want conv1d SHL@15 lane 8 R13 4->4100", rec)
	}
}

// TestBaselineOutcomeAgreement: for the same fault in a source-available
// kernel, all three tools must produce the same corruption and the same
// outcome — the injection mechanisms differ, not the fault model.
func TestBaselineOutcomeAgreement(t *testing.T) {
	w, err := avAsWorkload()
	if err != nil {
		t.Fatal(err)
	}
	params := vendorFault()
	params.KernelName = "normalize"
	params.InstrCount = 321

	goldenCtx := newCtx(t)
	golden, err := w.Run(goldenCtx)
	if err != nil {
		t.Fatal(err)
	}

	runWith := func(attach func(*cuda.Context) (func() core.InjectionRecord, func())) (core.InjectionRecord, *campaign.Output) {
		ctx := newCtx(t)
		record, detach := attach(ctx)
		defer detach()
		out, err := w.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return record(), out
	}

	nvRec, nvOut := runWith(func(ctx *cuda.Context) (func() core.InjectionRecord, func()) {
		inj, err := core.NewTransientInjector(params)
		if err != nil {
			t.Fatal(err)
		}
		att, err := nvbit.Attach(ctx, inj)
		if err != nil {
			t.Fatal(err)
		}
		return inj.Record, att.Detach
	})
	stRec, stOut := runWith(func(ctx *cuda.Context) (func() core.InjectionRecord, func()) {
		s, err := baseline.AttachStaticFI(ctx, params)
		if err != nil {
			t.Fatal(err)
		}
		return s.Record, s.Detach
	})
	dbRec, dbOut := runWith(func(ctx *cuda.Context) (func() core.InjectionRecord, func()) {
		d, err := baseline.AttachDebuggerFI(ctx, params)
		if err != nil {
			t.Fatal(err)
		}
		return d.Record, d.Detach
	})

	if nvRec != stRec || nvRec != dbRec {
		t.Fatalf("tools disagree on the injected fault:\nnvbitfi: %+v\nstatic:  %+v\ndebugger:%+v",
			nvRec, stRec, dbRec)
	}
	if !nvRec.Activated {
		t.Fatal("fault did not activate")
	}
	sameAsGolden := func(o *campaign.Output) bool { return o.Equal(golden) }
	if sameAsGolden(nvOut) != sameAsGolden(stOut) || sameAsGolden(nvOut) != sameAsGolden(dbOut) {
		t.Fatal("tools disagree on the fault's outcome")
	}
}

// avAsWorkload builds an AV pipeline with a generous deadline so that tool
// overhead does not perturb output comparisons.
func avAsWorkload() (campaign.Workload, error) {
	return av.New(av.Config{Frames: 4, FrameDeadline: time.Hour}), nil
}
