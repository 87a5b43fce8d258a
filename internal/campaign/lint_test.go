package campaign_test

import (
	"encoding/binary"
	"testing"

	"repro/internal/campaign"
	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/sassan"
)

// deadSrc is a kernel with three intentionally dead destination writes
// (R10, R11, R12 are never read on any path): the sites lint must flag and
// the site-resolved differentials really inject into. The remaining writes
// all feed the STG, so injections into them can produce SDCs or traps and
// keep the differential comparisons honest.
const deadSrc = `
.kernel deadk
.param outptr
    S2R R0, SR_TID.X
    MOV R10, R0
    IADD R11, R0, 0x7
    SHL R12, R0, 0x3
    IADD R1, R0, 0x1
    IADD R2, R1, 0x2
    SHL R3, R0, 0x2
    IADD R4, R3, c0[outptr]
    STG.32 [R4], R2
    EXIT
`

// deadWorkload drives deadSrc: 64 threads, output buffer printed to stdout
// so every live-register corruption is observable.
type deadWorkload struct{}

func (deadWorkload) Name() string        { return "deadwrite" }
func (deadWorkload) Description() string { return "kernel with intentionally dead destination writes" }

func (deadWorkload) Run(ctx *cuda.Context) (*campaign.Output, error) {
	out := campaign.NewOutput()
	mod, err := ctx.LoadModule("dead", deadSrc)
	if err != nil {
		return out, err
	}
	fn, err := mod.Function("deadk")
	if err != nil {
		return out, err
	}
	buf, err := ctx.Malloc(4 * 64)
	if err != nil {
		return out, err
	}
	cfg := cuda.LaunchConfig{Grid: gpu.Dim3{X: 1, Y: 1, Z: 1}, Block: gpu.Dim3{X: 64, Y: 1, Z: 1}}
	// Unchecked-style host code: launch errors surface as missing output.
	_ = ctx.Launch(fn, cfg, buf)
	b, err := ctx.MemcpyDtoH(buf, 4*64)
	if err != nil {
		return out, nil
	}
	for i := 0; i+4 <= len(b); i += 4 {
		out.Printf("%d ", binary.LittleEndian.Uint32(b[i:]))
	}
	return out, nil
}

func (deadWorkload) Check(golden, observed *campaign.Output) bool { return golden.Equal(observed) }

// TestLintWorkloadFindsDeadWrites: the campaign-level lint entry point
// surfaces the dead-write diagnostics of sassan's liveness analysis.
func TestLintWorkloadFindsDeadWrites(t *testing.T) {
	diags, err := campaign.Runner{}.LintWorkload(deadWorkload{})
	if err != nil {
		t.Fatal(err)
	}
	dead := 0
	for _, d := range diags {
		if d.Code == sassan.CodeDeadWrite {
			dead++
		}
	}
	if dead != 3 {
		t.Fatalf("lint found %d dead writes in deadSrc, want 3 (diags: %v)", dead, diags)
	}
}

// deadSiteRuns counts the runs of a deadWorkload campaign that injected into
// a destination sassan proves dead, and fails the test unless each of them
// activated and came out Masked: the static claim, confirmed dynamically.
func deadSiteRuns(t *testing.T, res *campaign.CampaignResult) int {
	t.Helper()
	golden, err := campaign.Runner{}.Golden(deadWorkload{})
	if err != nil {
		t.Fatal(err)
	}
	a := sassan.Analyze(golden.Kernels["deadk"])
	n := 0
	for i := range res.Runs {
		run := &res.Runs[i]
		if run.Injection.Kernel != "deadk" || !a.DeadDests(int(run.Injection.InstrIdx)) {
			continue
		}
		n++
		if !run.Injection.Activated || run.Class.Outcome != campaign.Masked {
			t.Errorf("run %d at dead site #%d: activated %v, %v; want an activated Masked run",
				i, run.Injection.InstrIdx, run.Injection.Activated, run.Class.Outcome)
		}
	}
	return n
}

// TestVerifyModulesRejectsBadModule: a Runner with VerifyModules set builds
// contexts that refuse modules failing static verification; the same module
// loads and runs cleanly on a permissive runner.
func TestVerifyModulesRejectsBadModule(t *testing.T) {
	w := badSpanWorkload{}
	if _, err := (campaign.Runner{VerifyModules: true}).Golden(w); err == nil {
		t.Fatal("verifying runner accepted a module whose load destination span reaches RZ")
	}
	if _, err := (campaign.Runner{}).Golden(w); err != nil {
		t.Fatalf("non-verifying runner rejected the same module at load: %v", err)
	}
}

// badSpanWorkload loads a kernel with a verifier error that is harmless at
// run time: LDG.128 into R252 spans R252..RZ, which the verifier rejects as
// a bad destination but the engine executes (skipping RZ) without fault.
type badSpanWorkload struct{}

func (badSpanWorkload) Name() string        { return "badspan" }
func (badSpanWorkload) Description() string { return "kernel that fails static verification" }

func (badSpanWorkload) Run(ctx *cuda.Context) (*campaign.Output, error) {
	out := campaign.NewOutput()
	src := `
.kernel badk
.param ptr
    IADD R0, RZ, c0[ptr]
    LDG.128 R252, [R0]
    EXIT
`
	mod, err := ctx.LoadModule("bad", src)
	if err != nil {
		return out, err
	}
	fn, err := mod.Function("badk")
	if err != nil {
		return out, err
	}
	buf, err := ctx.Malloc(64)
	if err != nil {
		return out, err
	}
	cfg := cuda.LaunchConfig{Grid: gpu.Dim3{X: 1, Y: 1, Z: 1}, Block: gpu.Dim3{X: 32, Y: 1, Z: 1}}
	if err := ctx.Launch(fn, cfg, buf); err != nil {
		return out, err
	}
	out.Printf("ok\n")
	return out, nil
}

func (badSpanWorkload) Check(golden, observed *campaign.Output) bool { return golden.Equal(observed) }
