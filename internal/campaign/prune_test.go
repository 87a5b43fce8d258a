package campaign_test

import (
	"context"
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/report"
	"repro/internal/sassan"
)

// deadSrc is a kernel with three intentionally dead destination writes
// (R10, R11, R12 are never read on any path): the sites the static pruner
// must prove Masked. The remaining writes all feed the STG, so injections
// into them can produce SDCs or traps and keep the differential comparison
// honest.
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

// TestPruneDifferential is the prune soundness proof the design demands:
// a >=200-injection campaign with pruning enabled must produce exactly the
// outcome tallies of the unpruned campaign with the same seed, while
// actually pruning a nonzero number of experiments.
func TestPruneDifferential(t *testing.T) {
	w := deadWorkload{}
	r := campaign.Runner{}
	golden, err := r.Golden(w)
	if err != nil {
		t.Fatal(err)
	}
	profile, _, err := r.Profile(w, core.Exact)
	if err != nil {
		t.Fatal(err)
	}
	base := campaign.TransientCampaignConfig{Injections: 200, Seed: 31, ResolveSites: true}
	unpruned, err := campaign.RunTransientCampaign(context.Background(), r, w, golden, profile, base)
	if err != nil {
		t.Fatal(err)
	}
	withPrune := base
	withPrune.Prune = true
	pruned, err := campaign.RunTransientCampaign(context.Background(), r, w, golden, profile, withPrune)
	if err != nil {
		t.Fatal(err)
	}

	if pruned.Tally.Pruned == 0 {
		t.Fatal("campaign over a kernel with three dead writes pruned nothing")
	}
	if unpruned.Tally.Pruned != 0 {
		t.Fatalf("unpruned campaign reported %d pruned runs", unpruned.Tally.Pruned)
	}
	if pruned.Tally.N != unpruned.Tally.N {
		t.Fatalf("run counts differ: pruned %d, unpruned %d", pruned.Tally.N, unpruned.Tally.N)
	}
	for _, o := range []campaign.Outcome{campaign.Masked, campaign.SDC, campaign.DUE} {
		if pruned.Tally.Counts[o] != unpruned.Tally.Counts[o] {
			t.Errorf("%v count: pruned %d, unpruned %d", o, pruned.Tally.Counts[o], unpruned.Tally.Counts[o])
		}
	}
	if pruned.Tally.PotentialDUEs != unpruned.Tally.PotentialDUEs {
		t.Errorf("potential DUEs: pruned %d, unpruned %d",
			pruned.Tally.PotentialDUEs, unpruned.Tally.PotentialDUEs)
	}
	// Stronger than the tallies: every experiment classifies identically,
	// and each pruned experiment's unpruned twin really ran, activated, and
	// masked — the static claim, confirmed dynamically.
	prunedRuns := 0
	for i := range pruned.Runs {
		if pruned.Runs[i].Class != unpruned.Runs[i].Class {
			t.Fatalf("run %d classified %v pruned vs %v unpruned",
				i, pruned.Runs[i].Class, unpruned.Runs[i].Class)
		}
		if !pruned.Runs[i].Pruned {
			continue
		}
		prunedRuns++
		twin := unpruned.Runs[i].Injection
		if !twin.Activated {
			t.Errorf("run %d was pruned but its unpruned twin never activated", i)
		}
		if unpruned.Runs[i].Class.Outcome != campaign.Masked {
			t.Errorf("run %d was pruned but its unpruned twin was %v", i, unpruned.Runs[i].Class.Outcome)
		}
		if twin.Kernel != pruned.Runs[i].Injection.Kernel || twin.InstrIdx != pruned.Runs[i].Injection.InstrIdx {
			t.Errorf("run %d pruned site %s#%d, twin injected %s#%d", i,
				pruned.Runs[i].Injection.Kernel, pruned.Runs[i].Injection.InstrIdx, twin.Kernel, twin.InstrIdx)
		}
	}
	if prunedRuns != pruned.Tally.Pruned {
		t.Errorf("tally says %d pruned, runs say %d", pruned.Tally.Pruned, prunedRuns)
	}
	if sum := report.Summary(pruned); !strings.Contains(sum, "statically pruned") {
		t.Errorf("CLI summary does not surface the pruned count: %q", sum)
	}
	t.Logf("pruned %d/%d experiments; tallies %v", pruned.Tally.Pruned, pruned.Tally.N, pruned.Tally)
}

// benchPruneCampaign times a 200-injection site-resolved campaign over the
// dead-write workload, with and without static pruning. The speedup scales
// with the fraction of selections landing on dead destinations (~40% here);
// shipped workloads are lint-clean, so their pruned fraction is zero by
// construction.
func benchPruneCampaign(b *testing.B, prune bool) {
	w := deadWorkload{}
	r := campaign.Runner{}
	golden, err := r.Golden(w)
	if err != nil {
		b.Fatal(err)
	}
	profile, _, err := r.Profile(w, core.Exact)
	if err != nil {
		b.Fatal(err)
	}
	cfg := campaign.TransientCampaignConfig{
		Injections: 200, Seed: 31, ResolveSites: true, Prune: prune, Parallel: 1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := campaign.RunTransientCampaign(context.Background(), r, w, golden, profile, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if prune && res.Tally.Pruned == 0 {
			b.Fatal("pruned campaign pruned nothing")
		}
	}
}

func BenchmarkTransientCampaignUnpruned(b *testing.B) { benchPruneCampaign(b, false) }
func BenchmarkTransientCampaignPruned(b *testing.B)   { benchPruneCampaign(b, true) }

// TestPruneRequiresKernels: pruning against a golden result that predates
// kernel capture must fail loudly instead of silently not pruning.
func TestPruneRequiresKernels(t *testing.T) {
	w := deadWorkload{}
	r := campaign.Runner{}
	golden, err := r.Golden(w)
	if err != nil {
		t.Fatal(err)
	}
	profile, _, err := r.Profile(w, core.Exact)
	if err != nil {
		t.Fatal(err)
	}
	stale := *golden
	stale.Kernels = nil
	_, err = campaign.RunTransientCampaign(context.Background(), r, w, &stale, profile,
		campaign.TransientCampaignConfig{Injections: 4, Seed: 1, Prune: true})
	if err == nil || !strings.Contains(err.Error(), "no kernels") {
		t.Fatalf("prune with kernel-less golden result: err = %v", err)
	}
}

// TestLintWorkloadFindsDeadWrites: the campaign-level lint entry point
// surfaces the dead-write diagnostics the pruner feeds on.
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
