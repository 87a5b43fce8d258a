package campaign_test

import (
	"context"
	"encoding/binary"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/report"
)

// iterSrc is an iterative kernel built so the checkpoint engine has
// something to bite on: each loop iteration recomputes its temporaries from
// the live accumulator R8, and the LOP.AND masks the top 24 bits of R9 —
// so a large share of injections into the XOR's destination are masked and
// the state re-converges with the golden trajectory within one iteration
// (the early-exit case), while accumulator and address corruptions still
// produce SDCs and traps.
const iterSrc = `
.kernel iterk
.param inptr
.param outptr
.param iters
    S2R R0, SR_TID.X
    S2R R1, SR_CTAID.X
    MOV R2, c0[NTID_X]
    IMAD R0, R1, R2, R0           // global thread id
    SHL R3, R0, 0x2
    IADD R10, R3, c0[inptr]
    LDG.32 R8, [R10]              // live accumulator, seeded from input
    MOV R5, c0[iters]             // loop counter
loop:
    IADD R6, R8, 0x5              // fresh temps, recomputed every iteration
    SHL R7, R6, 0x1
    LOP.XOR R9, R7, R8
    LOP.AND R9, R9, 0xff          // masks upper-bit corruption of the XOR
    IADD R8, R9, 0x3
    IADD R5, R5, -0x1
    ISETP.NE.AND P0, R5, 0x0, PT
@P0 BRA loop
    IADD R11, R3, c0[outptr]
    STG.32 [R11], R8
    EXIT
`

const (
	iterThreads  = 64
	iterLaunches = 12
)

// iterWorkload chains iterLaunches launches of iterk with a growing
// iteration count, ping-ponging between two buffers, so the dynamic
// instruction stream is dominated by the later launches: the
// late-injection-heavy shape where re-executing golden prefixes costs the
// most and checkpoint restores save the most.
type iterWorkload struct{}

func (iterWorkload) Name() string { return "iterchain" }
func (iterWorkload) Description() string {
	return "iterative kernel chain, late-instruction-heavy"
}

func (iterWorkload) Run(ctx *cuda.Context) (*campaign.Output, error) {
	out := campaign.NewOutput()
	mod, err := ctx.LoadModule("iter", iterSrc)
	if err != nil {
		return out, err
	}
	fn, err := mod.Function("iterk")
	if err != nil {
		return out, err
	}
	a, err := ctx.Malloc(4 * iterThreads)
	if err != nil {
		return out, err
	}
	b, err := ctx.Malloc(4 * iterThreads)
	if err != nil {
		return out, err
	}
	seed := make([]byte, 4*iterThreads)
	for i := 0; i < iterThreads; i++ {
		binary.LittleEndian.PutUint32(seed[4*i:], uint32(i)*2654435761+12345)
	}
	if err := ctx.MemcpyHtoD(a, seed); err != nil {
		return out, err
	}
	cfg := cuda.LaunchConfig{Grid: gpu.Dim3{X: 1, Y: 1, Z: 1}, Block: gpu.Dim3{X: iterThreads, Y: 1, Z: 1}}
	src, dst := a, b
	for i := 0; i < iterLaunches; i++ {
		// Unchecked-style host code: launch errors surface as stale output.
		_ = ctx.Launch(fn, cfg, src, dst, uint32(4+8*i))
		src, dst = dst, src
	}
	res, err := ctx.MemcpyDtoH(src, 4*iterThreads)
	if err != nil {
		return out, nil
	}
	for i := 0; i+4 <= len(res); i += 4 {
		out.Printf("%08x ", binary.LittleEndian.Uint32(res[i:]))
	}
	return out, nil
}

func (iterWorkload) Check(golden, observed *campaign.Output) bool { return golden.Equal(observed) }

// iterCampaignInputs builds the golden result and site-resolved profile the
// checkpoint tests share.
func iterCampaignInputs(tb testing.TB) (campaign.Runner, *campaign.GoldenResult, *core.Profile) {
	tb.Helper()
	w := iterWorkload{}
	r := campaign.Runner{}
	golden, err := r.Golden(w)
	if err != nil {
		tb.Fatal(err)
	}
	profile, _, err := r.Profile(w, core.Exact)
	if err != nil {
		tb.Fatal(err)
	}
	return r, golden, profile
}

// TestCheckpointDifferential is the checkpoint soundness proof the design
// demands: a >=200-injection campaign with checkpointed restores and
// early-exit classification must produce byte-identical per-run
// classifications to the from-scratch campaign with the same seed, while
// actually restoring and early-exiting a nonzero number of experiments.
func TestCheckpointDifferential(t *testing.T) {
	w := iterWorkload{}
	r, golden, profile := iterCampaignInputs(t)
	base := campaign.TransientCampaignConfig{Injections: 200, Seed: 31, ResolveSites: true}
	scratch, err := campaign.RunTransientCampaign(context.Background(), r, w, golden, profile, base)
	if err != nil {
		t.Fatal(err)
	}
	withCkpt := base
	withCkpt.Checkpoint = true
	ckpt, err := campaign.RunTransientCampaign(context.Background(), r, w, golden, profile, withCkpt)
	if err != nil {
		t.Fatal(err)
	}

	if ckpt.Tally.Restored == 0 {
		t.Fatal("checkpointed campaign restored nothing")
	}
	if ckpt.Tally.EarlyExits == 0 {
		t.Fatal("checkpointed campaign early-exited nothing")
	}
	if scratch.Tally.Restored != 0 || scratch.Tally.EarlyExits != 0 {
		t.Fatalf("from-scratch campaign reports %d restored, %d early exits",
			scratch.Tally.Restored, scratch.Tally.EarlyExits)
	}
	if ckpt.Tally.N != scratch.Tally.N {
		t.Fatalf("run counts differ: checkpointed %d, from-scratch %d", ckpt.Tally.N, scratch.Tally.N)
	}
	for i := range ckpt.Runs {
		if ckpt.Runs[i].Class != scratch.Runs[i].Class {
			t.Fatalf("run %d classified %+v checkpointed vs %+v from scratch (injection %+v)",
				i, ckpt.Runs[i].Class, scratch.Runs[i].Class, ckpt.Runs[i].Injection)
		}
	}
	for _, o := range []campaign.Outcome{campaign.Masked, campaign.SDC, campaign.DUE} {
		if ckpt.Tally.Counts[o] != scratch.Tally.Counts[o] {
			t.Errorf("%v count: checkpointed %d, from-scratch %d",
				o, ckpt.Tally.Counts[o], scratch.Tally.Counts[o])
		}
	}
	if ckpt.Tally.PotentialDUEs != scratch.Tally.PotentialDUEs {
		t.Errorf("potential DUEs: checkpointed %d, from-scratch %d",
			ckpt.Tally.PotentialDUEs, scratch.Tally.PotentialDUEs)
	}
	if sum := report.Summary(ckpt); !strings.Contains(sum, "restored") {
		t.Errorf("CLI summary does not surface the checkpoint counts: %q", sum)
	}
	t.Logf("restored %d/%d, early-exited %d; tallies %v",
		ckpt.Tally.Restored, ckpt.Tally.N, ckpt.Tally.EarlyExits, ckpt.Tally)
}

// TestCheckpointTallyCheck: a checkpointed run whose fault precedes every
// usable checkpoint starts from scratch but still probes for re-convergence,
// so it can exit early without being restored. Tallies of such runs — alone,
// per shard and for the whole campaign — must pass Tally.Check, or the
// campaign service would refuse true shard results.
func TestCheckpointTallyCheck(t *testing.T) {
	w := iterWorkload{}
	r, golden, profile := iterCampaignInputs(t)
	cfg := campaign.TransientCampaignConfig{Injections: 200, Seed: 31, ResolveSites: true, Checkpoint: true, ShardSize: 20}
	res, err := campaign.RunTransientCampaign(context.Background(), r, w, golden, profile, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var unrestored []campaign.RunResult
	for _, run := range res.Runs {
		if run.EarlyExit && !run.Restored {
			unrestored = append(unrestored, run)
		}
	}
	if len(unrestored) == 0 {
		t.Fatal("no run exited early without a restore; the case is untested")
	}
	tallies := []*campaign.Tally{res.Tally, campaign.TallyRuns(unrestored)}
	for i := 0; i < cfg.NumShards(); i++ {
		lo, hi := cfg.ShardRange(i)
		tallies = append(tallies, campaign.TallyRuns(res.Runs[lo:hi]))
	}
	for _, tl := range tallies {
		if err := tl.Check(); err != nil {
			t.Errorf("Check refuses a tally of real runs: %v (%v)", err, tl)
		}
	}
}

// TestCheckpointNoEarlyExit: disabling early exit must not change any
// classification, only force every experiment to run to completion.
func TestCheckpointNoEarlyExit(t *testing.T) {
	w := iterWorkload{}
	r, golden, profile := iterCampaignInputs(t)
	base := campaign.TransientCampaignConfig{Injections: 60, Seed: 7, Checkpoint: true}
	withExit, err := campaign.RunTransientCampaign(context.Background(), r, w, golden, profile, base)
	if err != nil {
		t.Fatal(err)
	}
	noExit := base
	noExit.NoEarlyExit = true
	full, err := campaign.RunTransientCampaign(context.Background(), r, w, golden, profile, noExit)
	if err != nil {
		t.Fatal(err)
	}
	if full.Tally.EarlyExits != 0 {
		t.Fatalf("NoEarlyExit campaign early-exited %d runs", full.Tally.EarlyExits)
	}
	if withExit.Tally.EarlyExits == 0 {
		t.Fatal("early-exit campaign early-exited nothing; the comparison is vacuous")
	}
	if full.Tally.Restored == 0 {
		t.Fatal("NoEarlyExit campaign restored nothing")
	}
	for i := range full.Runs {
		if full.Runs[i].Class != withExit.Runs[i].Class {
			t.Fatalf("run %d classified %+v without early exit vs %+v with",
				i, full.Runs[i].Class, withExit.Runs[i].Class)
		}
	}
}

// divergingWorkload is iterWorkload with a nondeterministic host: its k-th
// run first allocates a buffer the recording never saw, so a replay of that
// run diverges from the journal before any restore point. That run also
// claims device memory behind the driver's back, so the device it leaves
// behind has pages to give back.
type divergingWorkload struct {
	iterWorkload
	k        int32
	runs     atomic.Int32
	dev      *gpu.Device // the k-th run's device
	extraErr error       // what the k-th run's extra allocation returned
}

func (w *divergingWorkload) Run(ctx *cuda.Context) (*campaign.Output, error) {
	if w.runs.Add(1) == w.k {
		w.dev = ctx.Device()
		if _, err := w.dev.Mem.Alloc(4096); err != nil {
			return nil, err
		}
		_, w.extraErr = ctx.Malloc(8)
	}
	return w.iterWorkload.Run(ctx)
}

// TestCheckpointDivergenceFallback: an experiment whose host does not repeat
// the recorded driver calls before its restore point reruns from scratch
// with a fresh injector, classifies exactly as the from-scratch experiment,
// and the device of the abandoned replay is recycled.
func TestCheckpointDivergenceFallback(t *testing.T) {
	r, golden, profile := iterCampaignInputs(t)
	cfg := campaign.TransientCampaignConfig{Injections: 1, Seed: 31, Checkpoint: true, Parallel: 1}
	// Run 1 records the trace, run 2 is the experiment's replay, run 3 its
	// from-scratch rerun.
	w := &divergingWorkload{k: 2}
	res, err := campaign.RunTransientCampaign(context.Background(), r, w, golden, profile, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if w.extraErr == nil {
		t.Fatal("the second run's extra allocation did not diverge from the recording; the fallback is untested")
	}
	if n := w.runs.Load(); n != 3 {
		t.Fatalf("workload ran %d times, want 3 (record, diverged replay, rerun)", n)
	}
	if n := w.dev.Mem.AllocCount(); n != 0 {
		t.Fatalf("the diverged replay's device still holds %d allocations: it was not recycled", n)
	}
	params, err := campaign.SelectShard(profile, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := r.RunTransient(context.Background(), iterWorkload{}, golden, params[0])
	if err != nil {
		t.Fatal(err)
	}
	got := res.Runs[0]
	if got.Restored || got.EarlyExit {
		t.Fatalf("fallback run reports restored=%v early-exit=%v", got.Restored, got.EarlyExit)
	}
	if got.Class != want.Class || got.Injection != want.Injection || got.Stats != want.Stats ||
		got.Activations != want.Activations {
		t.Fatalf("fallback run %+v differs from the from-scratch run %+v", got, *want)
	}
}

// TestCheckpointParallelRace: a checkpointed campaign with experiment-level
// parallelism forks the shared trace snapshots concurrently; under -race
// this proves the copy-on-write pages and journal are safe to share, and
// the outcomes must still match the sequential campaign exactly.
func TestCheckpointParallelRace(t *testing.T) {
	w := iterWorkload{}
	r, golden, profile := iterCampaignInputs(t)
	base := campaign.TransientCampaignConfig{Injections: 48, Seed: 13, Checkpoint: true, Parallel: 1}
	seq, err := campaign.RunTransientCampaign(context.Background(), r, w, golden, profile, base)
	if err != nil {
		t.Fatal(err)
	}
	par := base
	par.Parallel = 8
	conc, err := campaign.RunTransientCampaign(context.Background(), r, w, golden, profile, par)
	if err != nil {
		t.Fatal(err)
	}
	for i := range conc.Runs {
		if conc.Runs[i].Class != seq.Runs[i].Class {
			t.Fatalf("run %d classified %+v parallel vs %+v sequential",
				i, conc.Runs[i].Class, seq.Runs[i].Class)
		}
		if conc.Runs[i].Restored != seq.Runs[i].Restored || conc.Runs[i].EarlyExit != seq.Runs[i].EarlyExit {
			t.Fatalf("run %d checkpoint flags differ: parallel %+v vs sequential %+v",
				i, conc.Runs[i], seq.Runs[i])
		}
	}
	if conc.Tally.Restored == 0 {
		t.Fatal("parallel checkpointed campaign restored nothing")
	}
}

// benchCheckpointCampaign times a 200-injection site-resolved campaign over
// the late-injection-heavy workload with and without the checkpoint engine.
func benchCheckpointCampaign(b *testing.B, checkpoint bool) {
	w := iterWorkload{}
	r, golden, profile := iterCampaignInputs(b)
	cfg := campaign.TransientCampaignConfig{
		Injections: 200, Seed: 31, ResolveSites: true,
		Checkpoint: checkpoint, Parallel: 1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := campaign.RunTransientCampaign(context.Background(), r, w, golden, profile, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if checkpoint && res.Tally.Restored == 0 {
			b.Fatal("checkpointed campaign restored nothing")
		}
	}
}

func BenchmarkTransientCampaignBaseline(b *testing.B)     { benchCheckpointCampaign(b, false) }
func BenchmarkTransientCampaignCheckpointed(b *testing.B) { benchCheckpointCampaign(b, true) }
