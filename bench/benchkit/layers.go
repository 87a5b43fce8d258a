package benchkit

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/faultmodel"
	"repro/internal/gpu"
	"repro/internal/modcache"
	"repro/internal/report"
	"repro/internal/sass"
	"repro/internal/sass/encoding"
	"repro/internal/sassan"
	"repro/internal/serve"
	"repro/internal/stats"
)

const (
	// probeRuns is the repeat count of the cheap layer probes (median
	// reported).
	probeRuns = 5
	// tracedInjections caps each campaign of the traced repetition: a
	// checkpointed 356.sp experiment has ~1000 spans, and the spans of a
	// repetition stay in memory until the run ends.
	tracedInjections = 100
)

// runTraced is the traced run: one timed repetition rebuilt from public
// calls with a span at each layer boundary, the same repetition untraced to
// give the tracing overhead, and a probe of every layer on the workload's
// first program. It reports the per-layer metrics and writes the spans to
// bench/out/trace-<workload>.json.
func runTraced(wl Workload, o Options, rep *Report) error {
	ctx := context.Background()
	parts, err := prepare(wl, o)
	if err != nil {
		return err
	}
	m := newMetricSet(PerLayer)
	primary := parts[0]

	// Cold first: the first launch of a process that has compiled nothing.
	modcache.Shared.Reset()
	cold, err := nativeLaunches(primary.w)
	if err != nil {
		return err
	}
	m.set("gpu.first_launch_cold_ms", ms(cold[0]))
	// The baselines are sampled before each of the run's three repetitions,
	// spread like the untraced run's.
	base := newBaselines()
	if err := base.sample(parts, nil); err != nil {
		return err
	}

	// The warm-up is a full repetition. The traced repetition and the
	// untraced one it is compared against, experiment for experiment, run the
	// first tracedInjections experiments of each campaign: selection is
	// blocked by shard, so a shorter campaign selects a prefix of the longer.
	warm := runRep(ctx, parts)
	rep.Parts, rep.Digest = warm.parts, digest(warm.parts)
	m.set("campaign.warmup_rep_ms", ms(warm.total()))
	if err := base.sample(parts, nil); err != nil {
		return err
	}
	parts = withConfig(parts, func(cfg *campaign.TransientCampaignConfig) {
		cfg.Injections = min(cfg.Injections, tracedInjections)
	})
	ref := runRep(ctx, parts)
	rep.Attempted = warm.attempted + ref.attempted
	rep.Failed = warm.failed + ref.failed
	if rep.Failed > 0 {
		return fmt.Errorf("benchkit: %d experiments of %s failed before tracing began", rep.Failed, wl.Name)
	}

	// The traced repetition.
	if err := base.sample(parts, nil); err != nil {
		return err
	}
	cacheBefore := modcache.Shared.Stats()
	epoch := time.Now()
	var bufs []*spanBuf
	var exps []*experiment
	for k, p := range parts {
		tp, err := newTracedPart(p)
		if err != nil {
			return err
		}
		e, b, err := tp.tracedRep(ctx, epoch, len(exps))
		if err != nil {
			return err
		}
		rep.Attempted += len(e)
		runs := ref.results[k].Runs
		for i := range e {
			if e[i].class != runs[i].Class || e[i].injection != runs[i].Injection || e[i].stats != runs[i].Stats ||
				e[i].restored != runs[i].Restored || e[i].earlyExit != runs[i].EarlyExit {
				rep.fail("workload %s: rebuilt experiment %d of %s is %v %+v, the campaign's is %v %+v",
					wl.Name, i, p.label, e[i].class, e[i].injection, runs[i].Class, runs[i].Injection)
				break
			}
		}
		exps, bufs = append(exps, e...), append(bufs, b...)
	}
	tracedWall := time.Since(epoch)
	cacheAfter := modcache.Shared.Stats()
	spans := mergeSpans(bufs)
	if err := checkSpans(spans); err != nil {
		rep.fail("workload %s: %v", wl.Name, err)
	}
	m.set("trace.overhead_x", tracedWall.Seconds()/ref.total().Seconds())
	m.set("trace.spans", float64(len(spans)))
	hit := func(hits, builds uint64) float64 { return ratio(float64(hits), float64(hits+builds)) }
	m.set("modcache.assemble_hit_rate", hit(cacheAfter.AssembleHits-cacheBefore.AssembleHits, cacheAfter.AssembleBuilds-cacheBefore.AssembleBuilds))
	m.set("modcache.decode_hit_rate", hit(cacheAfter.DecodeHits-cacheBefore.DecodeHits, cacheAfter.DecodeBuilds-cacheBefore.DecodeBuilds))
	m.set("modcache.plan_hit_rate", hit(cacheAfter.PlanHits-cacheBefore.PlanHits, cacheAfter.PlanBuilds-cacheBefore.PlanBuilds))
	m.set("modcache.plan_builds", float64(cacheAfter.PlanBuilds-cacheBefore.PlanBuilds))

	native := map[string][]time.Duration{}
	for _, p := range parts {
		if _, ok := native[p.w.Name()]; !ok {
			if native[p.w.Name()], err = nativeLaunches(p.w); err != nil {
				return err
			}
		}
	}
	spanMetrics(m, spans, exps, func(exp int) []time.Duration {
		for _, p := range parts {
			if exp -= p.cfg.Injections; exp < 0 {
				return native[p.w.Name()]
			}
		}
		return nil
	})

	// The other parallelism: the same repetition at Parallel 2 against
	// Parallel 1, whichever of the two the workload does not already run.
	other := runRep(ctx, withConfig(parts, func(cfg *campaign.TransientCampaignConfig) {
		cfg.Parallel = 3 - cfg.Parallel
	}))
	rep.Attempted += other.attempted
	rep.Failed += other.failed
	if digest(other.parts) != digest(ref.parts) {
		rep.fail("workload %s: the tally depends on Parallel", wl.Name)
	}
	par1, par2 := ref.total(), other.total()
	if primary.cfg.Parallel == 2 {
		par1, par2 = par2, par1
	}
	m.set("campaign.par2_speedup_x", par1.Seconds()/par2.Seconds())

	if err := probeLayers(ctx, m, primary, base, ref.results[0]); err != nil {
		return err
	}
	if err := probeService(ctx, m, o, primary); err != nil {
		return err
	}
	rows, err := fig4Sweep(ctx, o.Seed)
	if err != nil {
		return err
	}
	rep.Fig4 = rows
	fig4Metrics(m, rows)

	if rep.Metrics, err = m.finish(); err != nil {
		return err
	}
	return writeTrace(o, rep, spans)
}

// withConfig copies the parts with an edited campaign config.
func withConfig(parts []*prepared, edit func(*campaign.TransientCampaignConfig)) []*prepared {
	out := make([]*prepared, len(parts))
	for i, p := range parts {
		c := *p
		edit(&c.cfg)
		out[i] = &c
	}
	return out
}

// newContext is a fresh device and context with the runner's shape and the
// golden budget — what Runner.Golden runs a workload on.
func newContext() (*cuda.Context, error) {
	dev, err := gpu.NewDevice(runnerFamily, runnerSMs)
	if err != nil {
		return nil, err
	}
	cctx, err := cuda.NewContext(dev)
	if err != nil {
		return nil, err
	}
	cctx.SetDefaultBudget(campaign.DefaultGoldenBudget)
	return cctx, nil
}

// nativeLaunches runs the workload with no tool attached and returns each
// launch's device time, in launch order.
func nativeLaunches(w campaign.Workload) ([]time.Duration, error) {
	cctx, err := newContext()
	if err != nil {
		return nil, err
	}
	buf := &spanBuf{epoch: time.Now()}
	ls := &launchSpans{buf: buf, launch: -1}
	cctx.Subscribe(beforeNvbit{ls})
	cctx.Subscribe(afterNvbit{ls})
	ls.run = buf.begin("workload.run", -1)
	_, err = w.Run(cctx)
	buf.end(ls.run)
	if err != nil {
		return nil, err
	}
	var ds []time.Duration
	for _, s := range buf.spans {
		if s.Name == "gpu.run" {
			ds = append(ds, s.dur())
		}
	}
	if len(ds) == 0 {
		return nil, fmt.Errorf("benchkit: %s launched no kernel", w.Name())
	}
	return ds, nil
}

// spanMetrics derives the per-layer metrics the spans of the traced
// repetition carry. nativeOf gives an experiment's native per-launch device
// times, the base of the armed-launch overhead.
func spanMetrics(m *metricSet, spans []Span, exps []*experiment, nativeOf func(exp int) []time.Duration) {
	for metric, name := range map[string]string{
		"gpu.new_device_us":         "gpu.new_device",
		"cuda.new_context_us":       "cuda.new_context",
		"core.new_injector_us":      "core.new_injector",
		"nvbit.attach_us":           "nvbit.attach",
		"nvbit.detach_us":           "nvbit.detach",
		"campaign.classify_us":      "campaign.classify",
		"gpu.recycle_us":            "gpu.recycle",
		"gpu.launch_us_p50":         "gpu.run",
		"nvbit.launch_begin_us_p50": "nvbit.launch_begin",
	} {
		m.set(metric, us(medianSpan(spans, name)))
	}

	self := selfTimes(spans)
	var total, device, setup, prefix, postfault time.Duration
	var hostSelf, armedX []float64
	launchNo := map[int]int{}  // experiment -> launches seen so far
	armedAt := map[int]int64{} // experiment -> start of its first armed launch
	runOf := map[int]Span{}    // experiment -> its workload.run span
	durOf := map[int]time.Duration{}
	for _, s := range spans {
		switch s.Name {
		case "experiment":
			total += s.dur()
			durOf[s.Exp] = s.dur()
		case "workload.run":
			runOf[s.Exp] = s
			hostSelf = append(hostSelf, float64(self[s.ID]))
		case "launch":
			if _, seen := armedAt[s.Exp]; s.Armed && !seen {
				armedAt[s.Exp] = s.Start
			}
		case "gpu.run":
			device += s.dur()
			n := launchNo[s.Exp]
			launchNo[s.Exp] = n + 1
			if nat := nativeOf(s.Exp); spans[s.Parent].Armed && n < len(nat) {
				armedX = append(armedX, float64(s.dur())/float64(nat[n]))
			}
		}
	}
	for exp, run := range runOf {
		setup += durOf[exp] - run.dur()
		if at, ok := armedAt[exp]; ok {
			prefix += time.Duration(at - run.Start)
			postfault += time.Duration(run.End - at)
		} else {
			prefix += run.dur() // the fault never armed a launch: the whole run is fault-free
		}
	}
	var launches, instrumented, jit, restored, early float64
	for _, e := range exps {
		launches += float64(e.launches)
		instrumented += float64(e.instrumented)
		jit += float64(e.jitBuilds)
		if e.restored {
			restored++
		}
		if e.earlyExit {
			early++
		}
	}
	n := float64(len(exps))
	m.set("gpu.launches_per_run", launches/n)
	m.set("gpu.device_share", ratio(float64(device), float64(total)))
	m.set("cuda.host_self_ms", median(hostSelf)/float64(time.Millisecond))
	m.set("nvbit.jit_builds_per_run", jit/n)
	m.set("nvbit.instrumented_launch_share", ratio(instrumented, launches))
	m.set("nvbit.armed_overhead_x", median(armedX))
	m.set("campaign.setup_share", ratio(float64(setup), float64(total)))
	m.set("campaign.prefix_share", ratio(float64(prefix), float64(total)))
	m.set("campaign.postfault_share", ratio(float64(postfault), float64(total)))
	m.set("campaign.restored_share", restored/n)
	m.set("campaign.early_exit_share", early/n)
}

// prober times probes and keeps the first error, so a run of probes reads
// as a list and is checked once.
type prober struct{ err error }

// time returns the median wall time of n calls of fn.
func (pr *prober) time(n int, fn func() error) time.Duration {
	ds := make([]float64, 0, n)
	for i := 0; i < n && pr.err == nil; i++ {
		t0 := time.Now()
		pr.err = fn()
		ds = append(ds, float64(time.Since(t0)))
	}
	return time.Duration(median(ds))
}

// probeLayers times each layer's public entry points on the workload's
// first program: the costs a campaign pays once (assemble, decode, analyse,
// profile, plan) and the ones no span can reach from outside (snapshot,
// restore, digest, selection, comparison, reporting).
func probeLayers(ctx context.Context, m *metricSet, p *prepared, base *baselines, ref *campaign.CampaignResult) error {
	var pr prober
	w, golden, profile := p.w, p.golden, p.profile

	// The module sources, and the device at the end of a native run.
	cctx, err := newContext()
	if err != nil {
		return err
	}
	if _, err := w.Run(cctx); err != nil {
		return err
	}
	mods := cctx.Modules()
	codec, err := encoding.NewCodec(runnerFamily)
	if err != nil {
		return err
	}

	// sass: assemble, encode, decode every module, no cache in the way.
	progs := make([]*sass.Program, len(mods))
	bins := make([][]byte, len(mods))
	m.set("sass.assemble_ms", ms(pr.time(probeRuns, func() (err error) {
		for i, mod := range mods {
			if progs[i], err = sass.Assemble(mod.Name(), mod.Source()); err != nil {
				return err
			}
		}
		return nil
	})))
	m.set("sass.encode_ms", ms(pr.time(probeRuns, func() (err error) {
		for i := range mods {
			if bins[i], err = codec.EncodeProgram(progs[i]); err != nil {
				return err
			}
		}
		return nil
	})))
	m.set("sass.decode_ms", ms(pr.time(probeRuns, func() error {
		for i := range mods {
			if _, err := codec.DecodeProgram(bins[i]); err != nil {
				return err
			}
		}
		return nil
	})))

	// sassan over the golden kernels.
	analyses := make([]*sassan.Analysis, 0, len(golden.Kernels))
	m.set("sassan.analyze_ms", ms(pr.time(probeRuns, func() error {
		analyses = analyses[:0]
		for _, k := range golden.Kernels {
			analyses = append(analyses, sassan.Analyze(k))
		}
		return nil
	})))
	m.set("sassan.classtable_ms", ms(pr.time(probeRuns, func() error {
		for _, a := range analyses {
			a.BuildClassTable()
		}
		return nil
	})))
	m.set("sassan.verify_ms", ms(pr.time(probeRuns, func() error {
		for _, a := range analyses {
			a.Verify()
		}
		return nil
	})))

	// gpu: state capture on the device a finished native run leaves behind.
	dev := cctx.Device()
	var snap *gpu.Snapshot
	m.set("gpu.native_mwinstr_per_s", float64(golden.Stats.WarpInstrs)/1e3/base.native(p))
	m.set("gpu.snapshot_us", us(pr.time(probeRuns, func() error { snap = dev.Snapshot(); return nil })))
	m.set("gpu.restore_us", us(pr.time(probeRuns, func() error {
		fresh, err := gpu.NewDevice(runnerFamily, runnerSMs)
		if err != nil {
			return err
		}
		_, err = fresh.Restore(snap)
		return err
	})))
	m.set("gpu.digest_us", us(pr.time(probeRuns, func() error { dev.Digest(); return nil })))

	// cuda: warm module load, and the checkpoint engine's three steps.
	m.set("cuda.load_module_us", us(pr.time(2*probeRuns, func() error {
		c, err := newContext()
		if err != nil {
			return err
		}
		for _, mod := range mods {
			if _, err := c.LoadModule(mod.Name(), mod.Source()); err != nil {
				return err
			}
		}
		return nil
	})))
	var trace *cuda.Trace
	m.set("cuda.record_trace_ms", ms(pr.time(3, func() (err error) {
		trace, err = runner.RecordTrace(w, golden, checkpointStride(golden))
		return err
	})))
	if pr.err != nil {
		return pr.err
	}
	sites := campaign.TransientCampaignConfig{Injections: 64, ShardSize: 64, Seed: p.cfg.Seed, ResolveSites: true}
	params, err := campaign.SelectShard(profile, sites, 0)
	if err != nil {
		return err
	}
	plans := make([]cuda.ReplayPlan, len(params))
	next := 0
	m.set("cuda.plan_restore_us", us(pr.time(len(params), func() error {
		q := params[next]
		plans[next] = trace.PlanRestore(q.KernelName, q.KernelCount, q.StaticInstrIdx, q.InstrCount, false)
		next++
		return nil
	})))
	next = 0
	m.set("cuda.begin_replay_us", us(pr.time(len(params), func() error {
		c, err := newContext()
		if err != nil {
			return err
		}
		next++
		return c.BeginReplay(trace, plans[next-1])
	})))

	// core: selection, both profile modes, output comparison.
	rng := rand.New(rand.NewSource(p.cfg.Seed))
	m.set("core.select_site_us", us(pr.time(200, func() error {
		_, err := core.SelectTransientFaultSite(profile, sass.GroupGPPR, core.FlipSingleBit, rng)
		return err
	})))
	m.set("core.profile_exact_ms", base.profile(p))
	m.set("core.profile_approx_ms", ms(pr.time(probeRuns, func() error {
		_, _, err := runner.Profile(w, core.Approximate)
		return err
	})))
	m.set("core.output_compare_us", us(pr.time(2*probeRuns, func() error {
		if !w.Check(golden.Output, golden.Output) {
			return fmt.Errorf("benchkit: %s golden output fails its own check", w.Name())
		}
		return nil
	})))

	// faultmodel: each non-default model's injector build and run cost.
	env := campaign.ModelEnv(runner, golden, profile)
	for _, name := range faultModels {
		model, err := faultmodel.Lookup(name)
		if err != nil {
			return err
		}
		mp, err := campaign.SelectShard(profile, campaign.TransientCampaignConfig{
			Injections: 6, ShardSize: 6, Seed: p.cfg.Seed, Model: name}, 0)
		if err != nil {
			return err
		}
		next = 0
		m.set("faultmodel.new_injector_us."+name, us(pr.time(len(mp), func() error {
			next++
			_, err := model.NewInjector(mp[next-1], "", env)
			return err
		})))
		runs := make([]float64, len(mp))
		for i := range mp {
			res, err := runner.RunModel(ctx, w, golden, model, mp[i], "", env)
			if err != nil {
				return err
			}
			runs[i] = ms(res.Duration)
		}
		m.set("faultmodel.overhead_x."+name, median(runs)/base.native(p))
	}

	// campaign: the golden call, the plan, one shard's selection, merging.
	m.set("campaign.golden_ms", ms(pr.time(probeRuns, func() error { _, err := runner.Golden(w); return err })))
	m.set("campaign.plan_ms", ms(pr.time(3, func() error {
		_, err := campaign.NewShardPlan(runner, w, golden, profile, p.cfg)
		return err
	})))
	m.set("campaign.select_shard_us", us(pr.time(probeRuns, func() error {
		_, err := campaign.SelectShard(profile, p.cfg, 0)
		return err
	})))
	m.set("campaign.tally_merge_us", us(pr.time(2*probeRuns, func() error {
		campaign.NewTally().Merge(campaign.TallyRuns(ref.Runs))
		return nil
	})))
	adaptive := campaign.TransientCampaignConfig{Injections: p.cfg.Injections, Seed: p.cfg.Seed, TargetCI: 0.05}
	var weights []campaign.StratumWeight
	m.set("campaign.adaptive_strata_ms", ms(pr.time(3, func() (err error) {
		weights, err = campaign.AdaptiveStrata(golden, profile, adaptive)
		return err
	})))

	// stats and report: guards against an accidental blow-up.
	st := stats.NewStratified()
	for _, sw := range weights {
		st.AddStratum(sw.Key, float64(sw.Count), sw.Certain)
		st.Observe(sw.Key, "SDC", (sw.Count+1)/2)
		st.Observe(sw.Key, "Masked", sw.Count/2)
	}
	m.set("stats.stratified_ci_us", us(pr.time(2*probeRuns, func() error {
		_, err := st.ShareCI("SDC", campaign.DefaultConfidence)
		return err
	})))
	m.set("report.summary_json_us", us(pr.time(2*probeRuns, func() error {
		var b bytes.Buffer
		return report.WriteSummaryJSON(&b, ref)
	})))
	return pr.err
}

// probeService times the service's calls one at a time, hand-driving the
// lease protocol against a coordinator with a real journal and HTTP server,
// then runs a few small jobs through a two-worker pool for the figures only
// a live pool shows.
func probeService(ctx context.Context, m *metricSet, o Options, p *prepared) error {
	const shards, shardSize, jobs = 8, 4, 6
	cfg := campaign.TransientCampaignConfig{Injections: shards * shardSize, ShardSize: shardSize, Seed: p.cfg.Seed, Parallel: 1}
	spec := serve.CampaignSpec{Workload: p.w.Name(), Config: cfg}
	plan, err := campaign.NewShardPlan(runner, p.w, p.golden, p.profile, cfg)
	if err != nil {
		return err
	}
	goldenDigest := p.golden.Output.Digest()

	s, err := startService(o, 0)
	if err != nil {
		return err
	}
	defer s.Close()
	t0 := time.Now()
	if _, err := s.client.Submit(spec); err != nil {
		return err
	}
	m.set("serve.submit_ms", ms(time.Since(t0)))

	// Half the shards are leased and completed in-process, half over HTTP.
	var leaseUs, completeMs, heartbeatUs [2][]float64
	for i, b := range []serve.Backend{s.coord, serve.NewClient(s.srv.URL)} {
		id, err := b.Register(serve.WorkerInfo{Name: "probe"})
		if err != nil {
			return err
		}
		for n := 0; n < shards/2; n++ {
			t0 := time.Now()
			grant, err := b.Lease(id)
			leaseUs[i] = append(leaseUs[i], us(time.Since(t0)))
			if err != nil || grant == nil {
				return fmt.Errorf("benchkit: service probe got no lease: %v", err)
			}
			t0 = time.Now()
			if err := b.Heartbeat(id, grant.LeaseID); err != nil {
				return err
			}
			heartbeatUs[i] = append(heartbeatUs[i], us(time.Since(t0)))
			runs, err := plan.RunShard(ctx, grant.Shard)
			if err != nil {
				return err
			}
			res := serve.ShardResult{Tally: campaign.TallyRuns(runs), GoldenDigest: goldenDigest}
			t0 = time.Now()
			if err := b.Complete(id, grant.LeaseID, res); err != nil {
				return err
			}
			completeMs[i] = append(completeMs[i], ms(time.Since(t0)))
		}
	}
	m.set("serve.lease_rtt_us.inproc", median(leaseUs[0]))
	m.set("serve.lease_rtt_us.http", median(leaseUs[1]))
	m.set("serve.heartbeat_us", median(heartbeatUs[1]))
	m.set("serve.complete_ms", median(completeMs[1]))

	// Replay: a second coordinator on the journal the first one wrote.
	if err := s.coord.Close(); err != nil {
		return err
	}
	t0 = time.Now()
	replayed, err := serve.NewCoordinator(serve.Options{Runner: runner, JournalPath: s.journalPath()})
	if err != nil {
		return err
	}
	m.set("serve.journal_replay_ms", ms(time.Since(t0)))
	if err := replayed.Close(); err != nil {
		return err
	}

	// A live pool: small jobs, closed loop, against the in-process campaign.
	live, err := startService(o, serviceWorkers)
	if err != nil {
		return err
	}
	defer live.Close()
	cfg.Injections, cfg.ShardSize = 20, 10
	jp := &prepared{label: p.label, cfg: cfg, w: p.w, golden: p.golden, profile: p.profile}
	ref, inproc, err := jp.reference(ctx, serviceWorkers)
	if err != nil {
		return err
	}
	var settled, firstLease []float64
	var retried float64
	for i := 0; i < jobs; i++ {
		jr, err := live.runJob(ctx, jp.spec())
		if err != nil {
			return err
		}
		tally, err := json.Marshal(jr.status.Tally)
		if err != nil || !bytes.Equal(tally, ref.Tally) {
			return fmt.Errorf("benchkit: service probe tally %s differs from in-process %s", tally, ref.Tally)
		}
		settled = append(settled, ms(jr.settled))
		firstLease = append(firstLease, ms(jr.firstLease))
		retried += float64(jr.retried)
	}
	m.set("serve.submit_to_first_lease_ms", median(firstLease))
	m.set("serve.submit_to_settled_ms_p90", percentile(settled, 0.9))
	m.set("serve.shards_retried", retried)
	m.set("serve.service_overhead_x", median(settled)/ms(inproc))
	return nil
}
