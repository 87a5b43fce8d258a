package benchkit

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/serve"
)

// serviceWorkers is the worker pool size: one experiment stream per core of
// the two-goroutine budget.
const serviceWorkers = 2

// timedBackend is the workers' view of the coordinator with a clock at the
// Backend boundary the workers already cross: when each worker registered,
// when each lease was granted, and how long each shard took from there to
// its Complete call. The service is timed from outside.
type timedBackend struct {
	serve.Backend

	registered chan struct{} // one token per successful Register

	mu         sync.Mutex
	granted    map[string]grantMark       // lease id -> when and what was granted
	shardMs    map[string]map[int]float64 // job id -> shard -> ms per experiment, lease granted to complete called
	firstGrant map[string]time.Time       // job id -> first lease granted
}

type grantMark struct {
	at    time.Time
	job   string
	shard int
}

func newTimedBackend(b serve.Backend) *timedBackend {
	return &timedBackend{
		Backend:    b,
		registered: make(chan struct{}, serviceWorkers),
		granted:    map[string]grantMark{},
		shardMs:    map[string]map[int]float64{},
		firstGrant: map[string]time.Time{},
	}
}

func (b *timedBackend) Register(info serve.WorkerInfo) (string, error) {
	id, err := b.Backend.Register(info)
	if err == nil {
		b.registered <- struct{}{}
	}
	return id, err
}

func (b *timedBackend) Lease(workerID string) (*serve.LeaseGrant, error) {
	g, err := b.Backend.Lease(workerID)
	now := time.Now()
	b.mu.Lock()
	defer b.mu.Unlock()
	if g != nil {
		b.granted[g.LeaseID] = grantMark{at: now, job: g.Job, shard: g.Shard}
		if _, ok := b.firstGrant[g.Job]; !ok {
			b.firstGrant[g.Job] = now
		}
	}
	return g, err
}

func (b *timedBackend) Complete(workerID, leaseID string, res serve.ShardResult) error {
	t0 := time.Now()
	err := b.Backend.Complete(workerID, leaseID, res)
	b.mu.Lock()
	defer b.mu.Unlock()
	if g, ok := b.granted[leaseID]; ok && err == nil && res.Tally != nil && res.Tally.N > 0 {
		if b.shardMs[g.job] == nil {
			b.shardMs[g.job] = map[int]float64{}
		}
		b.shardMs[g.job][g.shard] = ms(t0.Sub(g.at)) / float64(res.Tally.N)
	}
	delete(b.granted, leaseID)
	return err
}

// service is a running coordinator, its HTTP server and its worker pool.
type service struct {
	coord   *serve.Coordinator
	srv     *httptest.Server
	client  *serve.Client // the submitter's connection
	backend *timedBackend // the workers' connection
	cancel  context.CancelFunc
	workers *sync.WaitGroup
	dir     string // holds the journal
}

// journalPath is the coordinator's journal inside the service's directory.
func (s *service) journalPath() string { return filepath.Join(s.dir, "journal.jsonl") }

// startService brings up a coordinator with an fsynced journal in a fresh
// directory under bench/out, an HTTP server over it, and n pool workers
// speaking HTTP. Close tears all of it down.
func startService(o Options, n int) (*service, error) {
	out, err := outDir(o)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(out, "service-")
	if err != nil {
		return nil, err
	}
	s := &service{dir: dir}
	s.coord, err = serve.NewCoordinator(serve.Options{Runner: runner, JournalPath: s.journalPath()})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s.srv = httptest.NewServer(serve.NewServer(s.coord))
	s.client = serve.NewClient(s.srv.URL)
	s.backend = newTimedBackend(serve.NewClient(s.srv.URL))
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	s.workers = serve.Pool(ctx, s.backend, runner, n, nil)
	for i := 0; i < n; i++ {
		select {
		case <-s.backend.registered:
		case <-time.After(10 * time.Second):
			s.Close()
			return nil, fmt.Errorf("benchkit: service workers did not register")
		}
	}
	return s, nil
}

// Close stops the workers and waits for them, then closes the server and
// the coordinator and removes the journal directory. It is safe on every
// exit path, with a job in flight or not.
func (s *service) Close() {
	s.cancel()
	s.workers.Wait()
	s.srv.Close()
	s.coord.Close()
	os.RemoveAll(s.dir)
}

// jobRun is one job as the submitting client saw it.
type jobRun struct {
	status *serve.JobStatus
	// settled is Submit's return to the settled event arriving through Watch.
	settled time.Duration
	// firstLease is Submit's return to the first lease any worker was granted.
	firstLease time.Duration
	retried    int
}

// runJob submits a spec and follows its event stream until the job settles.
func (s *service) runJob(ctx context.Context, spec serve.CampaignSpec) (*jobRun, error) {
	st, err := s.client.Submit(spec)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	var settledAt time.Time
	final, err := s.client.Watch(ctx, st.ID, 0, func(ev serve.Event) {
		if ev.Type == "job" && serve.Settled(ev.State) {
			settledAt = time.Now()
		}
	})
	if err != nil {
		return nil, err
	}
	jr := &jobRun{status: final, settled: settledAt.Sub(t0)}
	for _, sh := range final.Shards {
		jr.retried += max(0, sh.Attempts-1)
	}
	s.backend.mu.Lock()
	if at, ok := s.backend.firstGrant[st.ID]; ok {
		jr.firstLease = at.Sub(t0)
	}
	s.backend.mu.Unlock()
	return jr, nil
}

// spec is the part's config as a submitted job.
func (p *prepared) spec() serve.CampaignSpec {
	return serve.CampaignSpec{Workload: p.w.Name(), Config: p.cfg}
}

// reference runs the part's campaign in-process at the given parallelism:
// the tally every service job of that spec must equal byte for byte, and the
// simulated-instruction sums the service does not report.
func (p *prepared) reference(ctx context.Context, parallel int) (PartResult, time.Duration, error) {
	cfg := p.cfg
	cfg.Parallel = parallel
	t0 := time.Now()
	res, err := campaign.RunTransientCampaign(ctx, runner, p.w, p.golden, p.profile, cfg)
	d := time.Since(t0)
	if err != nil {
		return PartResult{}, 0, err
	}
	pr, err := partResult(p.label, res)
	return pr, d, err
}

// checkJob counts a settled job's failures against its reference: a job not
// done, a tally that differs, and every retried or quarantined shard.
func checkJob(rep *Report, jr *jobRun, ref PartResult) {
	n := jr.status.Config.Injections
	rep.Attempted += n + 1
	rep.Failed += jr.retried
	if jr.status.State != serve.JobDone {
		rep.Failed += n + 1
		rep.fail("workload %s: job %s settled %s, not done", rep.Workload, jr.status.ID, jr.status.State)
		return
	}
	tally, err := json.Marshal(jr.status.Tally)
	if err != nil || !bytes.Equal(tally, ref.Tally) {
		rep.fail("workload %s: job %s tally differs from the in-process campaign on the same spec\n  in-process %s\n  service    %s",
			rep.Workload, jr.status.ID, ref.Tally, tally)
	}
}

// runService is the untraced end-to-end run of the service workload.
// Phase A (parts[0]) measures throughput against the in-process campaign,
// phase B (parts[1]) measures submit-to-settled latency of small jobs.
func runService(wl Workload, o Options, rep *Report) error {
	ctx := context.Background()
	parts, err := prepare(wl, o)
	if err != nil {
		return err
	}
	a, b := parts[0], parts[1]

	// Set-up is the campaign set-up of both specs plus bringing the service
	// up to its first accepted job.
	bringUp := func() error {
		s, err := startService(o, serviceWorkers)
		if err != nil {
			return err
		}
		defer s.Close()
		_, err = s.client.Submit(a.spec())
		return err
	}
	if err := newBaselines().sample(parts, bringUp); err != nil {
		return err
	}
	refA, _, err := a.reference(ctx, serviceWorkers)
	if err != nil {
		return err
	}
	refB, _, err := b.reference(ctx, 1)
	if err != nil {
		return err
	}
	rep.Parts, rep.Digest = []PartResult{refA, refB}, digest([]PartResult{refA, refB})

	s, err := startService(o, serviceWorkers)
	if err != nil {
		return err
	}
	defer s.Close()

	// Warm-up: one job of each spec, discarded.
	for _, p := range parts {
		if _, err := s.runJob(ctx, p.spec()); err != nil {
			return err
		}
	}

	base := newBaselines()
	var mem memCounters
	runtime.GC()
	start := time.Now()
	window := time.Duration(o.Seconds * float64(time.Second))
	timedJob := func(p *prepared, ref PartResult) (*jobRun, error) {
		before := readMem()
		jr, err := s.runJob(ctx, p.spec())
		if err != nil {
			return nil, err
		}
		mem.add(readMem().minus(before))
		checkJob(rep, jr, ref)
		return jr, nil
	}
	// The two phases alternate, so both are spread over the whole window: a
	// baseline sample, then B, A, B, B back to back. An idle worker polls every
	// 200 ms, so a job submitted after a pause waits a random share of that.
	// The first B job only re-aligns the workers' polls (its timing is
	// dropped); every job submitted the moment its predecessor settles then
	// waits the same full poll interval.
	var jobsA, jobsB []*jobRun
	for len(jobsA) < minReps || time.Since(start) < window {
		if err := base.sample(parts, bringUp); err != nil {
			return err
		}
		for i, p := range []*prepared{b, a, b, b} {
			ref := refA
			if p == b {
				ref = refB
			}
			jr, err := timedJob(p, ref)
			if err != nil {
				return err
			}
			if i == 0 {
				continue // the aligner
			}
			if p == a {
				jobsA = append(jobsA, jr)
			} else {
				jobsB = append(jobsB, jr)
			}
		}
	}

	// Phase A's interference-free view: the fastest job, and per shard the
	// fastest of its runs across jobs (a shard holds the same faults in
	// every job of the spec).
	fastest := jobsA[0].settled
	shardMs := map[int]float64{}
	s.backend.mu.Lock()
	for _, jr := range jobsA {
		fastest = min(fastest, jr.settled)
		for shard, v := range s.backend.shardMs[jr.status.ID] {
			if old, ok := shardMs[shard]; !ok || v < old {
				shardMs[shard] = v
			}
		}
	}
	s.backend.mu.Unlock()
	perShard := make([]float64, 0, len(shardMs))
	for _, v := range shardMs {
		perShard = append(perShard, v)
	}
	settledA := make([]float64, len(jobsA))
	for i, jr := range jobsA {
		settledA[i] = ms(jr.settled)
	}
	settledB := make([]float64, len(jobsB))
	for i, jr := range jobsB {
		settledB[i] = ms(jr.settled)
	}
	experiments := float64(a.cfg.Injections*len(jobsA) + b.cfg.Injections*(len(jobsB)+len(jobsA)))
	rep.Samples = len(jobsA) * len(shardMs)

	m := newMetricSet(EndToEnd)
	m.set("inj_per_s", float64(a.cfg.Injections)/fastest.Seconds())
	m.set("ms_per_inj_p50", median(perShard))
	m.set("ms_per_inj_p95", percentile(perShard, 0.95))
	m.set("overhead_inject_x", median(perShard)/base.native(a))
	m.set("overhead_profile_x", base.profileX(a))
	m.set("sim_mwinstr_per_s", float64(refA.WarpInstrs)/1e6/fastest.Seconds())
	m.set("allocs_per_inj", float64(mem.mallocs)/experiments)
	m.set("kib_per_inj", float64(mem.bytes)/1024/experiments)
	m.set("peak_rss_mib", peakRSSMiB())
	m.set("submit_to_settled_ms_p50", median(settledB))
	m.set("setup_s", base.setupS())
	rep.PerRep = base.samples
	rep.PerRep["phase_a_settled_ms"], rep.PerRep["submit_to_settled_ms"] = settledA, settledB
	rep.Metrics, err = m.finish()
	return err
}
