package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/specaccel"
)

const testWorkload = "314.omriq"

// inProcessTally runs the same campaign single-process and marshals its
// tally — the reference every service test compares against.
func inProcessTally(t *testing.T, cfg campaign.TransientCampaignConfig) []byte {
	t.Helper()
	r, w, golden, profile := inProcessFixture(t)
	res, err := campaign.RunTransientCampaign(context.Background(), r, w, golden, profile, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res.Tally)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// inProcessFixture is testWorkload's golden run and profile.
func inProcessFixture(t *testing.T) (campaign.Runner, campaign.Workload, *campaign.GoldenResult, *core.Profile) {
	t.Helper()
	w, err := specaccel.ByName(testWorkload)
	if err != nil {
		t.Fatal(err)
	}
	r := campaign.Runner{}
	golden, err := r.Golden(w)
	if err != nil {
		t.Fatal(err)
	}
	profile, _, err := r.Profile(w, core.Exact)
	if err != nil {
		t.Fatal(err)
	}
	return r, w, golden, profile
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// Job specs as a build wrote them while the campaign config still carried
// the engine switch NoXlate or the TimingFidelity switch. Decoding ignores
// those fields, so the specs still validate and run — on the one engine, to
// the tally of the same config without them.
const (
	parentSpecXlate  = `{"schema":"nvbitfi.job/v1","workload":"314.omriq","config":{"Injections":60,"Group":0,"BitFlip":0,"Seed":42,"Parallel":0,"TimingFidelity":false,"ResolveSites":false,"Prune":false,"Checkpoint":false,"CkptStride":0,"NoEarlyExit":false,"NoXlate":false,"ShardSize":0}}`
	parentSpecInterp = `{"schema":"nvbitfi.job/v1","workload":"314.omriq","config":{"Injections":60,"Group":0,"BitFlip":0,"Seed":42,"Parallel":0,"TimingFidelity":false,"ResolveSites":false,"Prune":false,"Checkpoint":false,"CkptStride":0,"NoEarlyExit":false,"NoXlate":true,"ShardSize":0}}`
	// parentSpecTiming asks for sequential experiments through the
	// TimingFidelity switch the config has since lost; Parallel 1 is its
	// equivalent, and neither changes a tally.
	parentSpecTiming = `{"schema":"nvbitfi.job/v1","workload":"314.omriq","config":{"Injections":60,"Group":0,"BitFlip":0,"Seed":42,"Parallel":0,"TimingFidelity":true,"ResolveSites":false,"Prune":false,"Checkpoint":false,"CkptStride":0,"NoEarlyExit":false,"ShardSize":0}}`
	// parentSpecPrune and parentSpecClasses ask for the static pruning and
	// class sampling the config has since lost. Both drew from the site-
	// resolved population, so each decodes as ResolveSites and runs the
	// faults it always selected; only which experiments ran has changed, and
	// no classification.
	parentSpecPrune   = `{"schema":"nvbitfi.job/v1","workload":"314.omriq","config":{"Injections":60,"Group":0,"BitFlip":0,"Seed":43,"Parallel":0,"ResolveSites":false,"Prune":true,"Checkpoint":false,"CkptStride":0,"NoEarlyExit":false,"ShardSize":0}}`
	parentSpecClasses = `{"schema":"nvbitfi.job/v1","workload":"314.omriq","config":{"Injections":60,"Group":0,"BitFlip":0,"Seed":45,"Parallel":0,"ResolveSites":false,"Prune":false,"Classes":true,"Checkpoint":false,"CkptStride":0,"NoEarlyExit":false,"ShardSize":0}}`
	// parentJournalJob is the journal's job line for a 3-shard NoXlate job.
	parentJournalJob = `{"type":"job","job":"job-adbbf8786c1d","spec":{"schema":"nvbitfi.job/v1","workload":"314.omriq","config":{"Injections":60,"Group":0,"BitFlip":0,"Seed":42,"Parallel":0,"TimingFidelity":false,"ResolveSites":false,"Prune":false,"Checkpoint":false,"CkptStride":0,"NoEarlyExit":false,"NoXlate":true,"ShardSize":20}},"golden_digest":"177c0ddca0c846317ec1a89ef949d55745aadf57d667e271a9b3310d9efac8fd","num_shards":3}`
)

// postSpec submits a raw JSON spec to the HTTP API, as a client that
// predates this build's CampaignSpec would.
func postSpec(t *testing.T, url, raw string) *serve.JobStatus {
	t.Helper()
	resp, err := http.Post(url+"/api/v1/jobs", "application/json", strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST %s: %s", raw, resp.Status)
	}
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return &st
}

// TestServiceTallyIdentity: a 200-injection campaign submitted over HTTP and
// executed by two remote workers must produce a tally byte-identical to the
// in-process runner on the same seed — and the same must hold with the
// checkpoint engine enabled, and for specs written before the config lost
// NoXlate, TimingFidelity, Prune and Classes.
func TestServiceTallyIdentity(t *testing.T) {
	cases := []struct {
		name string
		cfg  campaign.TransientCampaignConfig
		// raw, when set, is submitted as-is; cfg is then the in-process
		// campaign it must match.
		raw string
	}{
		{"plain", campaign.TransientCampaignConfig{Injections: 200, Seed: 42}, ""},
		{"ckpt", campaign.TransientCampaignConfig{Injections: 60, Seed: 44, Checkpoint: true}, ""},
		{"parent-spec", campaign.TransientCampaignConfig{Injections: 60, Seed: 42}, parentSpecXlate},
		{"parent-spec-noxlate", campaign.TransientCampaignConfig{Injections: 60, Seed: 42}, parentSpecInterp},
		{"parent-spec-timing", campaign.TransientCampaignConfig{Injections: 60, Seed: 42, Parallel: 1}, parentSpecTiming},
		{"parent-spec-prune", campaign.TransientCampaignConfig{Injections: 60, Seed: 43, ResolveSites: true}, parentSpecPrune},
		{"parent-spec-classes", campaign.TransientCampaignConfig{Injections: 60, Seed: 45, ResolveSites: true}, parentSpecClasses},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := inProcessTally(t, tc.cfg)

			coord, err := serve.NewCoordinator(serve.Options{})
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(serve.NewServer(coord))
			defer srv.Close()
			client := serve.NewClient(srv.URL)

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var wg sync.WaitGroup
			for i := 0; i < 2; i++ {
				w := &serve.Worker{Backend: serve.NewClient(srv.URL), Runner: campaign.Runner{}, Logf: t.Logf}
				wg.Add(1)
				go func() {
					defer wg.Done()
					w.Run(ctx)
				}()
			}

			var st *serve.JobStatus
			if tc.raw != "" {
				st = postSpec(t, srv.URL, tc.raw)
			} else if st, err = client.Submit(serve.CampaignSpec{Workload: testWorkload, Config: tc.cfg}); err != nil {
				t.Fatal(err)
			}
			if st.GoldenDigest == "" {
				t.Fatal("submitted job carries no golden digest")
			}

			// Follow the live stream: tally snapshots must ride on shard
			// completions, and the final event settles the job.
			var sawTallyEvent bool
			final, err := client.Watch(ctx, st.ID, 0, func(ev serve.Event) {
				if ev.Type == "shard" && ev.State == serve.ShardDone && ev.Tally != nil {
					sawTallyEvent = true
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			cancel()
			wg.Wait()

			if final.State != serve.JobDone {
				t.Fatalf("job settled as %q: %+v", final.State, final)
			}
			if !sawTallyEvent {
				t.Fatal("no shard completion event carried a tally snapshot")
			}
			got := mustJSON(t, final.Tally)
			if !bytes.Equal(got, want) {
				t.Fatalf("service tally differs from in-process tally:\nservice:    %s\nin-process: %s", got, want)
			}
		})
	}
}

// crashBackend simulates a worker crash: after the first granted lease,
// every later call is swallowed — no Fail, no Complete, no Heartbeat and no
// Deregister ever reaches the coordinator, exactly as if the process died.
// (Cancelling a worker's context alone is a clean exit now: it deregisters
// and hands the shard back.) The coordinator must recover the shard through
// lease expiry alone.
type crashBackend struct {
	serve.Backend
	mu      sync.Mutex
	crashed bool
	leased  chan struct{} // closed once the victim holds a lease
	kill    func()        // cancels the victim worker's context
}

func (b *crashBackend) Lease(workerID string) (*serve.LeaseGrant, error) {
	b.mu.Lock()
	crashed := b.crashed
	b.mu.Unlock()
	if crashed {
		return nil, nil
	}
	grant, err := b.Backend.Lease(workerID)
	if grant != nil {
		b.mu.Lock()
		b.crashed = true
		b.mu.Unlock()
		close(b.leased)
		// Let the shard start running, then kill the worker mid-flight.
		go func() {
			time.Sleep(10 * time.Millisecond)
			b.kill()
		}()
	}
	return grant, err
}

func (b *crashBackend) dead() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.crashed
}

func (b *crashBackend) Heartbeat(workerID, leaseID string) error {
	if b.dead() {
		return nil
	}
	return b.Backend.Heartbeat(workerID, leaseID)
}

func (b *crashBackend) Complete(workerID, leaseID string, res serve.ShardResult) error {
	if b.dead() {
		return nil
	}
	return b.Backend.Complete(workerID, leaseID, res)
}

func (b *crashBackend) Fail(workerID, leaseID, reason string) error {
	if b.dead() {
		return nil
	}
	return b.Backend.Fail(workerID, leaseID, reason)
}

func (b *crashBackend) Deregister(workerID string) error {
	if b.dead() {
		return nil
	}
	return b.Backend.Deregister(workerID)
}

// TestWorkerCrashLeaseReclaim: kill a worker mid-shard. Its lease must
// expire, the shard must be retried on the surviving worker, and the final
// tally must still be byte-identical to the in-process campaign — a crashed
// worker can cost time, never correctness.
func TestWorkerCrashLeaseReclaim(t *testing.T) {
	cfg := campaign.TransientCampaignConfig{Injections: 50, Seed: 77, ShardSize: 10}
	want := inProcessTally(t, cfg)

	coord, err := serve.NewCoordinator(serve.Options{
		LeaseTTL:     250 * time.Millisecond,
		RetryBackoff: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	victimCtx, killVictim := context.WithCancel(ctx)
	crash := &crashBackend{Backend: coord, leased: make(chan struct{}), kill: killVictim}
	victim := &serve.Worker{Backend: crash, Runner: campaign.Runner{}, Name: "victim", Logf: t.Logf}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		victim.Run(victimCtx)
	}()

	st, err := coord.Submit(serve.CampaignSpec{Workload: testWorkload, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}

	// The healthy worker only starts once the victim holds its lease, so
	// the retried shard is guaranteed to have been the victim's.
	<-crash.leased
	healthy := &serve.Worker{Backend: coord, Runner: campaign.Runner{}, Name: "healthy", Logf: t.Logf}
	wg.Add(1)
	go func() {
		defer wg.Done()
		healthy.Run(ctx)
	}()

	deadline := time.After(2 * time.Minute)
	for {
		js, ok := coord.Job(st.ID)
		if !ok {
			t.Fatal("job vanished")
		}
		if serve.Settled(js.State) {
			if js.State != serve.JobDone {
				t.Fatalf("job settled as %q", js.State)
			}
			retried := false
			for _, sh := range js.Shards {
				if sh.Attempts > 1 {
					retried = true
				}
			}
			if !retried {
				t.Fatal("no shard recorded a retry; the crash was not exercised")
			}
			got := mustJSON(t, js.Tally)
			if !bytes.Equal(got, want) {
				t.Fatalf("post-crash tally differs:\nservice:    %s\nin-process: %s", got, want)
			}
			break
		}
		select {
		case <-deadline:
			t.Fatalf("job did not settle; status: %+v", js)
		case <-time.After(20 * time.Millisecond):
		}
	}
	cancel()
	wg.Wait()
}

// countingBackend counts Complete calls that the coordinator accepted.
type countingBackend struct {
	serve.Backend
	mu        sync.Mutex
	completes int
	// stop, when set, is called once completes reaches stopAt: a worker
	// checks its context after every Lease, so it runs no shard after that,
	// however fast the shards run.
	stop   context.CancelFunc
	stopAt int
}

func (b *countingBackend) Complete(workerID, leaseID string, res serve.ShardResult) error {
	err := b.Backend.Complete(workerID, leaseID, res)
	if err == nil {
		b.mu.Lock()
		b.completes++
		if b.stop != nil && b.completes == b.stopAt {
			b.stop()
		}
		b.mu.Unlock()
	}
	return err
}

func (b *countingBackend) count() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.completes
}

// TestCoordinatorRestartResumes: stop the coordinator mid-job and rebuild
// it from the journal. Finished shards must not re-run, the job must
// complete, and the tally must match the in-process campaign.
func TestCoordinatorRestartResumes(t *testing.T) {
	cfg := campaign.TransientCampaignConfig{Injections: 50, Seed: 99, ShardSize: 10}
	want := inProcessTally(t, cfg)
	journal := filepath.Join(t.TempDir(), "journal.jsonl")

	// Phase 1: run until two shards land, then shut down.
	coord1, err := serve.NewCoordinator(serve.Options{JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	count1 := &countingBackend{Backend: coord1, stop: cancel1, stopAt: 2}
	w1 := &serve.Worker{Backend: count1, Runner: campaign.Runner{}, Name: "phase1", Logf: t.Logf}
	var wg1 sync.WaitGroup
	wg1.Add(1)
	go func() {
		defer wg1.Done()
		w1.Run(ctx1)
	}()
	st, err := coord1.Submit(serve.CampaignSpec{Workload: testWorkload, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	for {
		js, _ := coord1.Job(st.ID)
		if js.Done >= 2 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel1()
	wg1.Wait()
	if err := coord1.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: a fresh coordinator on the same journal resumes the job.
	coord2, err := serve.NewCoordinator(serve.Options{JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	js, ok := coord2.Job(st.ID)
	if !ok {
		t.Fatal("restarted coordinator forgot the job")
	}
	if js.State != serve.JobRunning {
		t.Fatalf("resumed job state = %q, want running", js.State)
	}
	doneAtRestart := js.Done
	if doneAtRestart < 2 {
		t.Fatalf("journal preserved %d done shards, want >= 2", doneAtRestart)
	}

	count2 := &countingBackend{Backend: coord2}
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	w2 := &serve.Worker{Backend: count2, Runner: campaign.Runner{}, Name: "phase2", Logf: t.Logf}
	var wg2 sync.WaitGroup
	wg2.Add(1)
	go func() {
		defer wg2.Done()
		w2.Run(ctx2)
	}()
	deadline := time.After(2 * time.Minute)
	for {
		js, _ = coord2.Job(st.ID)
		if serve.Settled(js.State) {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("resumed job did not settle; status: %+v", js)
		case <-time.After(20 * time.Millisecond):
		}
	}
	cancel2()
	wg2.Wait()

	if js.State != serve.JobDone {
		t.Fatalf("resumed job settled as %q", js.State)
	}
	// Every shard completed exactly once across both coordinator lives:
	// the journal prevented any done shard from re-running.
	if total := count1.count() + count2.count(); total != cfg.NumShards() {
		t.Fatalf("shards completed %d times across restart, want %d", total, cfg.NumShards())
	}
	got := mustJSON(t, js.Tally)
	if !bytes.Equal(got, want) {
		t.Fatalf("post-restart tally differs:\nservice:    %s\nin-process: %s", got, want)
	}
}

// TestParentJournalResumes: a coordinator restarted on a journal whose job
// line carries the removed NoXlate field resumes the job, and it settles to
// the tally of the in-process campaign without it.
func TestParentJournalResumes(t *testing.T) {
	want := inProcessTally(t, campaign.TransientCampaignConfig{Injections: 60, Seed: 42, ShardSize: 20})
	journal := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := os.WriteFile(journal, []byte(parentJournalJob+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	coord, err := serve.NewCoordinator(serve.Options{JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	const id = "job-adbbf8786c1d"
	if js, ok := coord.Job(id); !ok || js.State != serve.JobRunning {
		t.Fatalf("replayed job: %+v, found %v", js, ok)
	}
	ctx, cancel := context.WithCancel(context.Background())
	pool := serve.Pool(ctx, coord, campaign.Runner{}, 2, t.Logf)
	defer func() {
		cancel()
		pool.Wait()
	}()
	deadline := time.After(2 * time.Minute)
	for {
		js, _ := coord.Job(id)
		if serve.Settled(js.State) {
			if js.State != serve.JobDone {
				t.Fatalf("replayed job settled as %q", js.State)
			}
			if got := mustJSON(t, js.Tally); !bytes.Equal(got, want) {
				t.Fatalf("replayed job tally differs:\nservice:    %s\nin-process: %s", got, want)
			}
			return
		}
		select {
		case <-deadline:
			t.Fatalf("replayed job did not settle; status: %+v", js)
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// TestParentSchemaJournalsResume: a coordinator restarted on a journal a
// parent coordinator wrote for an adaptive job (schema v2), a fault-model job
// (schema v3) or a -prune job with a finished shard replays it under the one
// schema and settles to the tally of the in-process campaign.
func TestParentSchemaJournalsResume(t *testing.T) {
	// schemaAs rewrites this build's journal into a parent's that encoded the
	// same config the same way under another schema string.
	schemaAs := func(schema string) func(*testing.T, []byte, string) []byte {
		return func(t *testing.T, ours []byte, _ string) []byte {
			parent := bytes.ReplaceAll(ours, []byte(`"schema":"`+serve.JobSchema+`"`), []byte(`"schema":"`+schema+`"`))
			if bytes.Equal(parent, ours) {
				t.Fatalf("the journal names no schema: %s", ours)
			}
			return parent
		}
	}
	// pruned rewrites this build's journal of the resolved job into a
	// parent's -prune job that had finished shard 0: its config says Prune
	// instead of ResolveSites, and shard 0's tally counts pruned runs.
	resolved := campaign.TransientCampaignConfig{Injections: 60, Seed: 47, ShardSize: 20, ResolveSites: true}
	pruned := func(t *testing.T, ours []byte, id string) []byte {
		parent := bytes.ReplaceAll(ours, []byte(`"ResolveSites":true`), []byte(`"ResolveSites":false,"Prune":true`))
		if bytes.Equal(parent, ours) {
			t.Fatalf("the journal's job resolves no sites: %s", ours)
		}
		r, w, golden, profile := inProcessFixture(t)
		plan, err := campaign.NewShardPlan(r, w, golden, profile, resolved)
		if err != nil {
			t.Fatal(err)
		}
		runs, err := plan.RunShard(context.Background(), 0)
		if err != nil {
			t.Fatal(err)
		}
		tally := bytes.Replace(mustJSON(t, campaign.TallyRuns(runs)), []byte(`"pruned":0`), []byte(`"pruned":4`), 1)
		return fmt.Appendf(parent, `{"type":"shard_done","job":%q,"shard":0,"tally":%s}`+"\n", id, tally)
	}
	for _, tc := range []struct {
		name   string
		cfg    campaign.TransientCampaignConfig
		parent func(t *testing.T, ours []byte, id string) []byte
	}{
		{"nvbitfi.job/v2", campaign.TransientCampaignConfig{Injections: 300, Seed: 46, TargetCI: 0.10}, schemaAs("nvbitfi.job/v2")},
		{"nvbitfi.job/v3", campaign.TransientCampaignConfig{Injections: 60, Seed: 42, ShardSize: 20, Model: "stuck"}, schemaAs("nvbitfi.job/v3")},
		{"prune", resolved, pruned},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := inProcessTally(t, tc.cfg)
			journal := filepath.Join(t.TempDir(), "journal.jsonl")
			coord, err := serve.NewCoordinator(serve.Options{JournalPath: journal})
			if err != nil {
				t.Fatal(err)
			}
			st, err := coord.Submit(serve.CampaignSpec{Workload: testWorkload, Config: tc.cfg})
			if err != nil {
				t.Fatal(err)
			}
			coord.Close()
			ours, err := os.ReadFile(journal)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(journal, tc.parent(t, ours, st.ID), 0o644); err != nil {
				t.Fatal(err)
			}

			coord, err = serve.NewCoordinator(serve.Options{JournalPath: journal})
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()
			if js, ok := coord.Job(st.ID); !ok || js.State != serve.JobRunning || js.Schema != serve.JobSchema {
				t.Fatalf("replayed job: %+v, found %v", js, ok)
			}
			ctx, cancel := context.WithCancel(context.Background())
			pool := serve.Pool(ctx, coord, campaign.Runner{}, 2, t.Logf)
			defer func() {
				cancel()
				pool.Wait()
			}()
			deadline := time.After(2 * time.Minute)
			for {
				js, _ := coord.Job(st.ID)
				if serve.Settled(js.State) {
					if js.State != serve.JobDone || js.Schema != serve.JobSchema {
						t.Fatalf("replayed job settled as %q under schema %q", js.State, js.Schema)
					}
					if got := mustJSON(t, js.Tally); !bytes.Equal(got, want) {
						t.Fatalf("replayed job tally differs:\nservice:    %s\nin-process: %s", got, want)
					}
					return
				}
				select {
				case <-deadline:
					t.Fatalf("replayed job did not settle; status: %+v", js)
				case <-time.After(20 * time.Millisecond):
				}
			}
		})
	}
}

// TestRetryBackoffAndQuarantine drives the lease state machine directly
// with a fake clock: fail a shard repeatedly and watch it back off
// exponentially, then land in quarantine at the attempt cap, failing the
// job.
func TestRetryBackoffAndQuarantine(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	coord, err := serve.NewCoordinator(serve.Options{
		MaxAttempts:  3,
		RetryBackoff: time.Second,
		Clock:        clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := coord.Submit(serve.CampaignSpec{
		Workload: testWorkload,
		Config:   campaign.TransientCampaignConfig{Injections: 5, ShardSize: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.NumShards != 1 {
		t.Fatalf("NumShards = %d, want 1", st.NumShards)
	}
	wid, err := coord.Register(serve.WorkerInfo{Name: "w"})
	if err != nil {
		t.Fatal(err)
	}

	// Attempt 1 fails: the shard backs off one second.
	g, err := coord.Lease(wid)
	if err != nil || g == nil {
		t.Fatalf("lease 1: %v %v", g, err)
	}
	if err := coord.Fail(wid, g.LeaseID, "boom"); err != nil {
		t.Fatal(err)
	}
	if g2, _ := coord.Lease(wid); g2 != nil {
		t.Fatal("shard leased again before its backoff elapsed")
	}
	now = now.Add(1100 * time.Millisecond)

	// Attempt 2 fails: backoff doubles.
	g, err = coord.Lease(wid)
	if err != nil || g == nil {
		t.Fatalf("lease 2: %v %v", g, err)
	}
	if err := coord.Fail(wid, g.LeaseID, "boom"); err != nil {
		t.Fatal(err)
	}
	now = now.Add(1100 * time.Millisecond)
	if g2, _ := coord.Lease(wid); g2 != nil {
		t.Fatal("second backoff did not double")
	}
	now = now.Add(1100 * time.Millisecond)

	// Attempt 3 fails: the shard quarantines and the job settles failed.
	g, err = coord.Lease(wid)
	if err != nil || g == nil {
		t.Fatalf("lease 3: %v %v", g, err)
	}
	if err := coord.Fail(wid, g.LeaseID, "boom"); err != nil {
		t.Fatal(err)
	}
	js, _ := coord.Job(st.ID)
	if js.State != serve.JobFailed || js.Quarantined != 1 {
		t.Fatalf("job = %q quarantined=%d, want failed/1", js.State, js.Quarantined)
	}
	if js.Shards[0].State != serve.ShardQuarantined {
		t.Fatalf("shard state = %q, want quarantined", js.Shards[0].State)
	}
	// A stale completion for the quarantined shard must be refused.
	if err := coord.Complete(wid, g.LeaseID, serve.ShardResult{Tally: campaign.NewTally()}); err == nil {
		t.Fatal("stale complete accepted after quarantine")
	}
}

// TestHeartbeatKeepsLease: with a fake clock, heartbeats must push the
// expiry forward so a slow shard outlives many TTLs.
func TestHeartbeatKeepsLease(t *testing.T) {
	now := time.Unix(2000, 0)
	coord, err := serve.NewCoordinator(serve.Options{
		LeaseTTL: 10 * time.Second,
		Clock:    func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := coord.Submit(serve.CampaignSpec{
		Workload: testWorkload,
		Config:   campaign.TransientCampaignConfig{Injections: 5, ShardSize: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	wid, _ := coord.Register(serve.WorkerInfo{Name: "w"})
	g, err := coord.Lease(wid)
	if err != nil || g == nil {
		t.Fatalf("lease: %v %v", g, err)
	}
	for i := 0; i < 5; i++ {
		now = now.Add(8 * time.Second)
		if err := coord.Heartbeat(wid, g.LeaseID); err != nil {
			t.Fatalf("heartbeat %d: %v", i, err)
		}
	}
	if err := coord.Complete(wid, g.LeaseID, serve.ShardResult{
		Tally: maskedTally(5), GoldenDigest: g.GoldenDigest,
	}); err != nil {
		t.Fatal(err)
	}
	js, _ := coord.Job(st.ID)
	if js.State != serve.JobDone {
		t.Fatalf("job = %q, want done", js.State)
	}
	// Without a heartbeat the lease would have expired: prove the converse.
	now = now.Add(11 * time.Second)
	if err := coord.Heartbeat(wid, "lease-gone"); err == nil {
		t.Fatal("heartbeat on an unknown lease succeeded")
	}
}

// TestJournalTornTail: a journal whose final record was torn by a crash
// mid-write must replay cleanly, dropping only the torn record.
func TestJournalTornTail(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "journal.jsonl")
	coord1, err := serve.NewCoordinator(serve.Options{JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	st, err := coord1.Submit(serve.CampaignSpec{
		Workload: testWorkload,
		Config:   campaign.TransientCampaignConfig{Injections: 20, ShardSize: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord1.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: append half a record with no newline.
	f, err := os.OpenFile(journal, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"shard_done","job":"` + st.ID + `","sh`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	coord2, err := serve.NewCoordinator(serve.Options{JournalPath: journal})
	if err != nil {
		t.Fatalf("torn journal refused: %v", err)
	}
	js, ok := coord2.Job(st.ID)
	if !ok {
		t.Fatal("job lost after torn-tail replay")
	}
	if js.Done != 0 || js.State != serve.JobRunning {
		t.Fatalf("torn record leaked state: %+v", js)
	}
}

// TestJournalCorruptMidFile: a complete record that does not parse, followed
// by good records, is not a torn tail. The coordinator must refuse to open
// the journal, name the bad record's byte offset, and leave the file
// byte-identical — truncating there would drop the good records after it.
func TestJournalCorruptMidFile(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "journal.jsonl")
	coord1, err := serve.NewCoordinator(serve.Options{JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 2; seed++ {
		if _, err := coord1.Submit(serve.CampaignSpec{
			Workload: testWorkload,
			Config:   campaign.TransientCampaignConfig{Injections: 20, ShardSize: 10, Seed: seed},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := coord1.Close(); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	first := bytes.IndexByte(good, '\n') + 1
	if first == 0 || first == len(good) {
		t.Fatalf("journal holds %q; want at least two records", good)
	}
	corrupt := slices.Concat(good[:first], []byte(`{"type":"shard_done","job":}`+"\n"), good[first:])
	if err := os.WriteFile(journal, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = serve.NewCoordinator(serve.Options{JournalPath: journal})
	if err == nil {
		t.Fatal("a journal with a corrupt record mid-file was opened")
	}
	if want := fmt.Sprintf("corrupt at offset %d", first); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name the bad record (want %q)", err, want)
	}
	after, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, corrupt) {
		t.Errorf("refusing the journal changed it: %d bytes, want the %d written", len(after), len(corrupt))
	}
}

// TestJournalUntrustedShardDone: a shard_done record replay cannot trust — no
// tally (Merge(nil) would settle the job short), a tally that fails
// Tally.Check, or one counting other than the shard's runs — is refused on
// open like an unparseable record: the error names its offset and the file is
// left as it was. Coordinator.Complete refuses all three live.
func TestJournalUntrustedShardDone(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "journal.jsonl")
	coord1, err := serve.NewCoordinator(serve.Options{JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	st, err := coord1.Submit(serve.CampaignSpec{
		Workload: testWorkload,
		Config:   campaign.TransientCampaignConfig{Injections: 20, ShardSize: 10, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord1.Close(); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	first := bytes.IndexByte(good, '\n') + 1
	if first == 0 {
		t.Fatalf("journal holds %q; want the job record", good)
	}

	tally := func(n, sdc, due, masked int) string {
		tl := campaign.NewTally()
		tl.N = n
		tl.Counts[campaign.SDC], tl.Counts[campaign.DUE], tl.Counts[campaign.Masked] = sdc, due, masked
		b, err := json.Marshal(tl)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for _, c := range []struct{ name, record, want string }{
		{"no-tally", fmt.Sprintf(`{"type":"shard_done","job":%q}`, st.ID), "carries no tally"},
		{"forged", fmt.Sprintf(`{"type":"shard_done","job":%q,"tally":%s}`, st.ID, tally(10, 1, 1, 1)), "outcome counts sum to 3, N is 10"},
		{"short", fmt.Sprintf(`{"type":"shard_done","job":%q,"shard":1,"tally":%s}`, st.ID, tally(4, 0, 0, 4)), "counts 4 runs, the shard selects 10"},
	} {
		t.Run(c.name, func(t *testing.T) {
			bad := slices.Concat(good[:first], []byte(c.record+"\n"), good[first:])
			if err := os.WriteFile(journal, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := serve.NewCoordinator(serve.Options{JournalPath: journal})
			if err == nil {
				t.Fatal("a journal with an untrusted shard_done record was opened")
			}
			for _, want := range []string{fmt.Sprintf("corrupt at offset %d", first), c.want} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not say %q", err, want)
				}
			}
			after, err := os.ReadFile(journal)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(after, bad) {
				t.Errorf("refusing the journal changed it: %d bytes, want the %d written", len(after), len(bad))
			}
		})
	}
}

// TestSSEStream: the events endpoint must stream live SSE frames.
func TestSSEStream(t *testing.T) {
	coord, err := serve.NewCoordinator(serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(serve.NewServer(coord))
	defer srv.Close()
	client := serve.NewClient(srv.URL)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &serve.Worker{Backend: serve.NewClient(srv.URL), Runner: campaign.Runner{}}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.Run(ctx)
	}()

	st, err := client.Submit(serve.CampaignSpec{
		Workload: testWorkload,
		Config:   campaign.TransientCampaignConfig{Injections: 20, Seed: 5, ShardSize: 10},
	})
	if err != nil {
		t.Fatal(err)
	}

	req, err := http.NewRequestWithContext(ctx, "GET", srv.URL+"/api/v1/jobs/"+st.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var done bool
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev serve.Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE frame %q: %v", line, err)
		}
		if ev.Type == "job" && ev.State == serve.JobDone {
			if ev.Tally == nil || ev.Tally.N != 20 {
				t.Fatalf("final SSE event tally = %+v, want N=20", ev.Tally)
			}
			done = true
			break
		}
	}
	if !done {
		t.Fatalf("SSE stream ended without a job-done event: %v", sc.Err())
	}
	cancel()
	wg.Wait()
}

// maskedTally is a consistent tally of n Masked runs: what a worker reports
// for an n-experiment shard where no fault showed.
func maskedTally(n int) *campaign.Tally {
	t := campaign.NewTally()
	for i := 0; i < n; i++ {
		t.Add(campaign.Classification{Outcome: campaign.Masked})
	}
	return t
}

// TestCompleteRefusesInconsistentTally POSTs forged shard results through the
// HTTP API: tallies whose counters disagree with one another (Tally.Check),
// and a consistent one that counts fewer runs than the shard selects. Each
// must be refused and fail the shard — back to pending, the reason recorded,
// nothing merged — as a golden-digest mismatch does; a true result, one with
// more early exits than restores, then completes the job.
func TestCompleteRefusesInconsistentTally(t *testing.T) {
	now := time.Unix(3000, 0)
	coord, err := serve.NewCoordinator(serve.Options{
		MaxAttempts:  10,
		RetryBackoff: time.Millisecond,
		Clock:        func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(serve.NewServer(coord))
	defer srv.Close()
	client := serve.NewClient(srv.URL)
	st, err := client.Submit(serve.CampaignSpec{
		Workload: testWorkload,
		Config:   campaign.TransientCampaignConfig{Injections: 5, ShardSize: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	wid, err := client.Register(serve.WorkerInfo{Name: "forger"})
	if err != nil {
		t.Fatal(err)
	}
	forged := []struct {
		name, tally string
	}{
		{"outcomes-short-of-N", `{"n":5,"sdc":1,"due":1,"masked":1}`},
		{"outcomes-past-N", `{"n":5,"sdc":3,"due":1,"masked":3}`},
		{"negative-count", `{"n":5,"sdc":-1,"due":0,"masked":6}`},
		{"strata-short-of-N", `{"n":5,"masked":5,"strata":[{"key":"~","n":4,"masked":4}]}`},
		{"restored-past-N", `{"n":5,"masked":5,"restored":6}`},
		{"early-exits-past-N", `{"n":5,"masked":5,"early_exits":6}`},
		{"N-not-the-shard", `{"n":3,"masked":3}`},
	}
	for _, f := range forged {
		now = now.Add(time.Second) // past the retry backoff
		g, err := client.Lease(wid)
		if err != nil || g == nil {
			t.Fatalf("%s: lease: %v %v", f.name, g, err)
		}
		body := fmt.Sprintf(`{"worker_id":%q,"result":{"golden_digest":%q,"tally":%s}}`, wid, g.GoldenDigest, f.tally)
		resp, err := http.Post(srv.URL+"/api/v1/leases/"+g.LeaseID+"/complete", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: complete answered %d, want %d", f.name, resp.StatusCode, http.StatusBadRequest)
		}
		js, _ := coord.Job(st.ID)
		if s := js.Shards[0]; s.State != serve.ShardPending || !strings.Contains(s.Error, "inconsistent tally") {
			t.Fatalf("%s: shard left %q (%q), want pending with the reason", f.name, s.State, s.Error)
		}
		if js.Done != 0 || js.Tally.N != 0 {
			t.Fatalf("%s: the forged tally was merged: done %d, tally n %d", f.name, js.Done, js.Tally.N)
		}
	}
	now = now.Add(time.Second)
	g, err := client.Lease(wid)
	if err != nil || g == nil {
		t.Fatalf("lease: %v %v", g, err)
	}
	// A checkpointed shard's true tally can count more early exits than
	// restores: a run with no checkpoint before its fault starts from scratch
	// and may still re-converge (TestCheckpointTallyCheck).
	truth := maskedTally(5)
	truth.Restored, truth.EarlyExits = 1, 3
	if err := client.Complete(wid, g.LeaseID, serve.ShardResult{Tally: truth, GoldenDigest: g.GoldenDigest}); err != nil {
		t.Fatal(err)
	}
	if js, _ := coord.Job(st.ID); js.State != serve.JobDone || js.Tally.N != 5 {
		t.Fatalf("job %q with tally n %d after a true result, want done with 5", js.State, js.Tally.N)
	}
}
