package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/serve"
)

// Event-driven dispatch: a Lease call with nothing to run parks on the
// coordinator and is woken by whatever makes a shard runnable. Every wait
// below is on the event itself; waitFor only bounds a hang, far below the
// 25 s a parked call would sit out by itself.

const waitFor = 10 * time.Second

type leaseResult struct {
	grant *serve.LeaseGrant
	err   error
}

// parkLease issues one Lease on its own goroutine and returns where the
// answer will land.
func parkLease(b serve.Backend, workerID string) chan leaseResult {
	answer := make(chan leaseResult, 1)
	go func() {
		g, err := b.Lease(workerID)
		answer <- leaseResult{g, err}
	}()
	return answer
}

// waitParked returns once n Lease calls are parked on the coordinator.
func waitParked(t *testing.T, c *serve.Coordinator, n int) {
	t.Helper()
	for deadline := time.Now().Add(waitFor); c.Parked() != n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d Lease calls parked, want %d", c.Parked(), n)
		}
	}
}

func await(t *testing.T, answer chan leaseResult, what string) leaseResult {
	t.Helper()
	select {
	case r := <-answer:
		return r
	case <-time.After(waitFor):
		t.Fatalf("parked Lease did not return on %s", what)
		return leaseResult{}
	}
}

func register(t *testing.T, b serve.Backend, name string) string {
	t.Helper()
	id, err := b.Register(serve.WorkerInfo{Name: name})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// oneShardSpec is a job of a single shard.
func oneShardSpec() serve.CampaignSpec {
	return serve.CampaignSpec{
		Workload: testWorkload,
		Config:   campaign.TransientCampaignConfig{Injections: 5, ShardSize: 10},
	}
}

func shardStatus(t *testing.T, c *serve.Coordinator, job string, shard int) serve.ShardStatus {
	t.Helper()
	js, ok := c.Job(job)
	if !ok {
		t.Fatalf("job %s vanished", job)
	}
	return js.Shards[shard]
}

// leaseCounter counts the Lease calls a worker issues.
type leaseCounter struct {
	serve.Backend
	calls  atomic.Int32
	called chan struct{} // one token per call, sent as it is issued
}

func (b *leaseCounter) Lease(workerID string) (*serve.LeaseGrant, error) {
	b.calls.Add(1)
	b.called <- struct{}{}
	return b.Backend.Lease(workerID)
}

// TestDispatchIdlePoolLeasesOnce: an idle pool does not poll. Two HTTP
// workers with nothing to do issue one lease request each and sit in it.
func TestDispatchIdlePoolLeasesOnce(t *testing.T) {
	coord, err := serve.NewCoordinator(serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	srv := httptest.NewServer(serve.NewServer(coord))
	defer srv.Close()

	// Sized for the calls a polling pool would make in the window.
	backend := &leaseCounter{Backend: serve.NewClient(srv.URL), called: make(chan struct{}, 64)}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pool := serve.Pool(ctx, backend, campaign.Runner{}, 2, t.Logf)
	for i := 0; i < 2; i++ {
		select {
		case <-backend.called:
		case <-time.After(waitFor):
			t.Fatal("workers did not reach their first Lease")
		}
	}
	time.Sleep(300 * time.Millisecond) // the observation window, not a wait for anything
	if n := backend.calls.Load(); n != 2 {
		t.Fatalf("idle two-worker pool issued %d Lease calls in 300 ms, want 2", n)
	}
	cancel()
	pool.Wait()
}

// TestDispatchWakesOnSubmit: a call parked on an empty coordinator is
// granted the first shard of the next submission.
func TestDispatchWakesOnSubmit(t *testing.T) {
	coord, err := serve.NewCoordinator(serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	wid := register(t, coord, "w")
	answer := parkLease(coord, wid)
	waitParked(t, coord, 1)
	st, err := coord.Submit(oneShardSpec())
	if err != nil {
		t.Fatal(err)
	}
	r := await(t, answer, "Submit")
	if r.err != nil || r.grant == nil || r.grant.Job != st.ID {
		t.Fatalf("woken Lease = %+v, %v; want a grant for job %s", r.grant, r.err, st.ID)
	}
}

// TestDispatchWakesOnBackoffExpiry: a failed shard is re-granted to a parked
// call when its backoff runs out — the deadline timer's doing, since nothing
// else touches the coordinator meanwhile.
func TestDispatchWakesOnBackoffExpiry(t *testing.T) {
	coord, err := serve.NewCoordinator(serve.Options{RetryBackoff: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	st, err := coord.Submit(oneShardSpec())
	if err != nil {
		t.Fatal(err)
	}
	wid := register(t, coord, "w")
	g, err := coord.Lease(wid)
	if err != nil || g == nil {
		t.Fatalf("lease 1: %v %v", g, err)
	}
	if err := coord.Fail(wid, g.LeaseID, "boom"); err != nil {
		t.Fatal(err)
	}
	answer := parkLease(coord, wid)
	r := await(t, answer, "backoff expiry")
	if r.err != nil || r.grant == nil {
		t.Fatalf("woken Lease = %+v, %v; want the retried shard", r.grant, r.err)
	}
	if sh := shardStatus(t, coord, st.ID, 0); sh.Attempts != 2 {
		t.Fatalf("retried shard is on attempt %d, want 2", sh.Attempts)
	}
}

// TestDispatchWakesOnTTLReclaim: a worker takes a shard and falls silent;
// another worker's parked call gets the shard once the lease expires and its
// backoff passes, with the crash counted as an attempt.
func TestDispatchWakesOnTTLReclaim(t *testing.T) {
	coord, err := serve.NewCoordinator(serve.Options{
		LeaseTTL: 60 * time.Millisecond, RetryBackoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	st, err := coord.Submit(oneShardSpec())
	if err != nil {
		t.Fatal(err)
	}
	crashed := register(t, coord, "crashed")
	if g, err := coord.Lease(crashed); err != nil || g == nil {
		t.Fatalf("victim lease: %v %v", g, err)
	}
	healthy := register(t, coord, "healthy")
	answer := parkLease(coord, healthy)
	r := await(t, answer, "TTL reclaim")
	if r.err != nil || r.grant == nil {
		t.Fatalf("woken Lease = %+v, %v; want the reclaimed shard", r.grant, r.err)
	}
	sh := shardStatus(t, coord, st.ID, 0)
	if sh.Attempts != 2 || sh.Worker != healthy {
		t.Fatalf("reclaimed shard: attempt %d held by %q, want attempt 2 held by %q", sh.Attempts, sh.Worker, healthy)
	}
}

// TestDispatchDeregisterAndCloseUnpark: both send a parked call home with no
// grant and no error, and refuse the worker's next call.
func TestDispatchDeregisterAndCloseUnpark(t *testing.T) {
	for _, how := range []string{"Deregister", "Close"} {
		t.Run(how, func(t *testing.T) {
			coord, err := serve.NewCoordinator(serve.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()
			wid := register(t, coord, "w")
			answer := parkLease(coord, wid)
			waitParked(t, coord, 1)
			if how == "Close" {
				err = coord.Close()
			} else {
				err = coord.Deregister(wid)
			}
			if err != nil {
				t.Fatal(err)
			}
			if r := await(t, answer, how); r.grant != nil || r.err != nil {
				t.Fatalf("Lease after %s = %+v, %v; want nil, nil", how, r.grant, r.err)
			}
			if g, err := coord.Lease(wid); g != nil || err == nil {
				t.Fatalf("Lease on a coordinator the worker has left = %+v, %v; want an error", g, err)
			}
		})
	}
}

// TestDispatchRequestCancelUnparks: a lease request whose client goes away
// leaves no handler parked behind it, and is never granted a shard.
func TestDispatchRequestCancelUnparks(t *testing.T) {
	coord, err := serve.NewCoordinator(serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	srv := httptest.NewServer(serve.NewServer(coord))
	wid := register(t, serve.NewClient(srv.URL), "w")

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", srv.URL+"/api/v1/lease",
		strings.NewReader(`{"worker_id":"`+wid+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := srv.Client().Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	waitParked(t, coord, 1)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled lease request returned %v", err)
	}
	// Server.Close waits for every handler, so it returns only once the
	// parked handler has.
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(waitFor):
		t.Fatal("lease handler still parked after its request was cancelled")
	}
	st, err := coord.Submit(oneShardSpec())
	if err != nil {
		t.Fatal(err)
	}
	if sh := shardStatus(t, coord, st.ID, 0); sh.State != serve.ShardPending || sh.Attempts != 0 {
		t.Fatalf("shard after a cancelled lease request: %+v, want pending and never leased", sh)
	}
}

// TestDispatchOneGrantPerShard: many parked calls, one runnable shard,
// exactly one grant.
func TestDispatchOneGrantPerShard(t *testing.T) {
	coord, err := serve.NewCoordinator(serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	const n = 8
	type indexed struct {
		worker int
		leaseResult
	}
	answers := make(chan indexed, n)
	ids := make([]string, n)
	for i := range ids {
		ids[i] = register(t, coord, "w")
		go func() {
			g, err := coord.Lease(ids[i])
			answers <- indexed{i, leaseResult{g, err}}
		}()
	}
	waitParked(t, coord, n)
	if _, err := coord.Submit(oneShardSpec()); err != nil {
		t.Fatal(err)
	}
	next := func(what string) indexed {
		select {
		case r := <-answers:
			return r
		case <-time.After(waitFor):
			t.Fatalf("parked Lease did not return on %s", what)
			return indexed{}
		}
	}
	first := next("Submit")
	if first.err != nil || first.grant == nil {
		t.Fatalf("a parked Lease returned %+v, %v with a shard runnable", first.grant, first.err)
	}
	// Everyone else parks again; send them home and count what they got.
	waitParked(t, coord, n-1)
	granted := 1
	for i, id := range ids {
		if i != first.worker {
			if err := coord.Deregister(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 1; i < n; i++ {
		if r := next("Deregister"); r.grant != nil {
			granted++
		}
	}
	if granted != 1 {
		t.Fatalf("%d parked calls and one runnable shard yielded %d grants, want 1", n, granted)
	}
}

// TestDispatchDeregisterKeepsAttempts: a worker that leaves cleanly hands
// its shard back as if it had never been leased — same attempt count, not a
// byte added to the journal — and the next worker gets it at once, with no
// backoff.
func TestDispatchDeregisterKeepsAttempts(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "journal.jsonl")
	coord, err := serve.NewCoordinator(serve.Options{JournalPath: journal, RetryBackoff: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	st, err := coord.Submit(oneShardSpec())
	if err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	leaving := register(t, coord, "leaving")
	g, err := coord.Lease(leaving)
	if err != nil || g == nil {
		t.Fatalf("lease: %v %v", g, err)
	}
	if err := coord.Deregister(leaving); err != nil {
		t.Fatal(err)
	}
	if sh := shardStatus(t, coord, st.ID, 0); sh.State != serve.ShardPending || sh.Attempts != 0 || sh.Worker != "" {
		t.Fatalf("released shard: %+v, want pending with no attempts", sh)
	}
	after, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("Deregister wrote to the journal:\n%s", after[len(before):])
	}
	if err := coord.Complete(leaving, g.LeaseID, serve.ShardResult{Tally: campaign.NewTally()}); !errors.Is(err, serve.ErrLeaseLost) {
		t.Fatalf("Complete on a released lease = %v, want ErrLeaseLost", err)
	}
	next := register(t, coord, "next")
	answer := parkLease(coord, next)
	if r := await(t, answer, "release"); r.err != nil || r.grant == nil {
		t.Fatalf("released shard not granted to the next worker: %+v, %v", r.grant, r.err)
	}
	if sh := shardStatus(t, coord, st.ID, 0); sh.Attempts != 1 {
		t.Fatalf("re-leased shard is on attempt %d, want 1", sh.Attempts)
	}
}

// brokenWriter is a connection that died before the reply.
type brokenWriter struct{ header http.Header }

func (w *brokenWriter) Header() http.Header       { return w.header }
func (w *brokenWriter) WriteHeader(int)           {}
func (w *brokenWriter) Write([]byte) (int, error) { return 0, errors.New("connection reset") }

// TestDispatchUndeliveredGrantReleased: a grant whose reply cannot be
// written is released on the spot, not left to cost the shard an attempt
// when its TTL runs out.
func TestDispatchUndeliveredGrantReleased(t *testing.T) {
	coord, err := serve.NewCoordinator(serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	st, err := coord.Submit(oneShardSpec())
	if err != nil {
		t.Fatal(err)
	}
	wid := register(t, coord, "w")
	req := httptest.NewRequest("POST", "/api/v1/lease", strings.NewReader(`{"worker_id":"`+wid+`"}`))
	serve.NewServer(coord).ServeHTTP(&brokenWriter{header: http.Header{}}, req)
	if sh := shardStatus(t, coord, st.ID, 0); sh.State != serve.ShardPending || sh.Attempts != 0 {
		t.Fatalf("shard after an undeliverable grant: %+v, want pending with no attempts", sh)
	}
}

// flushProbe is a connection that looks at the coordinator at the moment
// the reply is flushed to it.
type flushProbe struct {
	*httptest.ResponseRecorder
	atFlush func(sent *httptest.ResponseRecorder)
}

func (p *flushProbe) Flush() {
	p.atFlush(p.ResponseRecorder)
	p.ResponseRecorder.Flush()
}

// TestDispatchAcknowledgesBeforeWaking: over HTTP the submitter's reply is
// complete and flushed before any parked worker hears of the job, so a
// client that times a job from the acknowledgement sees all of it.
func TestDispatchAcknowledgesBeforeWaking(t *testing.T) {
	coord, err := serve.NewCoordinator(serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	answer := parkLease(coord, register(t, coord, "w"))
	waitParked(t, coord, 1)

	body, err := json.Marshal(oneShardSpec())
	if err != nil {
		t.Fatal(err)
	}
	flushed := false
	rw := &flushProbe{ResponseRecorder: httptest.NewRecorder(), atFlush: func(sent *httptest.ResponseRecorder) {
		flushed = true
		var st serve.JobStatus
		if err := json.Unmarshal(sent.Body.Bytes(), &st); err != nil || st.ID == "" {
			t.Errorf("reply at flush is not a whole job status: %q, %v", sent.Body.Bytes(), err)
		}
		if got, want := sent.Header().Get("Content-Length"), strconv.Itoa(sent.Body.Len()); got != want {
			t.Errorf("Content-Length %q at flush, body is %s bytes: the flush does not complete the reply", got, want)
		}
		select {
		case r := <-answer:
			t.Errorf("parked Lease answered %+v, %v before the submitter's reply was flushed", r.grant, r.err)
		case <-time.After(50 * time.Millisecond):
		}
	}}
	serve.NewServer(coord).ServeHTTP(rw, httptest.NewRequest("POST", "/api/v1/jobs", bytes.NewReader(body)))
	if rw.Code != http.StatusCreated || !flushed {
		t.Fatalf("submit answered %d, flushed=%v", rw.Code, flushed)
	}
	if r := await(t, answer, "submit"); r.err != nil || r.grant == nil {
		t.Fatalf("parked Lease after the acknowledgement: %+v, %v", r.grant, r.err)
	}
}

// failCounter counts the failures workers report.
type failCounter struct {
	serve.Backend
	fails   atomic.Int32
	granted chan struct{} // one token per grant
}

func (b *failCounter) Lease(workerID string) (*serve.LeaseGrant, error) {
	g, err := b.Backend.Lease(workerID)
	if g != nil {
		b.granted <- struct{}{}
	}
	return g, err
}

func (b *failCounter) Fail(workerID, leaseID, reason string) error {
	b.fails.Add(1)
	return b.Backend.Fail(workerID, leaseID, reason)
}

// TestDispatchWorkerExitCostsNoAttempt: workers cancelled while they hold
// shards — here inside their first golden run — stop promptly, report no
// failure, and leave every shard pending with no attempt spent and no
// shard_failed record.
func TestDispatchWorkerExitCostsNoAttempt(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "journal.jsonl")
	coord, err := serve.NewCoordinator(serve.Options{JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	backend := &failCounter{Backend: coord, granted: make(chan struct{}, 2)}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pool := serve.Pool(ctx, backend, campaign.Runner{}, 2, t.Logf)
	st, err := coord.Submit(serve.CampaignSpec{
		Workload: "304.olbm",
		Config:   campaign.TransientCampaignConfig{Injections: 50, ShardSize: 25},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		select {
		case <-backend.granted:
		case <-time.After(waitFor):
			t.Fatal("workers were not granted the job's shards")
		}
	}
	cancel()
	left := make(chan struct{})
	go func() {
		pool.Wait()
		close(left)
	}()
	select {
	case <-left:
	case <-time.After(waitFor):
		t.Fatal("cancelled workers did not leave")
	}

	if n := backend.fails.Load(); n != 0 {
		t.Fatalf("cancelled workers reported %d failures, want 0", n)
	}
	js, _ := coord.Job(st.ID)
	for _, sh := range js.Shards {
		if sh.State == serve.ShardDone {
			continue // a slow test goroutine let the worker finish first
		}
		if sh.State != serve.ShardPending || sh.Attempts != 0 {
			t.Fatalf("shard %d after its worker left: %+v, want pending with no attempts", sh.Index, sh)
		}
	}
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte("shard_failed")) {
		t.Fatalf("a clean worker exit journaled a failure:\n%s", data)
	}
}
