package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
)

// ErrLeaseLost reports that a heartbeat, completion, or failure named a
// lease the coordinator no longer honours — it expired and was reclaimed,
// or its shard was finished by someone else. The worker must abandon the
// shard (its result would double-count) and lease fresh work.
var ErrLeaseLost = errors.New("serve: lease lost")

// Options tunes a coordinator.
type Options struct {
	// Runner computes each submitted job's golden run and digest.
	Runner campaign.Runner
	// LeaseTTL is how long a leased shard may go without a heartbeat before
	// it is reclaimed (default 30s).
	LeaseTTL time.Duration
	// MaxAttempts is how many times a shard may be leased before it is
	// quarantined (default 3).
	MaxAttempts int
	// RetryBackoff is the base delay before a failed shard is leased again;
	// attempt k waits RetryBackoff << (k-1) (default 500ms).
	RetryBackoff time.Duration
	// JournalPath, when set, persists job state to an append-only JSONL
	// journal; NewCoordinator replays an existing journal so a restarted
	// coordinator resumes unfinished jobs without re-running done shards.
	JournalPath string
	// Clock overrides time.Now for tests that step time by hand. The
	// coordinator cannot schedule a wake-up in a caller's clock, so with
	// Clock set it arms no deadline timer and Lease never parks: it answers
	// at once, as it did when workers polled, expiry is swept on every entry
	// point (and by ReclaimTick), and the test drives every transition
	// itself. Do not run a Worker against such a coordinator; its Run loop
	// relies on Lease parking.
	Clock func() time.Time
}

func (o Options) withDefaults() Options {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 30 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 500 * time.Millisecond
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
	return o
}

// shard is one shard's scheduling state.
type shard struct {
	state    string // ShardPending | ShardLeased | ShardDone | ShardQuarantined
	attempts int
	nextAt   time.Time // pending shards: earliest re-lease time (retry backoff)
	leaseID  string
	worker   string
	expires  time.Time
	lastErr  string
}

// job is one campaign's coordinator-side state.
type job struct {
	id           string
	spec         CampaignSpec
	goldenDigest string
	shards       []shard
	done         int
	quarantined  int
	skipped      int
	tally        *campaign.Tally
	state        string
	events       []Event
	notify       chan struct{} // closed and replaced on every publish

	// Adaptive (v2) jobs. The stopping rule is evaluated on the contiguous
	// done-prefix of shards as it grows — the same pure function of (seed,
	// shard prefix) the in-process runner evaluates shard by shard — so both
	// paths stop at the identical shard whatever order completions land in.
	adaptive     bool
	weights      []campaign.StratumWeight
	shardTallies []*campaign.Tally // per-shard tallies, retained until convergence
	prefix       int               // shards [0, prefix) are merged into prefixTally
	prefixTally  *campaign.Tally
	stopShard    int // converged stopping shard; -1 while unconverged
	achievedCI   float64
}

// Coordinator owns the job registry and the shard scheduler. It implements
// Backend directly, so in-process workers drive it with plain method calls;
// NewServer wraps the same coordinator for remote workers.
//
// Dispatch is event-driven. A Lease call that finds nothing runnable parks
// on the wake channel; whatever makes a shard runnable — a submission, a
// release, the deadline timer finding a backoff over or a lease expired —
// closes and replaces that channel, and every parked call rescans under the
// lock, so one runnable shard yields exactly one grant however many calls
// were parked.
type Coordinator struct {
	opts      Options
	wallClock bool // Options.Clock unset: deadlines are real, the timer runs

	mu      sync.Mutex
	jobs    map[string]*job
	order   []string // submission order, for listing
	running []*job   // unsettled jobs in submission order: all Lease scans
	leases  map[string]leaseRef
	workers map[string]chan struct{} // closed by Deregister to un-park the worker's Lease
	journal *journal
	closed  bool
	wake    chan struct{} // closed and replaced when a shard may have become runnable

	// timer is the one deadline timer: it fires ReclaimTick at timerAt, the
	// earliest retry-backoff end or lease expiry armLocked has been told of.
	timer   *time.Timer
	timerAt time.Time

	parked atomic.Int32 // Lease calls waiting on wake right now
}

// errClosed answers a Lease on a closed coordinator, so a worker that
// outlives its coordinator exits instead of spinning.
var errClosed = errors.New("serve: coordinator closed")

type leaseRef struct {
	job   string
	shard int
}

// NewCoordinator builds a coordinator, replaying opts.JournalPath if it
// already holds state.
func NewCoordinator(opts Options) (*Coordinator, error) {
	c := &Coordinator{
		opts:      opts.withDefaults(),
		wallClock: opts.Clock == nil,
		jobs:      make(map[string]*job),
		leases:    make(map[string]leaseRef),
		workers:   make(map[string]chan struct{}),
		wake:      make(chan struct{}),
	}
	if opts.JournalPath != "" {
		jn, entries, err := openJournal(opts.JournalPath)
		if err != nil {
			return nil, err
		}
		c.journal = jn
		for _, e := range entries {
			c.replay(e)
		}
		// Journal replay restores done/quarantined shards; everything that
		// was pending or leased at shutdown starts pending again, with no
		// backoff: runnable by the first Lease, so there is no call to wake.
		for _, id := range c.order {
			c.publishJobEvent(c.jobs[id], "resumed")
		}
	}
	return c, nil
}

// Close stops the deadline timer, sends every parked Lease home with no
// grant, and releases the journal. Closing twice is harmless.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		c.closed = true
		if c.timer != nil {
			c.timer.Stop()
		}
		c.wakeLocked()
	}
	if c.journal == nil {
		return nil
	}
	err := c.journal.Close()
	c.journal = nil
	return err
}

func newID(prefix string) string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand does not fail on supported platforms
	}
	return prefix + "-" + hex.EncodeToString(b[:])
}

// Submit validates a spec, computes the job's golden digest (the reference
// every worker must reproduce), journals the job, and schedules its shards.
func (c *Coordinator) Submit(spec CampaignSpec) (*JobStatus, error) {
	st, err := c.accept(spec)
	if err == nil {
		c.dispatch()
	}
	return st, err
}

// dispatch sends every parked Lease back to rescan.
func (c *Coordinator) dispatch() {
	c.mu.Lock()
	c.wakeLocked()
	c.mu.Unlock()
}

// accept is Submit up to the journalled, listed job; no parked worker hears
// of it until dispatch. The HTTP handler acknowledges the submitter in
// between.
func (c *Coordinator) accept(spec CampaignSpec) (*JobStatus, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	adaptive := spec.Config.TargetCI > 0
	// The journal and every status reply carry the one schema and the
	// canonical config, so Model="transient" jobs are byte-identical to jobs
	// that never set it.
	spec.Schema = JobSchema
	spec.Config = spec.Config.Canonical()
	w, err := ResolveWorkload(spec.Workload)
	if err != nil {
		return nil, err
	}
	golden, err := c.opts.Runner.Golden(w)
	if err != nil {
		return nil, fmt.Errorf("serve: golden run for %s: %w", spec.Workload, err)
	}
	var weights []campaign.StratumWeight
	if adaptive {
		// The stratum composition is a pure function of (profile, config);
		// computing it once here and journaling it means replay never needs a
		// profiling run to re-derive the stopping decision.
		profile, _, err := c.opts.Runner.Profile(w, coreProfileMode)
		if err != nil {
			return nil, fmt.Errorf("serve: profiling run for %s: %w", spec.Workload, err)
		}
		weights, err = campaign.AdaptiveStrata(golden, profile, spec.Config)
		if err != nil {
			return nil, err
		}
	}
	j := &job{
		id:           newID("job"),
		spec:         spec,
		goldenDigest: golden.Output.Digest(),
		shards:       make([]shard, spec.Config.NumShards()),
		tally:        campaign.NewTally(),
		state:        JobRunning,
		notify:       make(chan struct{}),
	}
	j.initAdaptive(weights)
	for i := range j.shards {
		j.shards[i].state = ShardPending
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.append(journalEntry{
		Type: entryJob, Job: j.id, Spec: &j.spec,
		GoldenDigest: j.goldenDigest, NumShards: len(j.shards),
		Strata: weights,
	}); err != nil {
		return nil, err
	}
	c.jobs[j.id] = j
	c.order = append(c.order, j.id)
	c.running = append(c.running, j)
	c.publishJobEvent(j, "submitted")
	return c.statusLocked(j, false), nil
}

// initAdaptive sets up a job's adaptive state when its config asks for it.
func (j *job) initAdaptive(weights []campaign.StratumWeight) {
	j.stopShard = -1
	if j.spec.Config.TargetCI <= 0 {
		return
	}
	j.adaptive = true
	j.weights = weights
	j.shardTallies = make([]*campaign.Tally, len(j.shards))
	j.prefixTally = campaign.NewTally()
}

// replay applies one journal entry while rebuilding state at startup.
func (c *Coordinator) replay(e journalEntry) {
	switch e.Type {
	case entryJob:
		if e.Spec == nil {
			return
		}
		spec := *e.Spec
		spec.Schema = JobSchema // a parent-written journal may carry v2 or v3
		j := &job{
			id:           e.Job,
			spec:         spec,
			goldenDigest: e.GoldenDigest,
			shards:       make([]shard, e.NumShards),
			tally:        campaign.NewTally(),
			state:        JobRunning,
			notify:       make(chan struct{}),
		}
		j.initAdaptive(e.Strata)
		for i := range j.shards {
			j.shards[i].state = ShardPending
		}
		c.jobs[j.id] = j
		c.order = append(c.order, j.id)
		c.running = append(c.running, j)
	case entryShardDone:
		j := c.jobs[e.Job]
		if j == nil || e.Shard < 0 || e.Shard >= len(j.shards) || j.shards[e.Shard].state == ShardDone {
			return
		}
		if j.stopShard >= 0 {
			// The job already converged; completions past the stopping point
			// (journaled by in-flight workers) stay excluded from the tally.
			return
		}
		j.shards[e.Shard].state = ShardDone
		j.done++
		j.tally.Merge(e.Tally)
		if j.adaptive {
			j.shardTallies[e.Shard] = e.Tally
			c.advanceAdaptiveLocked(j, true)
		}
		c.settleLocked(j)
	case entryJobConverged:
		// Normally redundant — advanceAdaptiveLocked re-derives the decision
		// from the replayed shard tallies — but applied defensively so the
		// journaled stopping point always wins.
		j := c.jobs[e.Job]
		if j == nil || !j.adaptive || e.Shard < 0 || e.Shard >= len(j.shards) {
			return
		}
		c.convergeLocked(j, e.Shard, true)
		c.settleLocked(j)
	case entryShardFailed:
		j := c.jobs[e.Job]
		if j == nil || e.Shard < 0 || e.Shard >= len(j.shards) {
			return
		}
		s := &j.shards[e.Shard]
		if s.state == ShardDone {
			return
		}
		s.attempts = e.Attempt
		s.lastErr = e.Reason
		if e.Quarantined {
			s.state = ShardQuarantined
			j.quarantined++
			c.settleLocked(j)
		}
	case entryJobDone:
		// Redundant with settleLocked during replay; kept for readers.
	}
}

func (c *Coordinator) append(e journalEntry) error {
	if c.journal == nil {
		return nil
	}
	return c.journal.Append(e)
}

// now returns the coordinator clock's current time.
func (c *Coordinator) now() time.Time { return c.opts.Clock() }

// wakeLocked sends every parked Lease back to rescan.
func (c *Coordinator) wakeLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// armLocked makes sure the deadline timer fires no later than t.
func (c *Coordinator) armLocked(t time.Time) {
	if !c.wallClock || c.closed || (!c.timerAt.IsZero() && !t.Before(c.timerAt)) {
		return
	}
	c.timerAt = t
	d := t.Sub(c.now())
	if c.timer == nil {
		c.timer = time.AfterFunc(d, c.ReclaimTick)
	} else {
		c.timer.Reset(d)
	}
}

// ReclaimTick is the deadline sweep: it expires overdue leases, wakes the
// parked calls if a shard is runnable, and re-arms the timer for the
// earliest deadline still ahead. The timer calls it; a test on a fake
// Clock calls it after stepping the clock.
func (c *Coordinator) ReclaimTick() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	now := c.now()
	c.timerAt = time.Time{}
	c.reclaimLocked(now)
	for _, ref := range c.leases {
		c.armLocked(c.jobs[ref.job].shards[ref.shard].expires)
	}
	runnable := false
	for _, j := range c.running {
		for i := range j.shards {
			s := &j.shards[i]
			switch {
			case s.state != ShardPending:
			case now.Before(s.nextAt):
				c.armLocked(s.nextAt)
			default:
				runnable = true
			}
		}
	}
	if runnable {
		c.wakeLocked()
	}
}

// Register admits a worker. Worker IDs only namespace leases and events; a
// re-registering worker simply gets a fresh identity.
func (c *Coordinator) Register(info WorkerInfo) (string, error) {
	id := info.Name
	if id == "" {
		id = "worker"
	}
	id = newID(id)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.workers[id] = make(chan struct{})
	return id, nil
}

// Deregister is a worker's clean exit: its parked Lease returns with no
// grant, and every shard it holds goes back to pending as if never leased
// — no attempt consumed, no backoff, no journal record (the journal never
// saw the lease either). A crashed worker cannot call this; its shards come
// back through lease expiry, which does cost an attempt. Deregistering an
// unknown worker is a no-op, so leaving twice is harmless.
func (c *Coordinator) Deregister(workerID string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	gone, ok := c.workers[workerID]
	if !ok {
		return nil
	}
	delete(c.workers, workerID)
	close(gone)
	released := false
	for _, ref := range c.leases {
		if j := c.jobs[ref.job]; j.shards[ref.shard].worker == workerID {
			c.releaseLocked(j, ref.shard)
			released = true
		}
	}
	if released {
		c.wakeLocked()
	}
	return nil
}

// releaseLocked returns a leased shard to pending without counting the
// lease as an attempt. The caller wakes the parked calls.
func (c *Coordinator) releaseLocked(j *job, i int) {
	s := &j.shards[i]
	delete(c.leases, s.leaseID)
	s.state = ShardPending
	s.leaseID = ""
	s.worker = ""
	s.attempts--
	c.publishShardEvent(j, i, nil)
}

// release gives back a grant that never reached its worker.
func (c *Coordinator) release(workerID, leaseID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if j, i, err := c.lookupLease(workerID, leaseID); err == nil {
		c.releaseLocked(j, i)
		c.wakeLocked()
	}
}

// Lease hands the caller the next runnable shard: pending, past its retry
// backoff, in submission order. With nothing runnable the call parks until
// something is, or until the worker deregisters, the coordinator closes or
// longPollTimeout passes — those three return (nil, nil). Expired leases
// are reclaimed first, so a crashed worker's shard becomes leasable as soon
// as its TTL lapses.
func (c *Coordinator) Lease(workerID string) (*LeaseGrant, error) {
	return c.lease(context.Background(), workerID)
}

// lease is Lease for a caller that may give up: a done ctx ends the wait
// with ctx's error, and no grant is committed to a ctx already done.
func (c *Coordinator) lease(ctx context.Context, workerID string) (*LeaseGrant, error) {
	var timeout <-chan time.Time // set on first park
	for {
		c.mu.Lock()
		gone, registered := c.workers[workerID]
		if c.closed || !registered {
			c.mu.Unlock()
			// A parked call goes home empty-handed; one that arrives
			// afterwards is told why it may not lease.
			if timeout != nil {
				return nil, nil
			}
			if !registered {
				return nil, fmt.Errorf("serve: unregistered worker %q", workerID)
			}
			return nil, errClosed
		}
		if err := ctx.Err(); err != nil {
			c.mu.Unlock()
			return nil, err
		}
		now := c.now()
		c.reclaimLocked(now)
		grant := c.grantLocked(workerID, now)
		if grant != nil || !c.wallClock {
			c.mu.Unlock()
			return grant, nil
		}
		wake := c.wake
		c.parked.Add(1)
		c.mu.Unlock()
		if timeout == nil {
			t := time.NewTimer(longPollTimeout)
			defer t.Stop()
			timeout = t.C
		}
		select {
		case <-wake:
		case <-gone:
		case <-timeout:
			c.parked.Add(-1)
			return nil, nil
		case <-ctx.Done():
			c.parked.Add(-1)
			return nil, ctx.Err()
		}
		c.parked.Add(-1)
	}
}

// grantLocked leases the first runnable shard to workerID, or returns nil.
func (c *Coordinator) grantLocked(workerID string, now time.Time) *LeaseGrant {
	for _, j := range c.running {
		for i := range j.shards {
			s := &j.shards[i]
			if s.state != ShardPending || now.Before(s.nextAt) {
				continue
			}
			s.state = ShardLeased
			s.leaseID = newID("lease")
			s.worker = workerID
			s.expires = now.Add(c.opts.LeaseTTL)
			s.attempts++
			c.leases[s.leaseID] = leaseRef{job: j.id, shard: i}
			c.armLocked(s.expires)
			c.publishShardEvent(j, i, nil)
			return &LeaseGrant{
				LeaseID:      s.leaseID,
				Job:          j.id,
				Shard:        i,
				Spec:         j.spec,
				GoldenDigest: j.goldenDigest,
				TTLSeconds:   c.opts.LeaseTTL.Seconds(),
			}
		}
	}
	return nil
}

// reclaimLocked expires overdue leases: the shard goes back to pending (or
// quarantine, if the expiry consumed its last attempt) with retry backoff.
func (c *Coordinator) reclaimLocked(now time.Time) {
	for leaseID, ref := range c.leases {
		j := c.jobs[ref.job]
		s := &j.shards[ref.shard]
		if s.state != ShardLeased || s.leaseID != leaseID || now.Before(s.expires) {
			continue
		}
		delete(c.leases, leaseID)
		c.failShardLocked(j, ref.shard, "lease expired: worker "+s.worker+" stopped heartbeating")
	}
}

// failShardLocked records one failed attempt on a leased shard and either
// requeues it with exponential backoff or quarantines it.
func (c *Coordinator) failShardLocked(j *job, i int, reason string) {
	s := &j.shards[i]
	s.leaseID = ""
	s.worker = ""
	s.lastErr = reason
	quarantined := s.attempts >= c.opts.MaxAttempts
	if quarantined {
		s.state = ShardQuarantined
		j.quarantined++
	} else {
		s.state = ShardPending
		s.nextAt = c.now().Add(c.opts.RetryBackoff << (s.attempts - 1))
		c.armLocked(s.nextAt)
	}
	// Journal failures so attempts and quarantines survive a restart.
	_ = c.append(journalEntry{
		Type: entryShardFailed, Job: j.id, Shard: i,
		Attempt: s.attempts, Quarantined: quarantined, Reason: reason,
	})
	c.publishShardEvent(j, i, nil)
	c.settleAndPublishLocked(j)
}

// lookupLease resolves a lease that must still be held by workerID.
func (c *Coordinator) lookupLease(workerID, leaseID string) (*job, int, error) {
	ref, ok := c.leases[leaseID]
	if !ok {
		return nil, 0, ErrLeaseLost
	}
	j := c.jobs[ref.job]
	s := &j.shards[ref.shard]
	if s.state != ShardLeased || s.leaseID != leaseID || s.worker != workerID {
		return nil, 0, ErrLeaseLost
	}
	return j, ref.shard, nil
}

// Heartbeat renews a lease's TTL.
func (c *Coordinator) Heartbeat(workerID, leaseID string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reclaimLocked(c.now())
	j, i, err := c.lookupLease(workerID, leaseID)
	if err != nil {
		return err
	}
	j.shards[i].expires = c.now().Add(c.opts.LeaseTTL)
	return nil
}

// Complete accepts a finished shard: the worker's golden digest must match
// the job's, the tally merges into the job, and the job settles when its
// last shard lands.
func (c *Coordinator) Complete(workerID, leaseID string, res ShardResult) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reclaimLocked(c.now())
	j, i, err := c.lookupLease(workerID, leaseID)
	if err != nil {
		return err
	}
	delete(c.leases, leaseID)
	if res.GoldenDigest != "" && res.GoldenDigest != j.goldenDigest {
		c.failShardLocked(j, i, fmt.Sprintf("golden digest mismatch: worker %s produced %.12s, job expects %.12s",
			workerID, res.GoldenDigest, j.goldenDigest))
		return fmt.Errorf("serve: golden digest mismatch for job %s shard %d", j.id, i)
	}
	if res.Tally == nil {
		c.failShardLocked(j, i, "worker reported no tally")
		return fmt.Errorf("serve: shard result carries no tally")
	}
	lo, hi := j.spec.Config.ShardRange(i)
	if err := res.Tally.Check(); err != nil || res.Tally.N != hi-lo {
		if err == nil {
			err = fmt.Errorf("tally counts %d runs, the shard selects %d", res.Tally.N, hi-lo)
		}
		c.failShardLocked(j, i, fmt.Sprintf("worker %s reported an inconsistent tally: %v", workerID, err))
		return fmt.Errorf("serve: inconsistent tally for job %s shard %d: %w", j.id, i, err)
	}
	s := &j.shards[i]
	s.state = ShardDone
	s.leaseID = ""
	s.lastErr = ""
	j.done++
	j.tally.Merge(res.Tally)
	if err := c.append(journalEntry{Type: entryShardDone, Job: j.id, Shard: i, Tally: res.Tally}); err != nil {
		return err
	}
	if j.adaptive {
		j.shardTallies[i] = res.Tally
		c.advanceAdaptiveLocked(j, false)
	}
	c.publishShardEvent(j, i, res.Tally)
	c.settleAndPublishLocked(j)
	return nil
}

// advanceAdaptiveLocked extends the job's contiguous done-prefix with any
// newly landed shards, evaluating the stopping rule at each shard boundary
// — exactly the boundaries the in-process runner evaluates, in the same
// order, on the same merged tallies.
func (c *Coordinator) advanceAdaptiveLocked(j *job, replaying bool) {
	if !j.adaptive || j.stopShard >= 0 || j.state != JobRunning {
		return
	}
	for j.prefix < len(j.shards) && j.shardTallies[j.prefix] != nil {
		j.prefixTally.Merge(j.shardTallies[j.prefix])
		j.prefix++
		hw, ok := campaign.AdaptiveDecision(j.prefixTally, j.weights, j.spec.Config)
		j.achievedCI = hw
		if ok {
			c.convergeLocked(j, j.prefix-1, replaying)
			return
		}
	}
}

// convergeLocked applies an adaptive job's stopping decision at shard s:
// the job tally is recomputed to cover exactly shards [0, s] (out-of-order
// completions beyond the stopping shard are dropped), every later shard is
// marked skipped, their leases are cancelled — in-flight workers see
// ErrLeaseLost on completion and discard their results, which is the
// "drain" — and the decision is journaled so a restarted coordinator
// replays to the same stopping point.
func (c *Coordinator) convergeLocked(j *job, s int, replaying bool) {
	if j.stopShard >= 0 {
		return
	}
	j.stopShard = s
	nt := campaign.NewTally()
	for i := 0; i <= s && i < len(j.shardTallies); i++ {
		nt.Merge(j.shardTallies[i])
	}
	j.tally = nt
	hw, _ := campaign.AdaptiveDecision(j.tally, j.weights, j.spec.Config)
	j.achievedCI = hw
	done := 0
	for i := range j.shards {
		sh := &j.shards[i]
		if i <= s {
			if sh.state == ShardDone {
				done++
			}
			continue
		}
		if sh.state == ShardLeased {
			delete(c.leases, sh.leaseID)
			sh.leaseID = ""
			sh.worker = ""
		}
		sh.state = ShardSkipped
	}
	j.done = done
	j.quarantined = 0 // prefix shards are all done; later quarantines are moot
	j.skipped = len(j.shards) - (s + 1)
	if !replaying {
		_ = c.append(journalEntry{Type: entryJobConverged, Job: j.id, Shard: s})
		c.publishConvergedEvent(j, s)
	}
}

// publishConvergedEvent announces an adaptive job's stopping decision.
func (c *Coordinator) publishConvergedEvent(j *job, s int) {
	snap := campaign.NewTally()
	snap.Merge(j.tally)
	c.pushEventLocked(j, Event{
		Type: "job", Job: j.id, State: EventConverged, Shard: s,
		Done: j.done, Quarantined: j.quarantined, NumShards: len(j.shards),
		Tally: snap,
	})
}

// Fail records a worker-reported shard failure (requeue with backoff, or
// quarantine at the attempt cap).
func (c *Coordinator) Fail(workerID, leaseID, reason string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reclaimLocked(c.now())
	j, i, err := c.lookupLease(workerID, leaseID)
	if err != nil {
		return err
	}
	delete(c.leases, leaseID)
	c.failShardLocked(j, i, reason)
	return nil
}

// settleLocked recomputes a job's terminal state without publishing.
// Skipped shards (past an adaptive stopping point) count as settled. A
// settled job leaves the running list, so Lease never looks at it again.
func (c *Coordinator) settleLocked(j *job) {
	if j.state != JobRunning || j.done+j.quarantined+j.skipped < len(j.shards) {
		return
	}
	if j.quarantined > 0 {
		j.state = JobFailed
	} else {
		j.state = JobDone
	}
	for i, r := range c.running {
		if r == j {
			c.running = append(c.running[:i], c.running[i+1:]...)
			break
		}
	}
}

// settleAndPublishLocked settles the job and, on a transition, journals and
// announces it.
func (c *Coordinator) settleAndPublishLocked(j *job) {
	was := j.state
	c.settleLocked(j)
	if j.state != was {
		_ = c.append(journalEntry{Type: entryJobDone, Job: j.id, Reason: j.state})
		c.publishJobEvent(j, j.state)
	}
}

// publishShardEvent emits a shard-state event (tally attached on
// completions) and wakes event waiters.
func (c *Coordinator) publishShardEvent(j *job, i int, delta *campaign.Tally) {
	s := &j.shards[i]
	ev := Event{
		Type: "shard", Job: j.id, Shard: i, State: s.state,
		Attempt: s.attempts, Worker: s.worker, Reason: s.lastErr,
		Done: j.done, Quarantined: j.quarantined, NumShards: len(j.shards),
	}
	if delta != nil {
		snap := campaign.NewTally()
		snap.Merge(j.tally)
		ev.Tally = snap
	}
	c.pushEventLocked(j, ev)
}

// publishJobEvent emits a job-level event carrying the merged tally.
func (c *Coordinator) publishJobEvent(j *job, state string) {
	snap := campaign.NewTally()
	snap.Merge(j.tally)
	c.pushEventLocked(j, Event{
		Type: "job", Job: j.id, State: state,
		Done: j.done, Quarantined: j.quarantined, NumShards: len(j.shards),
		Tally: snap,
	})
}

func (c *Coordinator) pushEventLocked(j *job, ev Event) {
	ev.Seq = len(j.events) + 1
	j.events = append(j.events, ev)
	close(j.notify)
	j.notify = make(chan struct{})
}

// statusLocked renders a job's external status.
func (c *Coordinator) statusLocked(j *job, withShards bool) *JobStatus {
	snap := campaign.NewTally()
	snap.Merge(j.tally)
	st := &JobStatus{
		Schema:       JobSchema,
		ID:           j.id,
		Workload:     j.spec.Workload,
		Config:       j.spec.Config,
		GoldenDigest: j.goldenDigest,
		State:        j.state,
		NumShards:    len(j.shards),
		Done:         j.done,
		Quarantined:  j.quarantined,
		Skipped:      j.skipped,
		Tally:        snap,
	}
	if j.adaptive {
		st.Strata = j.weights
		if j.stopShard >= 0 {
			st.Converged = true
			st.StopShard = j.stopShard
		}
		if j.achievedCI > 0 && !math.IsInf(j.achievedCI, 1) {
			st.AchievedCI = j.achievedCI
		}
	}
	if withShards {
		st.Shards = make([]ShardStatus, len(j.shards))
		for i := range j.shards {
			s := &j.shards[i]
			st.Shards[i] = ShardStatus{
				Index: i, State: s.state, Attempts: s.attempts,
				Worker: s.worker, Error: s.lastErr,
			}
		}
	}
	return st
}

// Job returns one job's status (with per-shard detail) or false.
func (c *Coordinator) Job(id string) (*JobStatus, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reclaimLocked(c.now())
	j, ok := c.jobs[id]
	if !ok {
		return nil, false
	}
	return c.statusLocked(j, true), true
}

// Jobs lists every job in submission order.
func (c *Coordinator) Jobs() []*JobStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*JobStatus, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, c.statusLocked(c.jobs[id], false))
	}
	return out
}

// EventsAfter returns a job's events with seq > cursor. When none exist yet
// it returns an empty slice plus a channel that closes on the next publish,
// so callers can long-poll without spinning.
func (c *Coordinator) EventsAfter(id string, cursor int) ([]Event, <-chan struct{}, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return nil, nil, fmt.Errorf("serve: unknown job %q", id)
	}
	if cursor < 0 {
		cursor = 0
	}
	if cursor >= len(j.events) {
		return nil, j.notify, nil
	}
	evs := make([]Event, len(j.events)-cursor)
	copy(evs, j.events[cursor:])
	return evs, j.notify, nil
}

// Settled reports whether a job reached a terminal state.
func Settled(state string) bool { return state == JobDone || state == JobFailed }
