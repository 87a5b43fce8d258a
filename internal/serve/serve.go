// Package serve turns the campaign harness into a service: a coordinator
// accepts campaign submissions, splits them into selection shards (see
// campaign.ShardSeed), and hands shards to workers under heartbeat-renewed,
// timeout-reclaimed leases. Per-shard tallies merge commutatively into the
// job tally, so a campaign distributed over any number of workers — local
// pool goroutines or remote processes speaking the HTTP API — produces a
// tally byte-identical to the single-process runner on the same seed.
//
// Jobs persist to an append-only JSONL journal: a restarted coordinator
// replays it and resumes every unfinished job without re-running finished
// shards. Dispatch is event-driven: an idle worker's Lease call parks on the
// coordinator and is woken when a shard becomes runnable. Clients follow
// live progress through long-poll or SSE event streams. DESIGN.md section
// 3.5 gives the architecture and the lease/retry state machine.
package serve

import (
	"fmt"
	"slices"

	"repro/internal/campaign"
	"repro/internal/specaccel"
)

// JobSchema versions the submission and status wire format: the one schema
// a coordinator writes, in its journal and in every status reply. What a job
// uses — a target CI, a fault model — its config's fields say, and validation
// checks those fields alone.
const JobSchema = "nvbitfi.job/v1"

// acceptedSchemas are the schema strings a spec may carry: JobSchema, none,
// and the adaptive (v2) and fault-model (v3) strings earlier coordinators
// wrote into their journals. All of them decode as JobSchema.
var acceptedSchemas = []string{"", JobSchema, "nvbitfi.job/v2", "nvbitfi.job/v3"}

// CampaignSpec is a submitted campaign: a workload named out of the
// benchmark suite plus the transient-campaign configuration. The spec is
// the unit the journal persists and workers reconstruct experiments from —
// together with the campaign seed it determines every fault the job
// injects.
type CampaignSpec struct {
	Schema   string                           `json:"schema"`
	Workload string                           `json:"workload"`
	Config   campaign.TransientCampaignConfig `json:"config"`
}

// Validate checks the spec before a job is created from it.
func (s CampaignSpec) Validate() error {
	if !slices.Contains(acceptedSchemas, s.Schema) {
		return fmt.Errorf("serve: unsupported job schema %q (want %q)", s.Schema, JobSchema)
	}
	// The in-process planner's guard rails, applied at submission so an
	// unsound job is rejected before any worker fails on it.
	if err := s.Config.Validate(); err != nil {
		return err
	}
	if s.Workload == "" {
		return fmt.Errorf("serve: spec names no workload")
	}
	if _, err := ResolveWorkload(s.Workload); err != nil {
		return err
	}
	return nil
}

// ResolveWorkload maps a spec's workload name to the runnable workload.
// Coordinator and workers resolve independently — the simulator is
// deterministic, so both sides reconstruct the same golden run and verify
// agreement through its digest.
func ResolveWorkload(name string) (campaign.Workload, error) {
	w, err := specaccel.ByName(name)
	if err != nil {
		return nil, fmt.Errorf("serve: unknown workload %q: %w", name, err)
	}
	return w, nil
}

// WorkerInfo describes a worker at registration.
type WorkerInfo struct {
	Name string `json:"name"`
}

// LeaseGrant hands one shard of one job to a worker. The worker re-derives
// the shard's fault parameters from the spec (seed, shard index) and must
// renew the lease before TTLSeconds elapses or the coordinator reclaims the
// shard for another worker.
type LeaseGrant struct {
	LeaseID      string       `json:"lease_id"`
	Job          string       `json:"job"`
	Shard        int          `json:"shard"`
	Spec         CampaignSpec `json:"spec"`
	GoldenDigest string       `json:"golden_digest"`
	TTLSeconds   float64      `json:"ttl_seconds"`
}

// ShardResult is a worker's report for one completed shard.
type ShardResult struct {
	Tally *campaign.Tally `json:"tally"`
	// GoldenDigest is the digest of the worker's own golden run; the
	// coordinator rejects the shard if it diverges from the job's.
	GoldenDigest string `json:"golden_digest"`
}

// Backend is the coordinator surface a worker drives. The coordinator
// implements it directly for in-process pools; Client implements it over
// HTTP for remote workers. Everything a worker needs rides in the grant, so
// the two transports are interchangeable.
type Backend interface {
	Register(info WorkerInfo) (workerID string, err error)
	// Lease blocks until a shard is runnable and returns it. It returns nil
	// when the worker was deregistered, the coordinator closed, or the wait
	// reached its bound with nothing to run; a worker that is not leaving
	// just calls again.
	Lease(workerID string) (*LeaseGrant, error)
	Heartbeat(workerID, leaseID string) error
	Complete(workerID, leaseID string, res ShardResult) error
	Fail(workerID, leaseID, reason string) error
	// Deregister is a worker's clean exit: it ends the worker's blocked
	// Lease and hands its held shards back without costing them an attempt.
	Deregister(workerID string) error
}

// Event is one entry in a job's progress stream. Seq increases by one per
// event within a job; clients resume with the last seq they saw.
type Event struct {
	Seq     int    `json:"seq"`
	Type    string `json:"type"` // "shard" or "job"
	Job     string `json:"job"`
	Shard   int    `json:"shard,omitempty"`
	State   string `json:"state"`
	Attempt int    `json:"attempt,omitempty"`
	Worker  string `json:"worker,omitempty"`
	Reason  string `json:"reason,omitempty"`
	// Progress counters at the time of the event.
	Done        int `json:"done"`
	Quarantined int `json:"quarantined,omitempty"`
	NumShards   int `json:"num_shards"`
	// Tally is the merged job tally after this event (shard completions and
	// job-level events only).
	Tally *campaign.Tally `json:"tally,omitempty"`
}

// Shard states as reported in statuses and events.
const (
	ShardPending     = "pending"
	ShardLeased      = "leased"
	ShardDone        = "done"
	ShardQuarantined = "quarantined"
	// ShardSkipped marks shards past an adaptive job's stopping point: the
	// pooled estimate converged before they were needed, so they never run
	// and contribute nothing to the tally.
	ShardSkipped = "skipped"
)

// EventConverged is the job-level event state announcing that an adaptive
// job's pooled estimate reached its target CI; Event.Shard carries the
// stopping shard index.
const EventConverged = "converged"

// Job states.
const (
	JobRunning = "running"
	JobDone    = "done"
	// JobFailed means the job settled but at least one shard exhausted its
	// attempts: the tally covers only completed shards.
	JobFailed = "failed"
)

// ShardStatus is one shard's externally visible state.
type ShardStatus struct {
	Index    int    `json:"index"`
	State    string `json:"state"`
	Attempts int    `json:"attempts,omitempty"`
	Worker   string `json:"worker,omitempty"`
	Error    string `json:"error,omitempty"`
}

// JobStatus is a job's externally visible state.
type JobStatus struct {
	Schema       string                           `json:"schema"`
	ID           string                           `json:"id"`
	Workload     string                           `json:"workload"`
	Config       campaign.TransientCampaignConfig `json:"config"`
	GoldenDigest string                           `json:"golden_digest"`
	State        string                           `json:"state"`
	NumShards    int                              `json:"num_shards"`
	Done         int                              `json:"done"`
	Quarantined  int                              `json:"quarantined,omitempty"`
	// The adaptive fields are omitted for v1 jobs so their status encoding
	// is unchanged. Skipped counts shards past the stopping point;
	// AchievedCI is the stratified Wilson half-width on the SDC share over
	// the shards that ran; Strata is the full-selection stratum composition
	// the estimate pooled against.
	Skipped    int                      `json:"skipped,omitempty"`
	Converged  bool                     `json:"converged,omitempty"`
	StopShard  int                      `json:"stop_shard,omitempty"`
	AchievedCI float64                  `json:"achieved_ci,omitempty"`
	Strata     []campaign.StratumWeight `json:"strata,omitempty"`
	Tally      *campaign.Tally          `json:"tally"`
	Shards     []ShardStatus            `json:"shards,omitempty"`
}
