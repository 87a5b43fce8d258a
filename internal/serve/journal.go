package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/campaign"
)

// The journal is the coordinator's durability story: every state change
// that must survive a restart — job creation, shard completion (with its
// tally), shard failure, job settlement — appends one JSON line. Replay is
// idempotent and ordered, so a coordinator that crashed mid-write simply
// ignores the torn final line and resumes: done shards stay done, everything
// else re-enters the pending pool.

// Journal entry types.
const (
	entryJob         = "job"
	entryShardDone   = "shard_done"
	entryShardFailed = "shard_failed"
	entryJobDone     = "job_done"
	// entryJobConverged records an adaptive job's stopping decision: the
	// pooled estimate reached its target CI at shard index Shard. On replay
	// the same decision is also re-derived from the shard_done tallies; the
	// explicit entry makes the stopping point inspectable and replays
	// idempotently ahead of any out-of-order completions.
	entryJobConverged = "job_converged"
)

// journalEntry is one JSONL record.
type journalEntry struct {
	Type string `json:"type"`
	Job  string `json:"job"`
	// entryJob fields.
	Spec         *CampaignSpec `json:"spec,omitempty"`
	GoldenDigest string        `json:"golden_digest,omitempty"`
	NumShards    int           `json:"num_shards,omitempty"`
	// Strata is the adaptive job's full-selection stratum composition,
	// journaled at submission so replay re-derives the stopping decision
	// without a profiling run.
	Strata []campaign.StratumWeight `json:"strata,omitempty"`
	// Shard-level fields.
	Shard       int             `json:"shard,omitempty"`
	Attempt     int             `json:"attempt,omitempty"`
	Quarantined bool            `json:"quarantined,omitempty"`
	Reason      string          `json:"reason,omitempty"`
	Tally       *campaign.Tally `json:"tally,omitempty"`
}

// journal appends entries to a JSONL file, syncing after every record so a
// crash loses at most the entry being written.
type journal struct {
	f *os.File
}

// openJournal opens (or creates) the journal and returns the replayable
// entries already in it. A truncated final line — a crash mid-append — is
// dropped silently; every complete line must parse, and a shard_done record
// must carry a tally replay can trust (checkEntry).
func openJournal(path string) (*journal, []journalEntry, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: open journal: %w", err)
	}
	var entries []journalEntry
	var good int64 // offset just past the last complete, parseable record
	jobs := map[string]journalEntry{}
	r := bufio.NewReader(f)
	for {
		line, err := r.ReadBytes('\n')
		complete := err == nil
		if complete && len(bytes.TrimSpace(line)) == 0 {
			good += int64(len(line))
			continue
		}
		if len(line) > 0 && complete {
			var e journalEntry
			jerr := json.Unmarshal(line, &e)
			if jerr == nil {
				jerr = checkEntry(e, jobs)
			}
			if jerr != nil {
				f.Close()
				return nil, nil, fmt.Errorf("serve: journal %s is corrupt at offset %d: %v", path, good, jerr)
			}
			entries = append(entries, e)
			good += int64(len(line))
		}
		if err != nil {
			if err == io.EOF {
				break // a torn, newline-less tail is dropped by truncation below
			}
			f.Close()
			return nil, nil, fmt.Errorf("serve: read journal: %w", err)
		}
	}
	// Drop any torn final record so new appends start on a record boundary.
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, nil, err
	}
	if _, err := f.Seek(good, 0); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &journal{f: f}, entries, nil
}

// checkEntry refuses a record replay would trust wrongly: a shard_done whose
// tally is missing, fails Tally.Check, or counts other than the runs its
// shard selects — the checks Coordinator.Complete makes before journaling
// one. jobs holds the job records read so far, by job id.
func checkEntry(e journalEntry, jobs map[string]journalEntry) error {
	switch e.Type {
	case entryJob:
		jobs[e.Job] = e
	case entryShardDone:
		if e.Tally == nil {
			return fmt.Errorf("shard_done for job %s shard %d carries no tally", e.Job, e.Shard)
		}
		if err := e.Tally.Check(); err != nil {
			return fmt.Errorf("shard_done for job %s shard %d: %w", e.Job, e.Shard, err)
		}
		if j, ok := jobs[e.Job]; ok && j.Spec != nil && e.Shard >= 0 && e.Shard < j.NumShards {
			if lo, hi := j.Spec.Config.ShardRange(e.Shard); e.Tally.N != hi-lo {
				return fmt.Errorf("shard_done for job %s shard %d counts %d runs, the shard selects %d", e.Job, e.Shard, e.Tally.N, hi-lo)
			}
		}
	}
	return nil
}

// Append writes one entry and syncs it to disk.
func (j *journal) Append(e journalEntry) error {
	b, err := json.Marshal(e)
	if err != nil {
		return err
	}
	if _, err := j.f.Write(append(b, '\n')); err != nil {
		return fmt.Errorf("serve: journal append: %w", err)
	}
	return j.f.Sync()
}

// Close closes the underlying file.
func (j *journal) Close() error { return j.f.Close() }
