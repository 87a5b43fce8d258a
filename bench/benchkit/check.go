package benchkit

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/campaign"
)

// PartResult is what one campaign of a workload must reproduce exactly:
// the tally and the simulated-instruction sums. Host time is not in it.
type PartResult struct {
	Part             string          `json:"part"`
	Tally            json.RawMessage `json:"tally"`
	WarpInstrs       uint64          `json:"warp_instrs"`
	ThreadInstrs     uint64          `json:"thread_instrs"`
	TrampolineInstrs uint64          `json:"trampoline_instrs"`
}

// partResult folds a finished campaign into its reproducible part.
func partResult(label string, res *campaign.CampaignResult) (PartResult, error) {
	tally, err := json.Marshal(res.Tally)
	if err != nil {
		return PartResult{}, err
	}
	pr := PartResult{Part: label, Tally: tally}
	for i := range res.Runs {
		pr.WarpInstrs += res.Runs[i].Stats.WarpInstrs
		pr.ThreadInstrs += res.Runs[i].Stats.ThreadInstrs
		pr.TrampolineInstrs += res.Runs[i].Stats.TrampolineInstrs
	}
	return pr, nil
}

// digest is the SHA-256 of a repetition's part results.
func digest(parts []PartResult) string {
	b, err := json.Marshal(parts)
	if err != nil {
		panic(err) // PartResult holds only marshalable fields
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Expected is bench/expected.json: per workload, the digest and the part
// results behind it for DefaultSeed at scale 1. It enforces "a simulator
// speedup leaves every simulated statistic identical".
type Expected struct {
	Seed      int64                    `json:"seed"`
	Workloads map[string]ExpectedEntry `json:"workloads"`
}

// ExpectedEntry is one workload's committed digest.
type ExpectedEntry struct {
	SHA256 string       `json:"sha256"`
	Parts  []PartResult `json:"parts"`
}

func expectedPath(dir string) string { return filepath.Join(dir, "expected.json") }

// LoadExpected reads bench/expected.json; a missing file is an empty set.
func LoadExpected(dir string) (*Expected, error) {
	e := &Expected{Seed: DefaultSeed, Workloads: map[string]ExpectedEntry{}}
	b, err := os.ReadFile(expectedPath(dir))
	if os.IsNotExist(err) {
		return e, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, e); err != nil {
		return nil, fmt.Errorf("benchkit: %s: %w", expectedPath(dir), err)
	}
	return e, nil
}

// Save writes bench/expected.json.
func (e *Expected) Save(dir string) error {
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(expectedPath(dir), append(b, '\n'), 0o644)
}

// checkExpected compares a default-seed, full-scale run against the
// committed digest. Other seeds and scales have no committed value; their
// correctness rests on the repetition-identity checks alone.
func checkExpected(rep *Report, o Options) error {
	if o.Seed != DefaultSeed || o.Scale != 1 {
		return nil
	}
	exp, err := LoadExpected(o.Dir)
	if err != nil {
		return err
	}
	if o.UpdateExpected {
		exp.Workloads[rep.Workload] = ExpectedEntry{SHA256: rep.Digest, Parts: rep.Parts}
		return exp.Save(o.Dir)
	}
	want, ok := exp.Workloads[rep.Workload]
	if !ok {
		return fmt.Errorf("no committed digest for workload %s in %s (run -update-expected)", rep.Workload, expectedPath(o.Dir))
	}
	if want.SHA256 != rep.Digest {
		got, _ := json.Marshal(rep.Parts)
		exp, _ := json.Marshal(want.Parts)
		return fmt.Errorf("workload %s: simulated results differ from %s\n  expected %s\n  got      %s",
			rep.Workload, expectedPath(o.Dir), exp, got)
	}
	return nil
}
