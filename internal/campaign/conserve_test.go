package campaign

import (
	"errors"
	"slices"
	"strings"
	"testing"
)

// conserveRuns is a run set of three completed experiments, all stratified.
func conserveRuns() []RunResult {
	run := func(o Outcome, stratum string) RunResult {
		return RunResult{Class: Classification{Outcome: o}, Stratum: stratum}
	}
	return []RunResult{run(SDC, "a"), run(Masked, "b"), run(DUE, "a")}
}

// TestSummarizeRefusesUnconservedTally: summarize returns a campaign result
// only over a conserved tally. A corrupted run set — one run lost from the
// strata — is an error with no result, joined with the failed experiments'
// errors when there are some; a failed experiment alone still degrades to the
// partial result.
func TestSummarizeRefusesUnconservedTally(t *testing.T) {
	golden := &GoldenResult{}
	runs := conserveRuns()
	res, err := summarize("w", golden, runs, make([]error, len(runs)), nil)
	if err != nil || res.Tally.N != len(runs) {
		t.Fatalf("a sound run set: result %v, error %v", res, err)
	}

	corrupt := slices.Clone(runs)
	corrupt[1].Stratum = ""
	if res, err := summarize("w", golden, corrupt, make([]error, len(corrupt)), nil); err == nil || res != nil {
		t.Fatalf("a run set whose strata miss a run: result %v, error %v; want no result and an error", res, err)
	}

	boom := errors.New("experiment failed")
	errs := []error{nil, nil, boom}
	corrupt = slices.Clone(runs)
	corrupt[0].Stratum = ""
	res, err = summarize("w", golden, corrupt, errs, nil)
	if res != nil || !errors.Is(err, boom) || !strings.Contains(err.Error(), "strata") {
		t.Fatalf("a corrupted run set with a failed experiment: result %v, error %v; want no result and both errors", res, err)
	}
	res, err = summarize("w", golden, runs, errs, nil)
	if !errors.Is(err, boom) || res == nil || res.Tally.N != 2 {
		t.Fatalf("a failed experiment: result %v, error %v; want the two completed runs and its error", res, err)
	}
}

// TestConservedCountsRuns: conserved wants Tally.Check to pass and N to be
// the number of runs.
func TestConservedCountsRuns(t *testing.T) {
	runs := conserveRuns()
	tl := TallyRuns(runs)
	if err := conserved(tl, len(runs)); err != nil {
		t.Fatalf("a tally of its own runs: %v", err)
	}
	if err := conserved(tl, len(runs)+1); err == nil {
		t.Error("a tally missing a run passes")
	}
	tl.Counts[SDC]--
	if err := conserved(tl, len(runs)); err == nil {
		t.Error("a tally whose outcomes sum short of N passes")
	}
}
