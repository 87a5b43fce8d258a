// Package report renders campaign results into the formats a fault-
// injection study consumes: per-run logs (one line per injection, as
// NVBitFI's results files), outcome-distribution tables (the Figure 2/3
// shape), and CSV for downstream analysis.
package report

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"

	"repro/internal/campaign"
)

// SummarySchema versions the stable JSON campaign summary. The tally inside
// uses campaign.TallySchema; both travel with the document so downstream
// tooling (the service API, benchmark comparisons, archived campaign runs)
// can check what it is reading.
const SummarySchema = "nvbitfi.summary/v1"

// SummaryJSON is the machine-readable campaign summary. Field order and
// encodings are stable: two identical campaigns marshal to identical bytes.
type SummaryJSON struct {
	Schema        string          `json:"schema"`
	Program       string          `json:"program"`
	Tally         *campaign.Tally `json:"tally"`
	GoldenMillis  int64           `json:"golden_ms"`
	TotalRunTime  int64           `json:"total_run_ms"`
	MedianRunTime int64           `json:"median_run_ms"`
	// Statistical summarizes an adaptive campaign's stopping decision and
	// stratified estimate. Omitted entirely for fixed-count campaigns,
	// keeping those summaries byte-identical to builds that predate it.
	Statistical *StatisticalJSON `json:"statistical,omitempty"`
	// Model names the campaign's fault model. Omitted entirely for the
	// default transient destination-flip model, keeping those summaries
	// byte-identical to builds that predate the fault-model subsystem.
	Model *ModelJSON `json:"model,omitempty"`
}

// ModelJSON annotates a summary with its non-default fault model.
type ModelJSON struct {
	Name  string `json:"name"`
	Param string `json:"param,omitempty"`
}

// StatisticalJSON reports an adaptive campaign: the target and achieved
// confidence interval, where the campaign stopped, the experiments saved
// against the fixed budget, per-stratum sample composition, and the pooled
// stratified Wilson intervals per outcome.
type StatisticalJSON struct {
	TargetCI      float64 `json:"target_ci"`
	Confidence    float64 `json:"confidence"`
	Converged     bool    `json:"converged"`
	StopShard     int     `json:"stop_shard"`
	MaxInjections int     `json:"max_injections"`
	// Selected is the number of experiments consumed from the selection
	// stream (Tally.N); Executed equals Selected, since every selected
	// experiment runs, and keeps its key for existing readers; Saved is the
	// selection budget left unconsumed.
	Selected   int                 `json:"selected"`
	Executed   int                 `json:"executed"`
	Saved      int                 `json:"saved"`
	AchievedCI float64             `json:"achieved_ci"`
	Intervals  []ClassIntervalJSON `json:"intervals"`
	Strata     []StratumStatJSON   `json:"strata"`
}

// StratumStatJSON is one stratum's composition: its share of the full
// selection (weight), whether its outcome is statically certain, and the
// outcomes sampled from it.
type StratumStatJSON struct {
	Key     string `json:"key"`
	Weight  int    `json:"weight"`
	Certain bool   `json:"certain,omitempty"`
	N       int    `json:"n"`
	SDC     int    `json:"sdc,omitempty"`
	DUE     int    `json:"due,omitempty"`
	Masked  int    `json:"masked,omitempty"`
}

// ClassIntervalJSON is one outcome's pooled share with confidence bounds.
type ClassIntervalJSON struct {
	Outcome string  `json:"outcome"`
	Share   float64 `json:"share"`
	Lo      float64 `json:"lo"`
	Hi      float64 `json:"hi"`
}

// NewSummaryJSON builds the stable summary document for one campaign.
func NewSummaryJSON(res *campaign.CampaignResult) SummaryJSON {
	return SummaryJSON{
		Schema:        SummarySchema,
		Program:       res.Program,
		Tally:         res.Tally,
		GoldenMillis:  res.GoldenTime.Milliseconds(),
		TotalRunTime:  res.TotalRunTime.Milliseconds(),
		MedianRunTime: res.MedianRunTime.Milliseconds(),
		Statistical:   statisticalSummary(res),
		Model:         modelSummary(res),
	}
}

// modelSummary builds the fault-model block, or nil for the default
// transient model.
func modelSummary(res *campaign.CampaignResult) *ModelJSON {
	if res.Model == "" {
		return nil
	}
	return &ModelJSON{Name: res.Model, Param: res.ModelParam}
}

// statisticalSummary builds the adaptive block, or nil when the campaign
// did not run adaptively.
func statisticalSummary(res *campaign.CampaignResult) *StatisticalJSON {
	a := res.Adaptive
	if a == nil {
		return nil
	}
	t := res.Tally
	sj := &StatisticalJSON{
		TargetCI:      a.TargetCI,
		Confidence:    a.Confidence,
		Converged:     a.Converged,
		StopShard:     a.StopShard,
		MaxInjections: a.MaxInjections,
		Selected:      t.N,
		Executed:      t.N,
		Saved:         a.MaxInjections - t.N,
		AchievedCI:    a.AchievedCI,
	}
	pooled := campaign.AdaptivePooled(t, a.Strata)
	for _, cat := range []string{"DUE", "Masked", "SDC"} {
		iv, err := pooled.ShareCI(cat, a.Confidence)
		if err != nil {
			continue
		}
		sj.Intervals = append(sj.Intervals, ClassIntervalJSON{
			Outcome: cat, Share: iv.P, Lo: iv.Lo, Hi: iv.Hi,
		})
	}
	sampled := make(map[string]campaign.StratumTally, len(t.Strata))
	for _, s := range t.Strata {
		sampled[s.Key] = s
	}
	for _, w := range a.Strata {
		s := sampled[w.Key]
		sj.Strata = append(sj.Strata, StratumStatJSON{
			Key: w.Key, Weight: w.Count, Certain: w.Certain,
			N: s.N, SDC: s.SDC, DUE: s.DUE, Masked: s.Masked,
		})
	}
	return sj
}

// WriteSummaryJSON writes one stable JSON summary line per campaign — the
// format behind `nvbitfi campaign -json` and the benchmark tooling's
// campaign snapshots.
func WriteSummaryJSON(w io.Writer, results ...*campaign.CampaignResult) error {
	enc := json.NewEncoder(w)
	for _, res := range results {
		if err := enc.Encode(NewSummaryJSON(res)); err != nil {
			return err
		}
	}
	return nil
}

// WriteRunLog writes one line per injection run: the NVBitFI-style
// per-experiment log that campaigns archive.
func WriteRunLog(w io.Writer, res *campaign.CampaignResult) error {
	for i := range res.Runs {
		run := &res.Runs[i]
		rec := run.Injection
		var line string
		if rec.Kernel != "" || rec.Activated {
			line = fmt.Sprintf("run=%d outcome=%v symptom=%q potential_due=%v "+
				"activated=%v kernel=%s instr=%d opcode=%v sm=%d lane=%d target=%s "+
				"before=0x%08x after=0x%08x dur=%s",
				i, run.Class.Outcome, run.Class.Symptom.String(), run.Class.PotentialDUE,
				rec.Activated, rec.Kernel, rec.InstrIdx, rec.Opcode, rec.SMID, rec.Lane,
				rec.Target, rec.Before, rec.After, run.Duration.Round(time.Millisecond))
		} else {
			line = fmt.Sprintf("run=%d outcome=%v symptom=%q potential_due=%v "+
				"activations=%d dur=%s",
				i, run.Class.Outcome, run.Class.Symptom.String(), run.Class.PotentialDUE,
				run.Activations, run.Duration.Round(time.Millisecond))
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}

// WriteOutcomeCSV writes the campaign's outcome distribution as CSV rows:
// program, runs, sdc, due, masked, potential_due, sdc_pct, due_pct,
// masked_pct.
func WriteOutcomeCSV(w io.Writer, results ...*campaign.CampaignResult) error {
	cw := csv.NewWriter(w)
	header := []string{"program", "runs", "sdc", "due", "masked",
		"potential_due", "sdc_pct", "due_pct", "masked_pct"}
	if err := cw.Write(header); err != nil {
		return err
	}
	pct := func(f float64) string { return strconv.FormatFloat(100*f, 'f', 1, 64) }
	for _, res := range results {
		t := res.Tally
		row := []string{
			res.Program,
			strconv.Itoa(t.N),
			strconv.Itoa(t.Counts[campaign.SDC]),
			strconv.Itoa(t.Counts[campaign.DUE]),
			strconv.Itoa(t.Counts[campaign.Masked]),
			strconv.Itoa(t.PotentialDUEs),
			pct(t.Fraction(campaign.SDC)),
			pct(t.Fraction(campaign.DUE)),
			pct(t.Fraction(campaign.Masked)),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteWeightedCSV writes a permanent campaign's activity-weighted shares:
// program, opcodes, then one column per category.
func WriteWeightedCSV(w io.Writer, results ...*campaign.CampaignResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"program", "opcodes", "category", "weighted_pct"}); err != nil {
		return err
	}
	for _, res := range results {
		if res.Weighted == nil {
			return fmt.Errorf("report: %s has no weighted outcomes (not a permanent campaign)", res.Program)
		}
		for _, cat := range res.Weighted.Categories() {
			row := []string{
				res.Program,
				strconv.Itoa(len(res.Runs)),
				cat,
				strconv.FormatFloat(100*res.Weighted.Share(cat), 'f', 1, 64),
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// Summary renders the one-line campaign summary used by the CLI.
func Summary(res *campaign.CampaignResult) string {
	t := res.Tally
	s := fmt.Sprintf("%s: %d runs, %v, potential DUEs %d", res.Program, t.N, t, t.PotentialDUEs)
	if len(res.Runs) > 0 {
		// A result rebuilt from a tally alone (a service job's) has no runs
		// to take a median over.
		s += fmt.Sprintf(", median run %v", res.MedianRunTime.Round(time.Millisecond))
	}
	if t.Restored > 0 {
		s += fmt.Sprintf(", %d restored from checkpoints (%d early exits)", t.Restored, t.EarlyExits)
	}
	if a := res.Adaptive; a != nil {
		if a.Converged {
			s += fmt.Sprintf(", converged at shard %d", a.StopShard)
		} else {
			s += ", not converged"
		}
		s += fmt.Sprintf(" (%d/%d selected, SDC ±%.2f%% @%d%%, target ±%.2f%%)",
			t.N, a.MaxInjections, 100*a.AchievedCI, int(100*a.Confidence), 100*a.TargetCI)
	}
	if res.Weighted != nil {
		s = fmt.Sprintf("%s: %d opcodes, weighted SDC %.1f%% DUE %.1f%% Masked %.1f%%",
			res.Program, len(res.Runs),
			100*res.Weighted.Share("SDC"), 100*res.Weighted.Share("DUE"),
			100*res.Weighted.Share("Masked"))
	}
	if res.Model != "" {
		s += " [model " + res.Model
		if res.ModelParam != "" {
			s += " " + res.ModelParam
		}
		s += "]"
	}
	return s
}
