package report_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sass"
	"repro/internal/specaccel"
	"repro/internal/stats"
)

func miniCampaign(t *testing.T) (*campaign.CampaignResult, *campaign.CampaignResult) {
	t.Helper()
	w, err := specaccel.ByName("314.omriq")
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
	tr, err := campaign.RunTransientCampaign(context.Background(), r, w, golden, profile,
		campaign.TransientCampaignConfig{Injections: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	pf, err := campaign.RunPermanentCampaign(context.Background(), r, w, golden, profile, core.RandomValue, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	return tr, pf
}

func TestWriteRunLog(t *testing.T) {
	tr, pf := miniCampaign(t)
	var sb strings.Builder
	if err := report.WriteRunLog(&sb, tr); err != nil {
		t.Fatal(err)
	}
	log := sb.String()
	if got := strings.Count(log, "\n"); got != 5 {
		t.Fatalf("run log has %d lines, want 5:\n%s", got, log)
	}
	for _, want := range []string{"outcome=", "kernel=", "before=0x", "target="} {
		if !strings.Contains(log, want) {
			t.Fatalf("run log missing %q:\n%s", want, log)
		}
	}
	sb.Reset()
	if err := report.WriteRunLog(&sb, pf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "activations=") {
		t.Fatalf("permanent run log missing activations:\n%s", sb.String())
	}
}

func TestWriteOutcomeCSV(t *testing.T) {
	tr, _ := miniCampaign(t)
	var sb strings.Builder
	if err := report.WriteOutcomeCSV(&sb, tr); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV has %d lines:\n%s", len(lines), sb.String())
	}
	if !strings.HasPrefix(lines[0], "program,runs,sdc,due,masked") {
		t.Fatalf("CSV header = %q", lines[0])
	}
	fields := strings.Split(lines[1], ",")
	if fields[0] != "314.omriq" || fields[1] != "5" {
		t.Fatalf("CSV row = %q", lines[1])
	}
	// The three counts sum to the run count.
	sum := atoi(t, fields[2]) + atoi(t, fields[3]) + atoi(t, fields[4])
	if sum != 5 {
		t.Fatalf("outcome counts sum to %d", sum)
	}
}

func TestWriteWeightedCSV(t *testing.T) {
	tr, pf := miniCampaign(t)
	var sb strings.Builder
	if err := report.WriteWeightedCSV(&sb, pf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "program,opcodes,category,weighted_pct") {
		t.Fatalf("weighted CSV header missing:\n%s", sb.String())
	}
	if err := report.WriteWeightedCSV(&sb, tr); err == nil {
		t.Fatal("transient campaign accepted by WriteWeightedCSV")
	}
}

func TestSummary(t *testing.T) {
	tr, pf := miniCampaign(t)
	if s := report.Summary(tr); !strings.Contains(s, "5 runs") || !strings.Contains(s, "median run") {
		t.Fatalf("transient summary = %q", s)
	}
	// A result rebuilt from its tally alone has no run to take a median of.
	if s := report.Summary(&campaign.CampaignResult{Program: tr.Program, Tally: tr.Tally}); !strings.Contains(s, "5 runs") ||
		strings.Contains(s, "median run") {
		t.Fatalf("tally-only summary = %q", s)
	}
	if s := report.Summary(pf); !strings.Contains(s, "opcodes") ||
		!strings.Contains(s, "weighted") {
		t.Fatalf("permanent summary = %q", s)
	}
	// Keep the stats dependency honest: shares in summaries must be
	// consistent with the weighted tally.
	var wt *stats.WeightedTally = pf.Weighted
	total := 0.0
	for _, c := range []string{"SDC", "DUE", "Masked"} {
		total += wt.Share(c)
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("weighted shares sum to %v", total)
	}
	_ = sass.GroupGP // document the group vocabulary is available to reports
}

func atoi(t *testing.T, s string) int {
	t.Helper()
	n := 0
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			t.Fatalf("not a number: %q", s)
		}
		n = n*10 + int(s[i]-'0')
	}
	return n
}

// TestModelAnnotation: a non-default fault model annotates both the one-line
// summary and the stable JSON document; the default model leaves both
// byte-identical to builds that predate the subsystem.
func TestModelAnnotation(t *testing.T) {
	tr, _ := miniCampaign(t)

	// The default model: no annotation anywhere.
	if s := report.Summary(tr); strings.Contains(s, "[model") {
		t.Fatalf("default summary mentions a model: %s", s)
	}
	doc := report.NewSummaryJSON(tr)
	if doc.Model != nil {
		t.Fatalf("default summary JSON carries a model block: %+v", doc.Model)
	}
	var sb strings.Builder
	if err := report.WriteSummaryJSON(&sb, tr); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), `"model"`) {
		t.Fatalf("default summary JSON encoding mentions a model: %s", sb.String())
	}

	// A model campaign: both surfaces annotate it.
	mr := *tr
	mr.Model, mr.ModelParam = "stuck", "value=0,bit=17"
	if s := report.Summary(&mr); !strings.Contains(s, "[model stuck value=0,bit=17]") {
		t.Fatalf("model summary lacks the annotation: %s", s)
	}
	doc = report.NewSummaryJSON(&mr)
	if doc.Model == nil || doc.Model.Name != "stuck" || doc.Model.Param != "value=0,bit=17" {
		t.Fatalf("model summary JSON block = %+v", doc.Model)
	}
	// Without a parameter the annotation drops the param segment.
	mr.ModelParam = ""
	if s := report.Summary(&mr); !strings.Contains(s, "[model stuck]") {
		t.Fatalf("parameterless model annotation wrong: %s", s)
	}
}
