package benchkit

import (
	"math"
	"testing"
)

// quartiles is Python's statistics.quantiles(n=4), which the driver uses.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1})
	if q1 != 0.5 || q2 != 2 || q3 != 3.5 {
		t.Errorf("two values: quartiles = %v %v %v, want 0.5 2 3.5", q1, q2, q3)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if got := percentile(xs, 0.95); got != 95 {
		t.Errorf("p95 of 1..100 = %v, want 95", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSpanSelfTimeAndShape(t *testing.T) {
	good := []Span{
		{ID: 0, Parent: -1, Exp: 1, Name: "experiment", Start: 0, End: 100},
		{ID: 1, Parent: 0, Exp: 1, Name: "workload.run", Start: 10, End: 90},
		{ID: 2, Parent: 1, Exp: 1, Name: "launch", Start: 20, End: 50},
		{ID: 3, Parent: 1, Exp: 1, Name: "launch", Start: 50, End: 80},
	}
	if err := checkSpans(good); err != nil {
		t.Fatal(err)
	}
	self := selfTimes(good)
	if self[0] != 20 || self[1] != 20 || self[2] != 30 {
		t.Errorf("self times %v, want [20 20 30 30]", self)
	}
	for name, bad := range map[string]Span{
		"child outside parent": {ID: 3, Parent: 1, Exp: 1, Name: "launch", Start: 50, End: 95},
		"other experiment":     {ID: 3, Parent: 1, Exp: 2, Name: "launch", Start: 50, End: 80},
		"children overlap":     {ID: 3, Parent: 1, Exp: 1, Name: "launch", Start: 15, End: 85},
	} {
		spans := append(append([]Span(nil), good[:3]...), bad)
		if checkSpans(spans) == nil {
			t.Errorf("%s: malformed tree accepted", name)
		}
	}
}

func set(workload, metric string, failed int, vals ...float64) *Set {
	s := &Set{Schema: SetSchema}
	for _, v := range vals {
		s.Reports = append(s.Reports, &Report{Workload: workload, Attempted: 100, Failed: failed,
			Metrics: map[string]Metric{metric: {Value: v}}})
	}
	return s
}

func TestCompareVerdicts(t *testing.T) {
	const w, m = "stencil_engine", "ms_per_inj_p50" // lower is better, bound 15%
	tight := []float64{100, 101, 99, 100, 102, 98}
	for _, c := range []struct {
		name    string
		b       []float64
		verdict string
	}{
		{"same", tight, VerdictOK},
		{"10% slower, inside the bound", []float64{110, 111, 109, 110, 112, 108}, VerdictOK},
		{"30% slower", []float64{130, 131, 129, 130, 132, 128}, VerdictRegressed},
		{"faster", []float64{70, 71, 69, 70, 72, 68}, VerdictOK},
		{"wide and overlapping", []float64{80, 140, 95, 150, 100, 160}, VerdictUnresolved},
		{"wide but every run worse", []float64{150, 250, 160, 240, 170, 230}, VerdictRegressed},
		{"wide but every run better", []float64{40, 90, 50, 80, 60, 70}, VerdictOK},
	} {
		rows, failedWorse := Compare(set(w, m, 0, tight...), set(w, m, 0, c.b...))
		if len(rows) != 1 || rows[0].Verdict != c.verdict || failedWorse {
			t.Errorf("%s: rows %+v failedWorse %v, want verdict %s", c.name, rows, failedWorse, c.verdict)
		}
	}
	// A higher-is-better metric regresses when it falls.
	rows, _ := Compare(set(w, "inj_per_s", 0, tight...), set(w, "inj_per_s", 0, 70, 71, 69, 70, 72, 68))
	if rows[0].Verdict != VerdictRegressed || math.Abs(rows[0].Worse-0.3) > 0.01 {
		t.Errorf("inj_per_s fell 30%%: %+v", rows[0])
	}
	if _, failedWorse := Compare(set(w, m, 0, tight...), set(w, m, 1, tight...)); !failedWorse {
		t.Error("a higher failed share was not reported")
	}
}
