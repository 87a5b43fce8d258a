package benchkit

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"text/tabwriter"
)

// SetSchema versions a set file: the reports of several runs of every
// workload on one commit, as `-all -runs n -o file` writes it.
const SetSchema = "nvbitfi.benchset/v1"

// Set is a set of runs to compare against another.
type Set struct {
	Schema  string    `json:"schema"`
	Reports []*Report `json:"reports"`
}

// LoadSet reads a set file.
func LoadSet(path string) (*Set, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Set
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("benchkit: %s: %w", path, err)
	}
	if s.Schema != SetSchema {
		return nil, fmt.Errorf("benchkit: %s has schema %q, want %q", path, s.Schema, SetSchema)
	}
	return &s, nil
}

// Save writes the set file, one line: a set of 60 reports is large, and it
// is read by -compare, not by people.
func (s *Set) Save(path string) error {
	b, err := json.Marshal(s)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// values collects one end-to-end metric of one workload across a set's
// untraced runs, and the workload's failed and attempted totals.
func (s *Set) values(workload, metric string) (vals []float64, failed, attempted int) {
	for _, r := range s.Reports {
		if r.Workload != workload || r.Trace {
			continue
		}
		failed += r.Failed
		attempted += r.Attempted
		if m, ok := r.Metrics[metric]; ok {
			vals = append(vals, m.Value)
		}
	}
	return vals, failed, attempted
}

// Verdicts of one (workload, metric) row.
const (
	VerdictOK         = "ok"
	VerdictRegressed  = "regressed"
	VerdictUnresolved = "unresolved"
)

// Row is one (workload, end-to-end metric) comparison of set B against A.
type Row struct {
	Workload, Metric, Unit string
	MedA, Q1A, Q3A         float64
	MedB, Q1B, Q3B         float64
	// Worse is the share of A's median by which B's median is worse
	// (negative when B is better); Spread the wider of the two sets'
	// interquartile ranges as a share of its median.
	Worse, Spread, Bound float64
	Verdict              string
}

func summarize(vals []float64) (med, q1, q3 float64) {
	if len(vals) < 2 {
		m := median(vals)
		return m, m, m
	}
	q1, med, q3 = quartiles(vals)
	return med, q1, q3
}

// verdict applies the benchmark's rule. Within the bound is ok and beyond it
// regressed, unless the run-to-run spread is wider than the bound: then the
// sets must be disjoint to say anything, and overlapping sets are unresolved.
func verdict(a, b []float64, d Decl, worse, spread float64) string {
	if spread <= d.Bound {
		if worse > d.Bound {
			return VerdictRegressed
		}
		return VerdictOK
	}
	aLo, aHi, bLo, bHi := slices.Min(a), slices.Max(a), slices.Min(b), slices.Max(b)
	if d.Better == higher {
		aLo, aHi, bLo, bHi = -aHi, -aLo, -bHi, -bLo
	}
	switch {
	case bHi < aLo: // every run of B reads better than every run of A
		return VerdictOK
	case bLo > aHi && worse > d.Bound:
		return VerdictRegressed
	}
	return VerdictUnresolved
}

// Compare builds one row per (workload, end-to-end metric) present in both
// sets. failedWorse reports whether any workload's failed share rose.
func Compare(a, b *Set) (rows []Row, failedWorse bool) {
	for _, w := range Workloads {
		var fa, aa, fb, ab int
		for _, d := range EndToEnd {
			va, f1, a1 := a.values(w.Name, d.Name)
			vb, f2, a2 := b.values(w.Name, d.Name)
			fa, aa, fb, ab = f1, a1, f2, a2
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			r := Row{Workload: w.Name, Metric: d.Name, Unit: d.Unit, Bound: d.Bound}
			r.MedA, r.Q1A, r.Q3A = summarize(va)
			r.MedB, r.Q1B, r.Q3B = summarize(vb)
			r.Worse = (r.MedB - r.MedA) / r.MedA
			if d.Better == higher {
				r.Worse = -r.Worse
			}
			r.Spread = max((r.Q3A-r.Q1A)/r.MedA, (r.Q3B-r.Q1B)/r.MedB)
			r.Verdict = verdict(va, vb, d, r.Worse, r.Spread)
			rows = append(rows, r)
		}
		if ratio(float64(fb), float64(ab)) > ratio(float64(fa), float64(aa)) {
			failedWorse = true
		}
	}
	return rows, failedWorse
}

// PrintRows writes the comparison table.
func PrintRows(w io.Writer, rows []Row) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3]\tB median [q1, q3]\tworse\tspread\tbound\tverdict")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%+.1f%%\t%.1f%%\t%.0f%%\t%s\n",
			r.Workload, r.Metric, r.Unit, r.MedA, r.Q1A, r.Q3A, r.MedB, r.Q1B, r.Q3B,
			100*r.Worse, 100*r.Spread, 100*r.Bound, r.Verdict)
	}
	return tw.Flush()
}
