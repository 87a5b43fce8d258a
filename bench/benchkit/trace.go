package benchkit

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Span is one timed interval at a layer boundary. Spans of one experiment
// share Exp; Parent is the span that caused this one (-1 for a root).
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Exp    int    `json:"exp"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Armed marks a launch span whose kernel ran instrumented.
	Armed bool `json:"armed,omitempty"`
}

func (s Span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanBuf records one experiment's spans. It is used by one goroutine; the
// buffers of a repetition are merged when it ends, so recording takes no
// lock. Spans stay in memory until the run writes them out.
type spanBuf struct {
	epoch time.Time
	exp   int
	spans []Span
}

// begin opens a span under parent (-1 for a root) and returns its id.
func (b *spanBuf) begin(name string, parent int) int {
	id := len(b.spans)
	b.spans = append(b.spans, Span{ID: id, Parent: parent, Exp: b.exp, Name: name, Start: int64(time.Since(b.epoch))})
	return id
}

// end closes a span.
func (b *spanBuf) end(id int) { b.spans[id].End = int64(time.Since(b.epoch)) }

// mergeSpans concatenates per-experiment buffers into one list with global
// ids, keeping every parent link inside its own experiment.
func mergeSpans(bufs []*spanBuf) []Span {
	var all []Span
	for _, b := range bufs {
		base := len(all)
		for _, s := range b.spans {
			s.ID += base
			if s.Parent >= 0 {
				s.Parent += base
			}
			all = append(all, s)
		}
	}
	return all
}

// selfTimes returns each span's duration minus the part its children cover,
// indexed by span id.
func selfTimes(spans []Span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// checkSpans verifies the tree is well formed: every child lies inside its
// parent and shares its experiment id, and no self time is negative.
func checkSpans(spans []Span) error {
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d %s is not inside its parent %d %s", s.ID, s.Name, p.ID, p.Name)
		}
		if s.Exp != p.Exp {
			return fmt.Errorf("span %d %s has experiment %d, its parent %d", s.ID, s.Name, s.Exp, p.Exp)
		}
	}
	for id, d := range selfTimes(spans) {
		if d < 0 {
			return fmt.Errorf("span %d %s has negative self time %v", id, spans[id].Name, d)
		}
	}
	return nil
}

// spanDurs returns the durations of every span with the given name.
func spanDurs(spans []Span, name string) []float64 {
	var ds []float64
	for _, s := range spans {
		if s.Name == name {
			ds = append(ds, float64(s.dur()))
		}
	}
	return ds
}

// medianSpan is the median duration of the spans with the given name.
func medianSpan(spans []Span, name string) time.Duration {
	return time.Duration(median(spanDurs(spans, name)))
}

// traceFile is bench/out/trace-<workload>.json.
type traceFile struct {
	Workload string    `json:"workload"`
	Env      Env       `json:"env"`
	Spans    []Span    `json:"spans"`
	Fig4     []Fig4Row `json:"fig4"`
}

func writeTrace(o Options, rep *Report, spans []Span) error {
	dir, err := outDir(o)
	if err != nil {
		return err
	}
	b, err := json.Marshal(traceFile{Workload: rep.Workload, Env: rep.Env, Spans: spans, Fig4: rep.Fig4})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+rep.Workload+".json"), append(b, '\n'), 0o644)
}
