// Package campaign orchestrates fault-injection experiments end-to-end:
// golden runs, per-run outcome classification against the paper's taxonomy
// (Table V: SDC, DUE, Masked, Potential DUE), hang detection via an
// instruction-budget monitor, and whole campaigns — N transient injections
// from a profile, or one permanent fault per executed opcode with
// dynamic-instruction weighting (Figures 2 and 3).
package campaign

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"sort"

	"repro/internal/cuda"
)

// Output is a workload's observable result: the standard output text, the
// produced output files, and the process exit code — the three channels the
// paper's outcome determination compares against the golden run.
type Output struct {
	Stdout   string
	Files    map[string][]byte
	ExitCode int
}

// NewOutput returns an empty output ready for use.
func NewOutput() *Output {
	return &Output{Files: make(map[string][]byte)}
}

// Printf appends formatted text to the simulated standard output.
func (o *Output) Printf(format string, args ...any) {
	o.Stdout += fmt.Sprintf(format, args...)
}

// Equal reports byte-exact equality of stdout and all files.
func (o *Output) Equal(other *Output) bool {
	if o.Stdout != other.Stdout || len(o.Files) != len(other.Files) {
		return false
	}
	for name, data := range o.Files {
		od, ok := other.Files[name]
		if !ok || string(od) != string(data) {
			return false
		}
	}
	return true
}

// Digest returns a hex SHA-256 over the output's three observable channels
// — stdout, the output files (in name order), and the exit code — with
// length framing so distinct outputs cannot collide by concatenation. Two
// outputs are Equal if and only if their digests match, which is what lets
// a campaign coordinator hand workers a golden digest instead of the full
// golden output: a worker whose locally computed golden run digests
// differently has diverged from the submitting coordinator and must not
// classify experiments against it.
func (o *Output) Digest() string {
	h := sha256.New()
	var n [8]byte
	put := func(b []byte) {
		binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	put([]byte(o.Stdout))
	names := make([]string, 0, len(o.Files))
	for name := range o.Files {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		put([]byte(name))
		put(o.Files[name])
	}
	binary.LittleEndian.PutUint64(n[:], uint64(int64(o.ExitCode)))
	h.Write(n[:])
	return hex.EncodeToString(h.Sum(nil))
}

// Workload is one benchmark program: it runs against a CUDA context and
// produces an Output, and it knows how to judge whether an observed output
// constitutes an SDC relative to the golden output (the paper's
// user-provided "SDC checking script", with program-specific tolerances).
type Workload interface {
	// Name returns the program name, e.g. "303.ostencil".
	Name() string
	// Description is a one-line summary (Table IV's description column).
	Description() string
	// Run executes the program on a fresh context. A returned error is the
	// analog of a process crash; an Output with nonzero ExitCode is the
	// analog of application-detected failure.
	Run(ctx *cuda.Context) (*Output, error)
	// Check reports whether observed matches golden closely enough that no
	// SDC occurred. It is only consulted when the runs are not byte-equal.
	Check(golden, observed *Output) bool
}

// Outcome is the error-propagation outcome class (Table V).
type Outcome uint8

// Outcomes. PotentialDUE is tracked as a flag on SDC/Masked runs and also
// exposed as its own category for reporting.
const (
	Masked Outcome = iota + 1
	SDC
	DUE
)

func (o Outcome) String() string {
	switch o {
	case Masked:
		return "Masked"
	case SDC:
		return "SDC"
	case DUE:
		return "DUE"
	default:
		return fmt.Sprintf("Outcome(%d)", uint8(o))
	}
}

// Symptom is the detection channel behind an outcome (Table V's Symptom
// column).
type Symptom uint8

// Symptoms.
const (
	SymptomNone         Symptom = iota
	SymptomStdoutDiff           // SDC: standard output is different
	SymptomFileDiff             // SDC: output file is different
	SymptomAppCheckFail         // SDC: application-specific check failed
	SymptomTimeout              // DUE: hang caught by the monitor
	SymptomCrash                // DUE: process crash (OS detection)
	SymptomNonZeroExit          // DUE: non-zero exit status (application detection)
)

func (s Symptom) String() string {
	switch s {
	case SymptomNone:
		return "no difference detected"
	case SymptomStdoutDiff:
		return "standard output is different"
	case SymptomFileDiff:
		return "output file is different"
	case SymptomAppCheckFail:
		return "application-specific check failed"
	case SymptomTimeout:
		return "timeout, indicating a hang (monitor detection)"
	case SymptomCrash:
		return "process crash (OS detection)"
	case SymptomNonZeroExit:
		return "non-zero exit status (application detection)"
	default:
		return fmt.Sprintf("Symptom(%d)", uint8(s))
	}
}

// Classification is the full outcome of one injection run.
type Classification struct {
	Outcome Outcome
	Symptom Symptom
	// PotentialDUE marks an SDC or Masked run during which an unhandled
	// anomaly was recorded — a sticky CUDA error the application never
	// acted on, or a device-log ("dmesg") event. The paper counts these
	// runs as their underlying SDC/Masked outcome, which this package
	// also does; the flag preserves the distinction.
	PotentialDUE bool
	// CUDAError is the sticky context error, if any.
	CUDAError cuda.Error
	// DeviceLogEvents counts device-log entries emitted during the run.
	DeviceLogEvents int32
}

// String renders e.g. "SDC (output file is different) [potential DUE]".
func (c Classification) String() string {
	s := fmt.Sprintf("%v (%v)", c.Outcome, c.Symptom)
	if c.PotentialDUE {
		s += " [potential DUE]"
	}
	return s
}

// Classify applies Table V to one completed run.
//
//   - runErr non-nil: the process crashed → DUE.
//   - a hang trap (instruction budget) → DUE via monitor timeout.
//   - nonzero exit code → DUE via application detection.
//   - stdout/file difference not accepted by the workload check → SDC.
//   - otherwise Masked.
//   - SDC/Masked with an unconsumed CUDA error or device-log event is
//     flagged as a potential DUE.
func Classify(w Workload, golden, observed *Output, runErr error, ctx *cuda.Context) Classification {
	cls := Classification{
		CUDAError:       ctx.LastError(),
		DeviceLogEvents: int32(len(ctx.DeviceLog())),
	}
	if runErr != nil {
		cls.Outcome, cls.Symptom = DUE, SymptomCrash
		return cls
	}
	if t := ctx.StickyTrap(); t != nil && t.IsHang() {
		cls.Outcome, cls.Symptom = DUE, SymptomTimeout
		return cls
	}
	if observed.ExitCode != 0 {
		cls.Outcome, cls.Symptom = DUE, SymptomNonZeroExit
		return cls
	}
	anomaly := cls.CUDAError != cuda.Success || cls.DeviceLogEvents > 0
	if observed.Equal(golden) {
		cls.Outcome, cls.Symptom = Masked, SymptomNone
		cls.PotentialDUE = anomaly
		return cls
	}
	// Outputs differ; ask the program-specific check whether the deviation
	// is within tolerance.
	if w.Check(golden, observed) {
		cls.Outcome, cls.Symptom = Masked, SymptomNone
		cls.PotentialDUE = anomaly
		return cls
	}
	cls.Outcome = SDC
	switch {
	case observed.Stdout != golden.Stdout:
		cls.Symptom = SymptomStdoutDiff
	default:
		cls.Symptom = SymptomFileDiff
	}
	if !filesEqual(golden, observed) && observed.Stdout == golden.Stdout {
		cls.Symptom = SymptomFileDiff
	}
	cls.PotentialDUE = anomaly
	return cls
}

func filesEqual(a, b *Output) bool {
	if len(a.Files) != len(b.Files) {
		return false
	}
	for name, data := range a.Files {
		od, ok := b.Files[name]
		if !ok || string(od) != string(data) {
			return false
		}
	}
	return true
}

// Tally counts outcomes over a set of runs.
type Tally struct {
	N             int
	Counts        map[Outcome]int
	PotentialDUEs int
	NotActivated  int // transient runs whose fault never activated
	// Restored counts checkpointed experiments that started from a
	// mid-trajectory snapshot instead of re-executing their golden prefix.
	Restored int
	// EarlyExits counts checkpointed experiments whose state digest
	// re-converged with the golden trajectory, settling their tail from the
	// recording.
	EarlyExits int
	// Strata holds per-stratum outcome counts when the campaign runs with
	// adaptive stratified sampling (TargetCI > 0). Sorted by Key; empty and
	// omitted from the encoding otherwise.
	Strata []StratumTally
}

// StratumTally is one stratum's outcome counts within a tally: experiments
// whose injection site falls in one fault-equivalence class (key
// "kernel:classID") or in the residual stratum of unclassable sites (key
// "~").
type StratumTally struct {
	Key    string `json:"key"`
	N      int    `json:"n"`
	SDC    int    `json:"sdc,omitempty"`
	DUE    int    `json:"due,omitempty"`
	Masked int    `json:"masked,omitempty"`
}

// NewTally returns an empty tally.
func NewTally() *Tally {
	return &Tally{Counts: make(map[Outcome]int)}
}

// Add records one classification.
func (t *Tally) Add(c Classification) {
	t.N++
	t.Counts[c.Outcome]++
	if c.PotentialDUE {
		t.PotentialDUEs++
	}
}

// stratumAt finds or inserts the stratum with the given key, keeping
// t.Strata sorted so two tallies over the same runs encode identically
// regardless of accumulation order.
func (t *Tally) stratumAt(key string) *StratumTally {
	i := sort.Search(len(t.Strata), func(i int) bool { return t.Strata[i].Key >= key })
	if i == len(t.Strata) || t.Strata[i].Key != key {
		t.Strata = append(t.Strata, StratumTally{})
		copy(t.Strata[i+1:], t.Strata[i:])
		t.Strata[i] = StratumTally{Key: key}
	}
	return &t.Strata[i]
}

// addStratum records one outcome in the named stratum.
func (t *Tally) addStratum(key string, o Outcome) {
	s := t.stratumAt(key)
	s.N++
	switch o {
	case SDC:
		s.SDC++
	case DUE:
		s.DUE++
	case Masked:
		s.Masked++
	}
}

// Fraction returns the share of an outcome in [0,1].
func (t *Tally) Fraction(o Outcome) float64 {
	if t.N == 0 {
		return 0
	}
	return float64(t.Counts[o]) / float64(t.N)
}

// String renders "SDC 32.5% DUE 4.2% Masked 63.3%".
func (t *Tally) String() string {
	return fmt.Sprintf("SDC %.1f%% DUE %.1f%% Masked %.1f%%",
		100*t.Fraction(SDC), 100*t.Fraction(DUE), 100*t.Fraction(Masked))
}

// Merge folds another tally into this one. Every Tally field is an additive
// per-run counter, so merging per-shard tallies in any order reproduces the
// tally a single process would have computed over the union of the runs —
// the identity the campaign service's coordinator relies on.
func (t *Tally) Merge(o *Tally) {
	if o == nil {
		return
	}
	t.N += o.N
	for outcome, n := range o.Counts {
		t.Counts[outcome] += n
	}
	t.PotentialDUEs += o.PotentialDUEs
	t.NotActivated += o.NotActivated
	t.Restored += o.Restored
	t.EarlyExits += o.EarlyExits
	for _, os := range o.Strata {
		s := t.stratumAt(os.Key)
		s.N += os.N
		s.SDC += os.SDC
		s.DUE += os.DUE
		s.Masked += os.Masked
	}
}

// Check reports whether the tally's counters agree with one another the way
// every tally built by Add and Merge does: no counter is negative, the outcome
// counts sum to N, the strata (when present) sum to N, and Restored and
// EarlyExits each count at most N runs. EarlyExits is not bounded by
// Restored: a checkpointed run with no usable checkpoint before its fault
// starts from scratch yet still probes for re-convergence, so it can exit
// early without being restored. A tally that fails Check did not come from classifying runs
// — the campaign service refuses such a shard result rather than merging it.
func (t *Tally) Check() error {
	counters := []int{t.N, t.PotentialDUEs, t.NotActivated, t.Restored, t.EarlyExits}
	outcomes := 0
	for _, n := range t.Counts {
		counters = append(counters, n)
		outcomes += n
	}
	strata := 0
	for _, s := range t.Strata {
		counters = append(counters, s.N, s.SDC, s.DUE, s.Masked)
		strata += s.N
	}
	for _, n := range counters {
		if n < 0 {
			return fmt.Errorf("campaign: tally holds a negative count (%d)", n)
		}
	}
	switch {
	case outcomes != t.N:
		return fmt.Errorf("campaign: tally outcome counts sum to %d, N is %d", outcomes, t.N)
	case len(t.Strata) > 0 && strata != t.N:
		return fmt.Errorf("campaign: tally strata sum to %d, N is %d", strata, t.N)
	case max(t.Restored, t.EarlyExits) > t.N:
		return fmt.Errorf("campaign: tally has %d restored runs and %d early exits of %d", t.Restored, t.EarlyExits, t.N)
	}
	return nil
}

// TallySchema versions the stable JSON encoding of Tally. The same encoding
// is used by the campaign service API, the JSON run summary, and the
// benchmark tooling, so a consumer can check one field to know the shape.
const TallySchema = "nvbitfi.tally/v1"

// tallyJSON is the wire form: fixed field order, outcome counts flattened
// out of the map so the encoding is byte-stable across processes.
type tallyJSON struct {
	Schema        string `json:"schema"`
	N             int    `json:"n"`
	SDC           int    `json:"sdc"`
	DUE           int    `json:"due"`
	Masked        int    `json:"masked"`
	PotentialDUEs int    `json:"potential_dues"`
	NotActivated  int    `json:"not_activated"`
	// Pruned is always written as 0 and ignored on decode; the key stays so
	// every nvbitfi.tally/v1 document keeps its bytes.
	Pruned     int `json:"pruned"`
	Restored   int `json:"restored"`
	EarlyExits int `json:"early_exits"`
	// Strata is omitted when empty so fixed-count campaigns keep their
	// pre-existing byte encoding; adaptive campaigns populate it.
	Strata []StratumTally `json:"strata,omitempty"`
}

// MarshalJSON renders the stable, schema-versioned encoding. Two tallies
// with equal counts marshal to identical bytes.
func (t *Tally) MarshalJSON() ([]byte, error) {
	return json.Marshal(tallyJSON{
		Schema:        TallySchema,
		N:             t.N,
		SDC:           t.Counts[SDC],
		DUE:           t.Counts[DUE],
		Masked:        t.Counts[Masked],
		PotentialDUEs: t.PotentialDUEs,
		NotActivated:  t.NotActivated,
		Restored:      t.Restored,
		EarlyExits:    t.EarlyExits,
		Strata:        t.Strata,
	})
}

// UnmarshalJSON accepts the versioned encoding (and, leniently, documents
// written before the schema field existed).
func (t *Tally) UnmarshalJSON(b []byte) error {
	var w tallyJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	if w.Schema != "" && w.Schema != TallySchema {
		return fmt.Errorf("campaign: unsupported tally schema %q (want %q)", w.Schema, TallySchema)
	}
	t.N = w.N
	t.Counts = map[Outcome]int{}
	if w.SDC != 0 {
		t.Counts[SDC] = w.SDC
	}
	if w.DUE != 0 {
		t.Counts[DUE] = w.DUE
	}
	if w.Masked != 0 {
		t.Counts[Masked] = w.Masked
	}
	t.PotentialDUEs = w.PotentialDUEs
	t.NotActivated = w.NotActivated
	t.Restored = w.Restored
	t.EarlyExits = w.EarlyExits
	t.Strata = w.Strata
	return nil
}
