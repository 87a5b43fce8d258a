package campaign

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/sass"
)

// fakeWorkload lets classification be driven without a device.
type fakeWorkload struct {
	tolerant bool
}

func (f *fakeWorkload) Name() string        { return "fake" }
func (f *fakeWorkload) Description() string { return "fake workload" }
func (f *fakeWorkload) Run(*cuda.Context) (*Output, error) {
	return NewOutput(), nil
}
func (f *fakeWorkload) Check(golden, observed *Output) bool { return f.tolerant }

func freshCtx(t *testing.T) *cuda.Context {
	t.Helper()
	dev, err := gpu.NewDevice(sass.FamilyVolta, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := cuda.NewContext(dev)
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

// poisonedCtx returns a context carrying a sticky error of the given trap
// kind.
func poisonedCtx(t *testing.T, hang bool) *cuda.Context {
	t.Helper()
	ctx := freshCtx(t)
	src := `
.kernel bad
    MOV R1, 0x4
    LDG.32 R2, [R1]
    EXIT
`
	if hang {
		src = `
.kernel bad
loop:
    BRA loop
`
		ctx.SetDefaultBudget(1000)
	}
	mod, err := ctx.LoadModule("m", src)
	if err != nil {
		t.Fatal(err)
	}
	fn, err := mod.Function("bad")
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.Launch(fn, cuda.LaunchConfig{
		Grid: gpu.Dim3{X: 1, Y: 1, Z: 1}, Block: gpu.Dim3{X: 32, Y: 1, Z: 1},
	}); err != nil {
		t.Fatal(err)
	}
	return ctx
}

func out(stdout string, files map[string][]byte, exit int) *Output {
	o := NewOutput()
	o.Stdout = stdout
	for k, v := range files {
		o.Files[k] = v
	}
	o.ExitCode = exit
	return o
}

// TestClassifyTableV drives every row of the paper's outcome table.
func TestClassifyTableV(t *testing.T) {
	golden := out("result 1.0\n", map[string][]byte{"f": {1, 2}}, 0)
	w := &fakeWorkload{}
	tests := []struct {
		name     string
		observed *Output
		runErr   error
		ctx      func(t *testing.T) *cuda.Context
		tolerant bool
		outcome  Outcome
		symptom  Symptom
		potDUE   bool
	}{
		{
			name:     "masked",
			observed: out("result 1.0\n", map[string][]byte{"f": {1, 2}}, 0),
			ctx:      freshCtx,
			outcome:  Masked, symptom: SymptomNone,
		},
		{
			name:     "stdout diff -> SDC",
			observed: out("result 2.0\n", map[string][]byte{"f": {1, 2}}, 0),
			ctx:      freshCtx,
			outcome:  SDC, symptom: SymptomStdoutDiff,
		},
		{
			name:     "file diff -> SDC",
			observed: out("result 1.0\n", map[string][]byte{"f": {1, 3}}, 0),
			ctx:      freshCtx,
			outcome:  SDC, symptom: SymptomFileDiff,
		},
		{
			name:     "diff within tolerance -> masked",
			observed: out("result 1.0000001\n", map[string][]byte{"f": {1, 2}}, 0),
			ctx:      freshCtx,
			tolerant: true,
			outcome:  Masked, symptom: SymptomNone,
		},
		{
			name:     "nonzero exit -> DUE",
			observed: out("", nil, 1),
			ctx:      freshCtx,
			outcome:  DUE, symptom: SymptomNonZeroExit,
		},
		{
			name:     "crash -> DUE",
			observed: NewOutput(),
			runErr:   errors.New("segfault"),
			ctx:      freshCtx,
			outcome:  DUE, symptom: SymptomCrash,
		},
		{
			name:     "hang -> DUE timeout",
			observed: out("result 1.0\n", map[string][]byte{"f": {1, 2}}, 0),
			ctx:      func(t *testing.T) *cuda.Context { return poisonedCtx(t, true) },
			outcome:  DUE, symptom: SymptomTimeout,
		},
		{
			name:     "masked with CUDA error -> potential DUE",
			observed: out("result 1.0\n", map[string][]byte{"f": {1, 2}}, 0),
			ctx:      func(t *testing.T) *cuda.Context { return poisonedCtx(t, false) },
			outcome:  Masked, symptom: SymptomNone, potDUE: true,
		},
		{
			name:     "SDC with CUDA error -> potential DUE",
			observed: out("garbage\n", map[string][]byte{"f": {9, 9}}, 0),
			ctx:      func(t *testing.T) *cuda.Context { return poisonedCtx(t, false) },
			outcome:  SDC, symptom: SymptomStdoutDiff, potDUE: true,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			w.tolerant = tc.tolerant
			cls := Classify(w, golden, tc.observed, tc.runErr, tc.ctx(t))
			if cls.Outcome != tc.outcome || cls.Symptom != tc.symptom || cls.PotentialDUE != tc.potDUE {
				t.Fatalf("got %+v, want outcome=%v symptom=%v potDUE=%v",
					cls, tc.outcome, tc.symptom, tc.potDUE)
			}
		})
	}
}

func TestClassificationString(t *testing.T) {
	c := Classification{Outcome: SDC, Symptom: SymptomFileDiff, PotentialDUE: true}
	s := c.String()
	if !strings.Contains(s, "SDC") || !strings.Contains(s, "output file") ||
		!strings.Contains(s, "potential DUE") {
		t.Fatalf("classification string = %q", s)
	}
}

func TestOutputEqual(t *testing.T) {
	a := out("x", map[string][]byte{"f": {1}}, 0)
	if !a.Equal(out("x", map[string][]byte{"f": {1}}, 0)) {
		t.Error("identical outputs not equal")
	}
	if a.Equal(out("y", map[string][]byte{"f": {1}}, 0)) {
		t.Error("stdout diff missed")
	}
	if a.Equal(out("x", map[string][]byte{"f": {2}}, 0)) {
		t.Error("file content diff missed")
	}
	if a.Equal(out("x", map[string][]byte{"g": {1}}, 0)) {
		t.Error("file name diff missed")
	}
	if a.Equal(out("x", map[string][]byte{"f": {1}, "g": {2}}, 0)) {
		t.Error("file count diff missed")
	}
}

func TestTally(t *testing.T) {
	tally := NewTally()
	tally.Add(Classification{Outcome: SDC})
	tally.Add(Classification{Outcome: SDC})
	tally.Add(Classification{Outcome: Masked, PotentialDUE: true})
	tally.Add(Classification{Outcome: DUE})
	if tally.N != 4 || tally.Counts[SDC] != 2 || tally.PotentialDUEs != 1 {
		t.Fatalf("tally = %+v", tally)
	}
	if tally.Fraction(SDC) != 0.5 || tally.Fraction(Masked) != 0.25 {
		t.Fatalf("fractions wrong: %+v", tally)
	}
	if !strings.Contains(tally.String(), "SDC 50.0%") {
		t.Fatalf("tally string = %q", tally.String())
	}
	empty := NewTally()
	if empty.Fraction(SDC) != 0 {
		t.Error("empty tally fraction should be 0")
	}
	// One run restored, and two exited early — a run with no checkpoint
	// before its fault starts from scratch yet may still exit.
	tally.Restored, tally.EarlyExits = 1, 2
	tally.addStratum("~", SDC)
	tally.addStratum("k:1", SDC)
	tally.addStratum("k:1", Masked)
	tally.addStratum("k:2", DUE)
	for _, tl := range []*Tally{tally, empty} {
		if err := tl.Check(); err != nil {
			t.Errorf("Check refuses a tally built by Add: %v (%+v)", err, tl)
		}
	}
}

func TestOutcomeStrings(t *testing.T) {
	if Masked.String() != "Masked" || SDC.String() != "SDC" || DUE.String() != "DUE" {
		t.Error("outcome names wrong")
	}
	for s := SymptomNone; s <= SymptomNonZeroExit; s++ {
		if strings.Contains(s.String(), "Symptom(") {
			t.Errorf("symptom %d has no name", s)
		}
	}
}
