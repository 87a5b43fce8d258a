package faultmodel

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sass"
)

// TestRegistry: the registry holds exactly the five models, Lookup resolves
// the empty name to the default, and unknown names fail with the inventory.
func TestRegistry(t *testing.T) {
	want := []string{"memfault", "opsub", "predflip", "stuck", "transient"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	m, err := Lookup("")
	if err != nil || m.Name() != DefaultName {
		t.Fatalf("Lookup(\"\") = %v, %v; want the default model", m, err)
	}
	for _, name := range want {
		m, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if m.Name() != name {
			t.Fatalf("Lookup(%q).Name() = %q", name, m.Name())
		}
		if m.Description() == "" {
			t.Fatalf("model %q has no description", name)
		}
	}
	if _, err := Lookup("nosuch"); err == nil || !strings.Contains(err.Error(), "unknown model") {
		t.Fatalf("Lookup(nosuch) = %v, want unknown-model error", err)
	}
}

// TestCapsMatrix: the transient destination flip supports every acceleration;
// every other model supports none — the soundness boundary the campaign layer
// enforces.
func TestCapsMatrix(t *testing.T) {
	all := CapCheckpoint | CapEarlyExit | CapCertainStrata
	tr, _ := Lookup(DefaultName)
	if tr.Caps() != all {
		t.Fatalf("transient caps = %b, want all", tr.Caps())
	}
	for _, name := range []string{"stuck", "opsub", "predflip", "memfault"} {
		m, _ := Lookup(name)
		if m.Caps() != 0 {
			t.Fatalf("%s caps = %b, want none", name, m.Caps())
		}
		if m.Caps().Has(CapCheckpoint) || m.Caps().Has(CapCertainStrata) {
			t.Fatalf("%s claims a destination-flip acceleration", name)
		}
	}
	if !all.Has(CapCheckpoint | CapCertainStrata) {
		t.Fatal("Caps.Has rejects a present subset")
	}
	if Caps(0).Has(CapCheckpoint) {
		t.Fatal("Caps.Has accepts an absent capability")
	}
}

// TestEligibility: each model's opcode filter matches its physics.
func TestEligibility(t *testing.T) {
	iadd := sass.MustOp("IADD3")
	isetp := sass.MustOp("ISETP")
	ldg := sass.MustOp("LDG")
	stg := sass.MustOp("STG")
	cases := []struct {
		model string
		op    sass.Op
		want  bool
	}{
		{"transient", stg, true}, // scoped by group, not by the model
		{"stuck", iadd, true},
		{"stuck", stg, false}, // no destination to stick
		{"opsub", iadd, true},
		{"opsub", isetp, false}, // no GP destination to substitute into
		{"opsub", ldg, false},   // loads have no substitutable ALU semantic
		{"predflip", isetp, true},
		{"predflip", iadd, false}, // writes no predicate
		{"memfault", ldg, true},
		{"memfault", stg, false}, // arms at loads only
	}
	for _, tc := range cases {
		m, _ := Lookup(tc.model)
		if got := m.EligibleOp(tc.op); got != tc.want {
			t.Errorf("%s.EligibleOp(%v) = %v, want %v", tc.model, tc.op, got, tc.want)
		}
	}
}

// TestValidateParam: each model's parameter vocabulary fails fast on typos,
// out-of-range values, and malformed strings.
func TestValidateParam(t *testing.T) {
	cases := []struct {
		model, param string
		ok           bool
	}{
		{"transient", "", true},
		{"transient", "value=1", false}, // no parameters at all
		{"opsub", "", true},
		{"opsub", "weighted=1", false},
		{"stuck", "", true},
		{"stuck", "value=0", true},
		{"stuck", "value=1,bit=17", true},
		{"stuck", "value=2", false},
		{"stuck", "bit=32", false},
		{"stuck", "p=0.25", true},
		{"stuck", "p=1.5", false},
		{"stuck", "burst=4/64", true},
		{"stuck", "burst=64/4", false},        // LEN > PERIOD
		{"stuck", "burst=x/4", false},         // not numbers
		{"stuck", "p=0.25,burst=4/64", false}, // gates are mutually exclusive
		{"stuck", "value", false},             // not key=value
		{"stuck", "bit=3,bit=4", false},       // duplicate key
		{"stuck", "lane=3", false},            // unknown key
		{"predflip", "", true},
		{"predflip", "guard=1", false}, // no guard mode: no instruction it selects carries a guard
		{"predflip", "guard=0", false},
		{"memfault", "", true},
		{"memfault", "value=0,bit=7", true},
		{"memfault", "bit=40", false},
		{"memfault", "p=0.5", false},
	}
	for _, tc := range cases {
		m, err := Lookup(tc.model)
		if err != nil {
			t.Fatal(err)
		}
		err = m.ValidateParam(tc.param)
		if (err == nil) != tc.ok {
			t.Errorf("%s.ValidateParam(%q) = %v, want ok=%v", tc.model, tc.param, err, tc.ok)
		}
	}
}

// TestParamHashDeterminism: the coordinate derivation is a pure function of
// the tuple's discrete identity — equal tuples hash equal, any identity field
// change moves the hash.
func TestParamHashDeterminism(t *testing.T) {
	base := core.TransientParams{
		KernelName: "k", KernelCount: 2, InstrCount: 100,
		SiteResolved: true, StaticInstrIdx: 7,
	}
	if paramHash(base) != paramHash(base) {
		t.Fatal("paramHash is not deterministic")
	}
	variants := []core.TransientParams{base, base, base, base}
	variants[1].KernelName = "k2"
	variants[2].KernelCount = 3
	variants[3].StaticInstrIdx = 8
	seen := map[uint64]int{}
	for i, v := range variants {
		h := paramHash(v)
		if j, dup := seen[h]; dup {
			t.Fatalf("variants %d and %d collide (%#x)", j, i, h)
		}
		seen[h] = i
	}
	// The unit floats must NOT move the hash: they map onto coordinates
	// directly, and the hash seeds the streams that complement them.
	moved := base
	moved.DestRegSelect = 0.9
	if paramHash(moved) != paramHash(base) {
		t.Fatal("paramHash depends on the unit floats")
	}
}

// TestSplitmix64: the mixer matches the reference splitmix64 sequence shape —
// distinct inputs, distinct well-mixed outputs, zero maps away from zero.
func TestSplitmix64(t *testing.T) {
	seen := map[uint64]bool{}
	for i := uint64(0); i < 1000; i++ {
		v := splitmix64(i)
		if seen[v] {
			t.Fatalf("splitmix64 collision at input %d", i)
		}
		seen[v] = true
	}
	if splitmix64(0) == 0 {
		t.Fatal("splitmix64(0) = 0")
	}
}

// TestInjectorRequiresSiteResolution: model injectors refuse parameter tuples
// that were not site-resolved — they cannot locate a static instruction.
func TestInjectorRequiresSiteResolution(t *testing.T) {
	env := Env{Family: sass.FamilyVolta, NumSMs: 4, Kernels: map[string]*sass.Kernel{}}
	p := core.TransientParams{KernelName: "k"} // SiteResolved false
	for _, name := range []string{"stuck", "opsub", "predflip", "memfault"} {
		m, _ := Lookup(name)
		if _, err := m.NewInjector(p, "", env); err == nil {
			t.Errorf("%s.NewInjector accepted non-site-resolved params", name)
		}
	}
}
