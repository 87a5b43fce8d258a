package core

import (
	"cmp"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sass"
)

// opCounts builds a record's OpCounts from a map, in ascending opcode order.
func opCounts(m map[sass.Op]uint64) []OpCount {
	var c []OpCount
	for op, n := range m {
		c = append(c, OpCount{Op: op, Count: n})
	}
	slices.SortFunc(c, func(a, b OpCount) int { return cmp.Compare(a.Op, b.Op) })
	return c
}

func sampleProfile() *Profile {
	return &Profile{
		Program: "prog",
		Mode:    Exact,
		Records: []KernelRecord{
			{
				Kernel: "k1", LaunchIndex: 0,
				OpCounts: opCounts(map[sass.Op]uint64{
					sass.MustOp("FADD"):  100,
					sass.MustOp("IADD"):  50,
					sass.MustOp("LDG"):   30,
					sass.MustOp("ISETP"): 20,
					sass.MustOp("STG"):   30,
					sass.MustOp("EXIT"):  10,
				}),
			},
			{
				Kernel: "k2", LaunchIndex: 0,
				OpCounts: opCounts(map[sass.Op]uint64{
					sass.MustOp("DADD"): 40,
					sass.MustOp("DMUL"): 60,
				}),
			},
			{
				Kernel: "k1", LaunchIndex: 1,
				OpCounts: opCounts(map[sass.Op]uint64{
					sass.MustOp("FADD"): 100,
				}),
			},
		},
	}
}

func TestProfileTotals(t *testing.T) {
	p := sampleProfile()
	tests := []struct {
		g    sass.Group
		want uint64
	}{
		{sass.GroupFP32, 200},  // FADD in both k1 instances
		{sass.GroupFP64, 100},  // DADD + DMUL
		{sass.GroupLD, 30},     // LDG
		{sass.GroupPR, 20},     // ISETP
		{sass.GroupNODEST, 40}, // STG + EXIT
		{sass.GroupOTHERS, 50}, // IADD
		{sass.GroupGPPR, 400},  // all - NODEST
		{sass.GroupGP, 380},    // all - NODEST - PR
	}
	for _, tc := range tests {
		if got := p.TotalInstrs(tc.g); got != tc.want {
			t.Errorf("TotalInstrs(%v) = %d, want %d", tc.g, got, tc.want)
		}
	}
	if got := len(p.ExecutedOpcodes()); got != 8 {
		t.Errorf("executed opcodes = %d, want 8", got)
	}
	if got := p.StaticKernels(); len(got) != 2 || got[0] != "k1" || got[1] != "k2" {
		t.Errorf("static kernels = %v", got)
	}
	if p.DynamicKernels() != 3 {
		t.Errorf("dynamic kernels = %d", p.DynamicKernels())
	}
	totals := p.OpcodeTotals()
	if totals[sass.MustOp("FADD")] != 200 {
		t.Errorf("FADD total = %d", totals[sass.MustOp("FADD")])
	}
}

func TestProfileSerializeParseRoundTrip(t *testing.T) {
	p := sampleProfile()
	text := p.String()
	got, err := ParseProfile(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, text)
	}
	if got.Program != p.Program || got.Mode != p.Mode || len(got.Records) != len(p.Records) {
		t.Fatalf("header mismatch: %+v", got)
	}
	for i := range p.Records {
		a, b := p.Records[i], got.Records[i]
		if a.Kernel != b.Kernel || a.LaunchIndex != b.LaunchIndex || !slices.Equal(a.OpCounts, b.OpCounts) {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, a, b)
		}
	}
}

// TestProfileRoundTripRandom: random profiles survive the text format, and a
// record line written by hand with its opcodes in any order parses to
// ascending OpCounts, so that writing it back out is canonical.
func TestProfileRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ops := sass.OpcodeSet(sass.FamilyVolta)
	ascending := func(a, b OpCount) int { return cmp.Compare(a.Op, b.Op) }
	for trial := 0; trial < 100; trial++ {
		p := &Profile{Program: "r", Mode: ProfileMode(1 + rng.Intn(2))}
		var shuffled strings.Builder
		shuffled.WriteString("# program: r\n# mode: " + p.Mode.String() + "\n")
		for k := 0; k < 1+rng.Intn(5); k++ {
			m := map[sass.Op]uint64{}
			for j := 0; j < rng.Intn(10); j++ {
				m[ops[rng.Intn(len(ops))]] = uint64(rng.Intn(1 << 30))
			}
			rec := KernelRecord{
				Kernel:      "kern" + string(rune('a'+rng.Intn(3))),
				LaunchIndex: k,
				OpCounts:    opCounts(m),
			}
			p.Records = append(p.Records, rec)
			shuffled.WriteString(rec.Kernel + "; " + strconv.Itoa(k) + ";")
			for _, i := range rng.Perm(len(rec.OpCounts)) {
				c := rec.OpCounts[i]
				shuffled.WriteString(" " + c.Op.String() + "=" + strconv.FormatUint(c.Count, 10))
			}
			shuffled.WriteString("\n")
		}
		text := p.String()
		got, err := ParseProfile(strings.NewReader(text))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, g := range sass.PrimaryGroups() {
			if got.TotalInstrs(g) != p.TotalInstrs(g) {
				t.Fatalf("trial %d: group %v totals differ", trial, g)
			}
		}
		hand, err := ParseProfile(strings.NewReader(shuffled.String()))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range hand.Records {
			if !slices.IsSortedFunc(hand.Records[i].OpCounts, ascending) {
				t.Fatalf("trial %d record %d: OpCounts not ascending: %v", trial, i, hand.Records[i].OpCounts)
			}
		}
		if got.String() != text || hand.String() != text {
			t.Fatalf("trial %d: parse then write is not canonical:\n%s\n%s\nwant\n%s", trial, got, hand, text)
		}
	}
}

func TestParseProfileErrors(t *testing.T) {
	bad := []string{
		"k1; x; FADD=1",        // bad launch index
		"k1; 0; NOTANOP=1",     // unknown opcode
		"k1; 0; FADD",          // missing count
		"k1; 0; FADD=zz",       // bad count
		"justonefield",         // missing separators
		"# mode: sometimes\n",  // bad mode
		"k1; 0; FADD=1 FADD=2", // opcode counted twice
	}
	for _, text := range bad {
		if _, err := ParseProfile(strings.NewReader(text)); err == nil {
			t.Errorf("ParseProfile(%q) succeeded", text)
		}
	}
	_, err := ParseProfile(strings.NewReader("# mode: exact\nk1; 0; FADD=1 IADD=3 FADD=2\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), "FADD") {
		t.Errorf("repeated opcode: error %v, want one naming line 2 and FADD", err)
	}
	// Comments and blank lines are fine.
	ok := "# program: x\n# mode: exact\n\n# a comment\nk1; 0; FADD=3\n"
	p, err := ParseProfile(strings.NewReader(ok))
	if err != nil || len(p.Records) != 1 {
		t.Fatalf("benign profile rejected: %v", err)
	}
}

func TestProfileSitesRoundTrip(t *testing.T) {
	p := siteProfile()
	got, err := ParseProfile(strings.NewReader(p.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(p.Records) {
		t.Fatalf("records = %d, want %d", len(got.Records), len(p.Records))
	}
	for i := range p.Records {
		want, g := &p.Records[i], &got.Records[i]
		if !g.HasSites() || len(g.SiteCounts) != len(want.SiteCounts) {
			t.Fatalf("record %d lost site data: %+v", i, g)
		}
		for j := range want.SiteCounts {
			if g.SiteOps[j] != want.SiteOps[j] || g.SiteCounts[j] != want.SiteCounts[j] {
				t.Fatalf("record %d site %d: got %v=%d, want %v=%d", i, j,
					g.SiteOps[j], g.SiteCounts[j], want.SiteOps[j], want.SiteCounts[j])
			}
		}
	}
}
