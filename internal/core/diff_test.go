package core

import (
	"strings"
	"testing"

	"repro/internal/sass"
)

func TestDiffProfilesIdentical(t *testing.T) {
	a := sampleProfile()
	d := DiffProfiles(a, sampleProfile(), sass.GroupGPPR)
	if d.TotalA != d.TotalB || d.MaxRelDelta() != 0 || d.TotalRelDelta() != 0 {
		t.Fatalf("identical profiles diff: %+v", d)
	}
	if len(d.OnlyA) != 0 || len(d.OnlyB) != 0 {
		t.Fatalf("phantom kernels: %+v", d)
	}
	if len(d.Kernels) != 3 {
		t.Fatalf("kernel comparisons = %d", len(d.Kernels))
	}
}

func TestDiffProfilesDeviation(t *testing.T) {
	a := sampleProfile()
	b := sampleProfile()
	// Halve the second k1 instance's FADD count in b and drop k2,
	// adding an extra kernel only b saw.
	b.Records[2].OpCounts = []OpCount{{Op: sass.MustOp("FADD"), Count: 50}}
	b.Records = append(b.Records[:1], b.Records[2])
	b.Records = append(b.Records, KernelRecord{
		Kernel: "k3", LaunchIndex: 0,
		OpCounts: []OpCount{{Op: sass.MustOp("MOV"), Count: 5}},
	})

	d := DiffProfiles(a, b, sass.GroupFP32)
	if len(d.OnlyA) != 1 || !strings.Contains(d.OnlyA[0], "k2") {
		t.Fatalf("OnlyA = %v", d.OnlyA)
	}
	if len(d.OnlyB) != 1 || !strings.Contains(d.OnlyB[0], "k3") {
		t.Fatalf("OnlyB = %v", d.OnlyB)
	}
	if d.MaxRelDelta() != 0.5 {
		t.Fatalf("max relative delta = %v, want 0.5", d.MaxRelDelta())
	}

	var sb strings.Builder
	if err := d.WriteReport(&sb, 0.01); err != nil {
		t.Fatal(err)
	}
	rep := sb.String()
	for _, want := range []string{"k1/1", "only in A: k2/0", "only in B: k3/0"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestKernelDiffRelDelta(t *testing.T) {
	tests := []struct {
		a, b uint64
		want float64
	}{
		{0, 0, 0},
		{10, 10, 0},
		{10, 5, 0.5},
		{5, 10, 0.5},
		{0, 7, 1},
		{7, 0, 1},
	}
	for _, tc := range tests {
		if got := (KernelDiff{A: tc.a, B: tc.b}).RelDelta(); got != tc.want {
			t.Errorf("RelDelta(%d,%d) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}
