package sass

import (
	"fmt"
	"testing"
)

// TestFaultTargets pins the destination expansion's rules: pairs, wide loads
// (LDC included), predicates, and the RZ / PT exclusions and wrap.
func TestFaultTargets(t *testing.T) {
	for _, tc := range []struct {
		src  string
		want string
	}{
		{"IADD R3, R1, R2", "[R3]"},
		{"DADD R4, R6, R8", "[R4 R5]"},
		{"LDG.64 R8, [R2]", "[R8 R9]"},
		{"LDG.128 R254, [R2]", "[R254 R0 R1]"},
		{"LDC.64 R2, c0[0x10]", "[R2 R3]"},
		{"ISETP.LT.AND P1, R1, R2, PT", "[P1]"},
		{"ISETP.LT.AND PT, R1, R2, PT", "[]"},
		{"IADD RZ, R1, R2", "[]"},
		{"STG.32 [R2], R1", "[]"},
	} {
		p, err := Assemble("t", ".kernel k\n    "+tc.src+"\n    EXIT\n")
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		var buf FaultTargetBuf
		if got := fmtTargets(p.Kernels[0].Instrs[0].FaultTargets(buf[:0])); got != tc.want {
			t.Errorf("%s: targets %s, want %s", tc.src, got, tc.want)
		}
	}
}

func fmtTargets(ts []FaultTarget) string {
	s := make([]string, len(ts))
	for i, t := range ts {
		s[i] = t.String()
	}
	return fmt.Sprint(s)
}

// TestOpSet: membership is by opcode, over the whole table.
func TestOpSet(t *testing.T) {
	var s OpSet
	ops := []Op{1, 63, 64, Op(NumOpcodes())}
	for _, op := range ops {
		s.Add(op)
	}
	for op := Op(1); int(op) <= NumOpcodes(); op++ {
		want := op == 1 || op == 63 || op == 64 || int(op) == NumOpcodes()
		if s.Has(op) != want {
			t.Errorf("Has(%v) = %v, want %v", op, s.Has(op), want)
		}
	}
	if s.Has(Op(64 * len(s))) {
		t.Error("an opcode past the set is a member")
	}
}
