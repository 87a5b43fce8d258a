package sassan

import (
	"reflect"
	"testing"
)

func TestBlockPredsAndRPO(t *testing.T) {
	k := kern(t, `
.kernel k
    S2R R0, SR_TID.X
    ISETP.GE.AND P0, R0, 0x4, PT
@P0 BRA alt
    MOV R1, 0x1
    BRA join
alt:
    MOV R1, 0x2
join:
    STG.32 [R2], R1
    EXIT
`)
	cfg := BuildCFG(k)
	if len(cfg.Blocks) != 4 {
		t.Fatalf("blocks = %d, want 4", len(cfg.Blocks))
	}
	// B0=[0..2] branches to B1 (fallthrough) and B2 (alt); both feed B3.
	if got := cfg.BlockPreds[3]; !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("BlockPreds[3] = %v, want [1 2]", got)
	}
	if got := cfg.BlockPreds[0]; len(got) != 0 {
		t.Errorf("BlockPreds[0] = %v, want empty", got)
	}
	if len(cfg.BlockRPO) != 4 || cfg.BlockRPO[0] != 0 {
		t.Fatalf("BlockRPO = %v", cfg.BlockRPO)
	}
	// Every block before its successors (diamond has no back edges).
	pos := make([]int, 4)
	for i, b := range cfg.BlockRPO {
		pos[b] = i
	}
	for b := range cfg.Blocks {
		for _, s := range cfg.Blocks[b].Succs {
			if pos[s] <= pos[b] {
				t.Errorf("RPO violation: block %d before successor %d in %v", b, s, cfg.BlockRPO)
			}
		}
	}
}

func TestBlockRPOUnreachable(t *testing.T) {
	k := kern(t, `
.kernel k
    BRA out
    MOV R0, 0x1
out:
    EXIT
`)
	cfg := BuildCFG(k)
	seen := make(map[int]bool)
	for _, b := range cfg.BlockRPO {
		if seen[b] {
			t.Fatalf("block %d twice in RPO %v", b, cfg.BlockRPO)
		}
		seen[b] = true
	}
	if len(seen) != len(cfg.Blocks) {
		t.Fatalf("RPO %v is not a permutation of %d blocks", cfg.BlockRPO, len(cfg.Blocks))
	}
}

func shadowOf(t *testing.T, src string, site int) (*Analysis, *Shadow) {
	t.Helper()
	a := Analyze(kern(t, src))
	return a, a.ShadowOf(site)
}

func TestShadowTransitivelyDead(t *testing.T) {
	// R5's taint flows through two faithful readers and then dies: no
	// store, no control — masked by construction even though R5 is live.
	_, sh := shadowOf(t, `
.kernel k
    S2R R0, SR_TID.X
    MOV R5, R0
    IADD R6, R5, 0x1
    MOV R7, R6
    STG.32 [R1], R0
    EXIT
`, 1)
	if sh.Kind != ShadowData {
		t.Fatalf("Kind = %v, want data", sh.Kind)
	}
	if !sh.Masked() || !sh.Classable() {
		t.Errorf("transitively-dead chain: Masked=%v Classable=%v, want true/true", sh.Masked(), sh.Classable())
	}
	if len(sh.Events) != 2 || sh.Events[0].Delta != 1 || sh.Events[1].Delta != 2 {
		t.Errorf("events = %+v, want readers at deltas 1 and 2", sh.Events)
	}
	if sh.Stores != 0 || sh.AddrSinks != 0 || sh.Cut {
		t.Errorf("unexpected sinks/cut: %+v", sh)
	}
}

func TestShadowStoreSink(t *testing.T) {
	_, sh := shadowOf(t, `
.kernel k
    S2R R0, SR_TID.X
    IADD R2, R0, 0x1
    STG.32 [R1], R2
    EXIT
`, 1)
	if sh.Kind != ShadowData || sh.Stores != 1 {
		t.Fatalf("shadow = %+v, want one store sink", sh)
	}
	if sh.Masked() {
		t.Error("a stored taint must not be masked")
	}
	if !sh.Classable() {
		t.Error("plain global store through no readers should be classable")
	}
	if sh.Events[0].Role&(RoleRead|RoleStore) != RoleRead|RoleStore {
		t.Errorf("store event role = %v", sh.Events[0].Role)
	}
}

func TestShadowControlEscalation(t *testing.T) {
	_, sh := shadowOf(t, `
.kernel k
    S2R R0, SR_TID.X
    ISETP.GE.AND P0, R0, 0x4, PT
@P0 BRA skip
    MOV R1, 0x1
skip:
    EXIT
`, 1)
	if sh.Kind != ShadowControl {
		t.Fatalf("Kind = %v, want control", sh.Kind)
	}
	if sh.ControlAt != 2 {
		t.Errorf("ControlAt = %d, want 2", sh.ControlAt)
	}
	if sh.Classable() || sh.Masked() {
		t.Error("control shadows are never classable or masked")
	}
	last := sh.Events[len(sh.Events)-1]
	if last.Role&RoleControl == 0 {
		t.Errorf("escalating event role = %v", last.Role)
	}
}

func TestShadowAddressSink(t *testing.T) {
	_, sh := shadowOf(t, `
.kernel k
.param p
    S2R R0, SR_TID.X
    IADD R4, R0, c0[p]
    STG.32 [R4], R0
    EXIT
`, 1)
	if sh.AddrSinks != 1 {
		t.Fatalf("AddrSinks = %d, want 1: %+v", sh.AddrSinks, sh)
	}
	if sh.Masked() || sh.Classable() {
		t.Error("tainted addresses trap or scatter: never masked, never classable")
	}
}

func TestShadowLoopCut(t *testing.T) {
	_, sh := shadowOf(t, `
.kernel k
    MOV R5, 0x0
loop:
    IADD R5, R5, 0x1
    IADD R0, R0, 0x1
    ISETP.GE.AND P0, R0, 0x8, PT
@!P0 BRA loop
    EXIT
`, 0)
	if !sh.Cut {
		t.Fatalf("loop-carried taint must cut the closure: %+v", sh)
	}
	if sh.Masked() || sh.Classable() {
		t.Error("cut shadows carry no soundness claim")
	}
}

func TestShadowOpaqueReader(t *testing.T) {
	_, sh := shadowOf(t, `
.kernel k
    S2R R0, SR_TID.X
    MOV R2, R0
    SHL R3, R2, 0x2
    STG.32 [R1], R3
    EXIT
`, 1)
	if !sh.Opaque {
		t.Fatalf("SHL can drop the corrupted bit: want Opaque, got %+v", sh)
	}
	if sh.Classable() {
		t.Error("opaque reader with a store sink must not be classable")
	}
}

func TestShadowGuardedStoreDirty(t *testing.T) {
	_, sh := shadowOf(t, `
.kernel k
    S2R R0, SR_TID.X
    MOV R2, R0
    ISETP.GE.AND P0, R0, 0x4, PT
@P0 STG.32 [R1], R2
    EXIT
`, 1)
	if !sh.DirtySink {
		t.Fatalf("guarded store sink should be dirty: %+v", sh)
	}
	if sh.Classable() {
		t.Error("dirty sinks must not be classable")
	}
}

func TestShadowSelfCancelingAdd(t *testing.T) {
	// IADD R3, R2, R2 doubles the taint delta: flipping bit 31 adds
	// 2^32 ≡ 0, so the reader is opaque despite IADD being faithful.
	_, sh := shadowOf(t, `
.kernel k
    S2R R0, SR_TID.X
    MOV R2, R0
    IADD R3, R2, R2
    STG.32 [R1], R3
    EXIT
`, 1)
	if !sh.Opaque || sh.Classable() {
		t.Errorf("double-read IADD must be opaque: %+v", sh)
	}
}

func TestShadowEmptyDead(t *testing.T) {
	a, sh := shadowOf(t, `
.kernel k
    MOV R9, 0x1
    EXIT
`, 0)
	if sh.Kind != ShadowEmpty {
		t.Fatalf("Kind = %v, want empty", sh.Kind)
	}
	if !sh.Masked() || !sh.Classable() {
		t.Error("the empty shadow is the prune special case: masked and classable")
	}
	if !a.DeadDests(0) {
		t.Error("DeadDests should agree on the empty shadow")
	}
}

func TestAnalysisVerifyMatchesVerifyKernel(t *testing.T) {
	k := kern(t, `
.kernel k
    MOV R9, 0x1
    MOV R1, R3
    EXIT
`)
	a := Analyze(k)
	if got, want := a.Verify(), VerifyKernel(k); !reflect.DeepEqual(got, want) {
		t.Errorf("Analysis.Verify() = %v, want %v", got, want)
	}
}

const classSrc = `
.kernel k
.param p
    S2R R0, SR_TID.X
    IADD R2, R0, 0x1
    STG.32 [R1], R2
    IADD R3, R0, 0x1
    STG.32 [R1], R3
    MOV R9, 0x5
    MOV R10, 0x6
    IADD R4, R0, c0[p]
    STG.32 [R4], R0
    EXIT
`

func TestBuildClassTable(t *testing.T) {
	a := Analyze(kern(t, classSrc))
	tbl := a.BuildClassTable()
	if tbl.Kernel != "k" {
		t.Fatalf("Kernel = %q", tbl.Kernel)
	}
	// Sites 1 and 3 share a store-sink class; sites 5 and 6 share the
	// dead-MOV class; site 7 (address producer) is unclassable; site 0
	// (S2R feeding everything incl. the address) is unclassable too.
	c1 := tbl.ClassOf(1)
	if c1 == nil || tbl.ClassOf(3) != c1 {
		t.Fatalf("sites 1 and 3 should share a class: %v vs %v", c1, tbl.ClassOf(3))
	}
	if c1.Masked {
		t.Error("store-sink class must not be masked")
	}
	if c1.Rep() != 1 || !reflect.DeepEqual(c1.Sites, []int{1, 3}) {
		t.Errorf("class sites = %v, want [1 3]", c1.Sites)
	}
	cd := tbl.ClassOf(5)
	if cd == nil || tbl.ClassOf(6) != cd || !cd.Masked {
		t.Fatalf("sites 5 and 6 should share a masked class: %v vs %v", cd, tbl.ClassOf(6))
	}
	if cd == c1 {
		t.Error("masked and store classes must differ")
	}
	if tbl.ClassOf(7) != nil {
		t.Error("address-feeding site must be unclassable")
	}
	for _, u := range tbl.Unclassable {
		if tbl.ClassOf(u) != nil {
			t.Errorf("site %d both classed and unclassable", u)
		}
	}
	classed := 0
	for _, c := range tbl.Classes {
		classed += len(c.Sites)
	}
	if tbl.Candidates != classed+len(tbl.Unclassable) {
		t.Errorf("candidates %d != classed %d + unclassable %d",
			tbl.Candidates, classed, len(tbl.Unclassable))
	}
}

func TestClassIDStability(t *testing.T) {
	a1 := Analyze(kern(t, classSrc))
	a2 := Analyze(kern(t, classSrc))
	t1 := a1.BuildClassTable()
	t2 := a2.BuildClassTable()
	if len(t1.Classes) != len(t2.Classes) {
		t.Fatalf("class counts differ: %d vs %d", len(t1.Classes), len(t2.Classes))
	}
	for i := range t1.Classes {
		if t1.Classes[i].ID != t2.Classes[i].ID {
			t.Errorf("class %d ID unstable: %s vs %s", i, t1.Classes[i].ID, t2.Classes[i].ID)
		}
		if !reflect.DeepEqual(t1.Classes[i].Sites, t2.Classes[i].Sites) {
			t.Errorf("class %d membership unstable", i)
		}
	}
	// Members re-derive the class ID independently.
	for _, c := range t1.Classes {
		for _, s := range c.Sites {
			sh := a1.ShadowOf(s)
			if !sh.Classable() {
				t.Errorf("member %d no longer classable", s)
			}
			if id := a1.ShadowID(sh); id != c.ID {
				t.Errorf("member %d hashes to %s, class is %s", s, id, c.ID)
			}
		}
	}
}

func TestClassIDDiscriminates(t *testing.T) {
	// Same opcodes, different store distance: distinct classes.
	a := Analyze(kern(t, `
.kernel k
    S2R R0, SR_TID.X
    IADD R2, R0, 0x1
    STG.32 [R1], R2
    IADD R3, R0, 0x1
    MOV R7, 0x0
    STG.32 [R1], R3
    EXIT
`))
	tbl := a.BuildClassTable()
	c1, c2 := tbl.ClassOf(1), tbl.ClassOf(3)
	if c1 == nil || c2 == nil {
		t.Fatal("both IADD sites should be classable")
	}
	if c1 == c2 {
		t.Error("store at delta 1 vs delta 2 must not share a class")
	}
}

func TestShadowRoleString(t *testing.T) {
	if got := (RoleRead | RoleStore).String(); got != "read+store" {
		t.Errorf("Role string = %q", got)
	}
	if got := Role(0).String(); got != "none" {
		t.Errorf("zero Role string = %q", got)
	}
	if ShadowData.String() != "data" || ShadowControl.String() != "control" || ShadowEmpty.String() != "empty" {
		t.Error("ShadowKind strings wrong")
	}
}
