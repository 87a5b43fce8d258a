package modcache

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sass"
	"repro/internal/sass/encoding"
)

const testSrc = `
.kernel probe
.param n
    S2R R0, SR_TID.X
    IADD R1, R0, 0x1
    SHL R2, R1, 0x2
    EXIT
`

// TestAssembleMatchesDirect: the cached path must be bit- and
// structure-identical to calling sass.Assemble + EncodeProgram directly —
// the exact sequence cuda.LoadModule ran before the cache existed.
func TestAssembleMatchesDirect(t *testing.T) {
	c := New()
	prog, bin, hit, err := c.Assemble(sass.FamilyVolta, "probe", testSrc)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("first Assemble reported a cache hit")
	}

	directProg, err := sass.Assemble("probe", testSrc)
	if err != nil {
		t.Fatal(err)
	}
	codec, err := encoding.NewCodec(sass.FamilyVolta)
	if err != nil {
		t.Fatal(err)
	}
	directBin, err := codec.EncodeProgram(directProg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(prog, directProg) {
		t.Error("cached program differs from direct assembly")
	}
	if !reflect.DeepEqual(bin, directBin) {
		t.Error("cached binary differs from direct encoding")
	}

	// The second call is a hit returning the same shared objects.
	prog2, bin2, hit, err := c.Assemble(sass.FamilyVolta, "probe", testSrc)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("second Assemble missed the cache")
	}
	if prog2 != prog || &bin2[0] != &bin[0] {
		t.Error("cache hit returned different objects")
	}
}

// TestDecodeMatchesDirect: cached decode equals a direct DecodeProgram, and
// repeat decodes of the same bytes share one program.
func TestDecodeMatchesDirect(t *testing.T) {
	c := New()
	_, bin, _, err := c.Assemble(sass.FamilyVolta, "probe", testSrc)
	if err != nil {
		t.Fatal(err)
	}
	prog, hit, err := c.Decode(sass.FamilyVolta, bin)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("first Decode reported a cache hit")
	}
	codec, err := encoding.NewCodec(sass.FamilyVolta)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := codec.DecodeProgram(bin)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(prog, direct) {
		t.Error("cached decode differs from direct decode")
	}
	prog2, hit, err := c.Decode(sass.FamilyVolta, bin)
	if err != nil {
		t.Fatal(err)
	}
	if !hit || prog2 != prog {
		t.Errorf("repeat decode: hit=%v, shared=%v", hit, prog2 == prog)
	}
}

// TestCodecShared: one codec per family, shared by every caller.
func TestCodecShared(t *testing.T) {
	c := New()
	a, err := c.Codec(sass.FamilyVolta)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Codec(sass.FamilyVolta)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same family produced two codecs")
	}
	st := c.Stats()
	if st.CodecBuilds != 1 || st.CodecHits != 1 {
		t.Errorf("codec stats = %+v, want 1 build / 1 hit", st)
	}
}

// TestErrorsCached: assembly is deterministic, so a bad source fails
// identically — and from the cache — on every retry.
func TestErrorsCached(t *testing.T) {
	c := New()
	_, _, _, err1 := c.Assemble(sass.FamilyVolta, "bad", ".kernel k\n NOTANOP R0\n")
	if err1 == nil {
		t.Fatal("bad source assembled")
	}
	_, _, hit, err2 := c.Assemble(sass.FamilyVolta, "bad", ".kernel k\n NOTANOP R0\n")
	if !hit {
		t.Error("retry of failing source missed the cache")
	}
	if err2 == nil || err2.Error() != err1.Error() {
		t.Errorf("cached error %v, first error %v", err2, err1)
	}
}

// TestConcurrentAssemble: N goroutines racing on the same key must produce
// exactly one build and share one program; distinct keys stay distinct.
// Run under -race this also proves the cache's synchronization.
func TestConcurrentAssemble(t *testing.T) {
	c := New()
	const goroutines = 16
	progs := make([]*sass.Program, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, _, _, err := c.Assemble(sass.FamilyVolta, "probe", testSrc)
			if err != nil {
				t.Error(err)
				return
			}
			progs[i] = p
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if progs[i] != progs[0] {
			t.Fatalf("goroutine %d got a different program", i)
		}
	}
	st := c.Stats()
	if st.AssembleBuilds != 1 {
		t.Errorf("%d builds for one key, want 1", st.AssembleBuilds)
	}
	if st.AssembleHits != goroutines-1 {
		t.Errorf("%d hits, want %d", st.AssembleHits, goroutines-1)
	}

	// A different source is a different key.
	other := testSrc + "// distinct\n"
	p, _, hit, err := c.Assemble(sass.FamilyVolta, "probe", other)
	if err != nil {
		t.Fatal(err)
	}
	if hit || p == progs[0] {
		t.Error("distinct source collided with the cached entry")
	}
}

// TestReset: after Reset the next load rebuilds, and previously returned
// programs remain usable.
func TestReset(t *testing.T) {
	c := New()
	p1, _, _, err := c.Assemble(sass.FamilyVolta, "probe", testSrc)
	if err != nil {
		t.Fatal(err)
	}
	c.Reset()
	if st := c.Stats(); st != (Stats{}) {
		t.Errorf("stats after Reset = %+v", st)
	}
	p2, _, hit, err := c.Assemble(sass.FamilyVolta, "probe", testSrc)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("post-Reset load reported a hit")
	}
	if !reflect.DeepEqual(p1, p2) {
		t.Error("rebuild differs from the pre-Reset program")
	}
	if fmt.Sprint(p1.Kernels[0].Instrs[0]) == "" {
		t.Error("pre-Reset program no longer readable")
	}
}

type testSlot struct{}
type otherSlot struct{}

// TestDerive: a fact derived from a shared program or kernel is built once
// per (object, slot) — also under concurrency — and on every call, memoized
// nowhere, for an object the cache did not hand out.
func TestDerive(t *testing.T) {
	c := New()
	prog, bin, _, err := c.Assemble(sass.FamilyVolta, "probe", testSrc)
	if err != nil {
		t.Fatal(err)
	}
	dec, _, err := c.Decode(sass.FamilyVolta, bin)
	if err != nil {
		t.Fatal(err)
	}
	var builds atomic.Int32
	build := func() any { return builds.Add(1) }

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v, shared := c.Derive(prog.Kernels[0], testSlot{}, build); !shared || v.(int32) != 1 {
				t.Errorf("Derive on a shared kernel = %v, %v; want 1, true", v, shared)
			}
		}()
	}
	wg.Wait()
	if builds.Load() != 1 {
		t.Fatalf("%d builds for one (kernel, slot), want 1", builds.Load())
	}
	for _, obj := range []any{prog, dec, dec.Kernels[0]} {
		if _, shared := c.Derive(obj, testSlot{}, build); !shared {
			t.Errorf("%T handed out by the cache is not shared", obj)
		}
	}
	if v, _ := c.Derive(prog.Kernels[0], otherSlot{}, build); v.(int32) == 1 {
		t.Error("two slots of one kernel share a value")
	}

	before := builds.Load()
	private := prog.Kernels[0].Clone()
	for i := int32(1); i <= 2; i++ {
		if v, shared := c.Derive(private, testSlot{}, build); shared || v.(int32) != before+i {
			t.Errorf("Derive on a private kernel = %v, %v; want a fresh build (%d), false", v, shared, before+i)
		}
	}
	if len(c.derived) != 5 {
		t.Errorf("%d derived facts, want the 5 shared ones: a private kernel's must not be kept", len(c.derived))
	}
}

// TestResetDropsDerived: Reset must leave the cache referencing no program,
// kernel, plan or derived fact — the benchmark's cold samples reset it every
// repetition, and a memo that outlived Reset kept every generation of decoded
// code alive. Both the table sizes and the collector are asked.
func TestResetDropsDerived(t *testing.T) {
	c := New()
	collected := make(chan struct{})
	func() {
		prog, bin, _, err := c.Assemble(sass.FamilyVolta, "probe", testSrc)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Decode(sass.FamilyVolta, bin); err != nil {
			t.Fatal(err)
		}
		k := prog.Kernels[0]
		c.Derive(k, testSlot{}, func() any { return k })
		c.Derive(prog, testSlot{}, func() any { return prog })
		if _, _, err := c.Plan(PlanKey{Engine: "test"}, func() (any, error) { return k, nil }); err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(k, func(*sass.Kernel) { close(collected) })
	}()
	if len(c.owned) == 0 || len(c.derived) != 2 {
		t.Fatalf("before Reset: %d owned objects, %d derived facts", len(c.owned), len(c.derived))
	}
	c.Reset()
	if n := len(c.owned) + len(c.derived) + len(c.plans) + len(c.asm) + len(c.dec); n != 0 {
		t.Errorf("after Reset the cache still holds %d entries", n)
	}
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Error("a kernel the reset cache handed out was never collected: something still references it")
}

// TestDeriveAfterReset: an object that outlives a Reset is no longer shared,
// and a fresh load's objects are.
func TestDeriveAfterReset(t *testing.T) {
	c := New()
	old, _, _, err := c.Assemble(sass.FamilyVolta, "probe", testSrc)
	if err != nil {
		t.Fatal(err)
	}
	c.Reset()
	if _, shared := c.Derive(old.Kernels[0], testSlot{}, func() any { return 0 }); shared {
		t.Error("a kernel from before Reset is still memoized on")
	}
	fresh, _, _, err := c.Assemble(sass.FamilyVolta, "probe", testSrc)
	if err != nil {
		t.Fatal(err)
	}
	if fresh == old {
		t.Fatal("Reset did not drop the program")
	}
	if _, shared := c.Derive(fresh.Kernels[0], testSlot{}, func() any { return 0 }); !shared {
		t.Error("a freshly loaded kernel is not shared")
	}
}
