package gpu

import (
	"crypto/sha256"
	"encoding/binary"
	"testing"

	"repro/internal/modcache"
	"repro/internal/race"
	"repro/internal/sass"
)

// hashKernel is the content hash of one kernel, taken the way
// Device.kernelHash takes it: the fields serialised into one buffer, one
// SHA-256 write.
func hashKernel(k *sass.Kernel) [sha256.Size]byte {
	return sha256.Sum256(appendKernelFields(nil, k))
}

// hashKernelStreamed is the previous hashKernel, which fed SHA-256 field by
// field: the reference for the byte sequence PlanKeys are built from.
func hashKernelStreamed(k *sass.Kernel) [sha256.Size]byte {
	h := sha256.New()
	var buf [8]byte
	u32 := func(v uint32) {
		binary.LittleEndian.PutUint32(buf[:4], v)
		h.Write(buf[:4])
	}
	b := func(v bool) {
		if v {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	u32(uint32(len(k.Instrs)))
	for i := range k.Instrs {
		in := &k.Instrs[i]
		u32(uint32(in.Op))
		u32(uint32(in.Guard.Pred))
		b(in.Guard.Neg)
		m := &in.Mods
		u32(uint32(m.Width))
		b(m.Signed)
		b(m.Unsigned)
		u32(uint32(m.Cmp))
		u32(uint32(m.Bool))
		u32(uint32(m.Logic))
		u32(uint32(m.Mufu))
		u32(uint32(m.Atom))
		u32(uint32(m.Shfl))
		b(m.High)
		b(m.Right)
		b(m.FtoI.Trunc)
		b(m.Float)
		b(m.Sync)
		u32(uint32(len(in.Dst)))
		u32(uint32(len(in.Src)))
		for _, ops := range [2][]sass.Operand{in.Dst, in.Src} {
			for j := range ops {
				o := &ops[j]
				u32(uint32(o.Kind))
				b(o.Neg)
				u32(uint32(o.Reg))
				u32(uint32(o.Pred.Pred))
				b(o.Pred.Neg)
				u32(o.Imm)
				u32(uint32(o.Off))
				u32(uint32(o.Bank))
				u32(uint32(o.SReg))
				u32(uint32(o.Target))
			}
		}
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// TestHashKernelBytes: hashing in one write must produce the hash the
// field-by-field writer produced, or every cached plan's key moves.
func TestHashKernelBytes(t *testing.T) {
	for _, tc := range []struct{ src, name string }{
		{saxpySrc, "saxpy"},
		{clockMixSrc, "clockmix"},
		{gridReduceSrc, "gridreduce"},
		{multiFaultSrc, "faulty"},
	} {
		k := mustKernel(t, tc.src, tc.name)
		if got, want := hashKernel(k), hashKernelStreamed(k); got != want {
			t.Errorf("%s: hashKernel = %x, field-by-field reference = %x", tc.name, got, want)
		}
	}
	if got, want := hashKernel(&sass.Kernel{}), hashKernelStreamed(&sass.Kernel{}); got != want {
		t.Errorf("empty kernel: hashKernel = %x, reference = %x", got, want)
	}
}

// TestInstrumentedLaunchAllocs: an instrumented launch allocates nothing in
// the engine — the InstrCtx handed to callbacks is the block's own, the
// in-line tally is the tool's slice — so whatever an armed run allocates is
// the tool's.
func TestInstrumentedLaunchAllocs(t *testing.T) {
	d := newTestDevice(t)
	k := mustKernel(t, clockMixSrc, "clockmix")
	outp := mustAllocWrite(t, d, 4*64, nil)
	ek := &ExecKernel{K: k, Before: make([][]Callback, len(k.Instrs)), After: make([][]Callback, len(k.Instrs)),
		Tally: make([]SiteTally, len(k.Instrs))}
	var lanes int
	for i := range k.Instrs {
		ek.Before[i] = []Callback{func(c *InstrCtx) { lanes += c.LaneCount() }}
		ek.After[i] = []Callback{func(c *InstrCtx) { lanes += c.LaneCount() }}
	}
	l := &Launch{Kernel: ek, Grid: Dim3{X: 1, Y: 1, Z: 1}, Block: Dim3{X: 64, Y: 1, Z: 1}, Params: []uint32{outp}}
	if _, err := d.Run(l); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := d.Run(l); err != nil {
			t.Fatal(err)
		}
	})
	if race.Enabled {
		t.Logf("instrumented launch allocated %.1f objects under -race", avg)
	} else if avg != 0 {
		t.Errorf("instrumented launch allocated %.1f objects, want 0", avg)
	}
	var tallied int
	for _, c := range ek.Tally {
		tallied += int(c.Threads)
	}
	if lanes == 0 || lanes != 2*tallied {
		t.Errorf("Before and After callbacks counted %d lanes, the tally %d", lanes, tallied)
	}
}

// TestTallyFactsPerKernel: every attachment of a profiler builds its own
// tally-only ExecKernel of the same kernel, and none of them derives the
// kernel's static facts again — the register bound reset clears to and the
// trampoline-site prefix come from the translated plan, shared by content.
// A fresh build's first launch allocates nothing, and all builds hand the
// warp loop the same prefix.
func TestTallyFactsPerKernel(t *testing.T) {
	d := newTestDevice(t)
	k := mustKernel(t, clockMixSrc, "clockmix")
	outp := mustAllocWrite(t, d, 4*64, nil)
	builds := make([]*ExecKernel, 12)
	launches := make([]*Launch, len(builds))
	for i := range builds {
		builds[i] = &ExecKernel{K: k, Tally: make([]SiteTally, len(k.Instrs))}
		launches[i] = &Launch{Kernel: builds[i], Grid: Dim3{X: 1, Y: 1, Z: 1}, Block: Dim3{X: 64, Y: 1, Z: 1}, Params: []uint32{outp}}
	}
	next := 0
	launch := func() {
		next++
		if _, err := d.Run(launches[next-1]); err != nil {
			t.Fatal(err)
		}
	}
	launch()
	avg := testing.AllocsPerRun(10, launch)
	if race.Enabled {
		t.Logf("a fresh tally-only build's launch allocated %.1f objects under -race", avg)
	} else if avg != 0 {
		t.Errorf("a fresh tally-only build's launch allocated %.1f objects, want 0", avg)
	}
	plan := d.planFor(k)
	if plan.regHi != writtenRegHi(k) {
		t.Errorf("plan register bound %d, static scan %d", plan.regHi, writtenRegHi(k))
	}
	for i, ek := range builds[:next] {
		if sites := ek.trampSites(plan); ek.sites != nil || &sites[0] != &plan.tallySites[0] {
			t.Fatalf("build %d derived its own trampoline sites", i)
		}
		if ek.Tally[0].Issues == 0 {
			t.Fatalf("build %d was not tallied", i)
		}
	}
}

// TestPlanLookupByIdentity: for a kernel the module cache shares, every fresh
// device's first launch is still one PlanHit (modcache.plan_hit_rate keeps
// its meaning) but hashes nothing — the content hash is memoized on the
// kernel's identity for as long as the cache holds the kernel. After a Reset
// the old pointer is an ordinary private kernel again: hashed on use, planned
// through the content key, and memoized nowhere.
func TestPlanLookupByIdentity(t *testing.T) {
	modcache.Shared.Reset()
	prog, _, _, err := modcache.Shared.Assemble(sass.FamilyVolta, "shared", saxpySrc)
	if err != nil {
		t.Fatal(err)
	}
	k, ok := prog.Kernel("saxpy")
	if !ok {
		t.Fatal("saxpy not assembled")
	}
	if _, shared := modcache.Shared.Derive(k, kernelHashSlot{}, func() any { return hashKernel(k) }); !shared {
		t.Fatal("an assembled kernel is not shared")
	}
	if newTestDevice(t).kernelHash(k) != hashKernel(k) {
		t.Fatal("memoized hash differs from the content hash")
	}
	before := modcache.Shared.Stats()
	for i := 0; i < 3; i++ {
		if newTestDevice(t).planFor(k) == nil {
			t.Fatal("no plan")
		}
	}
	after := modcache.Shared.Stats()
	if after.PlanBuilds != before.PlanBuilds+1 || after.PlanHits != before.PlanHits+2 {
		t.Errorf("three devices: builds %d -> %d, hits %d -> %d; want +1 and +2",
			before.PlanBuilds, after.PlanBuilds, before.PlanHits, after.PlanHits)
	}

	modcache.Shared.Reset()
	if _, shared := modcache.Shared.Derive(k, kernelHashSlot{}, func() any { return hashKernel(k) }); shared {
		t.Error("a kernel from before Reset is still memoized on")
	}
	if newTestDevice(t).planFor(k) == nil {
		t.Fatal("no plan for a private kernel")
	}
	if st := modcache.Shared.Stats(); st.PlanBuilds != 1 {
		t.Errorf("private kernel after Reset: %d plan builds, want 1 through the content key", st.PlanBuilds)
	}
}
