package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sass"
)

func TestSelectTransientFaultBounds(t *testing.T) {
	p := sampleProfile()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		params, err := SelectTransientFault(p, sass.GroupGPPR, FlipSingleBit, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := params.Validate(); err != nil {
			t.Fatalf("selected invalid params: %v", err)
		}
		// The instruction count must be within the selected record's
		// group total.
		var rec *KernelRecord
		for j := range p.Records {
			r := &p.Records[j]
			if r.Kernel == params.KernelName && r.LaunchIndex == params.KernelCount {
				rec = r
			}
		}
		if rec == nil {
			t.Fatalf("selected nonexistent dynamic kernel %s/%d",
				params.KernelName, params.KernelCount)
		}
		if params.InstrCount >= rec.Total(sass.GroupGPPR) {
			t.Fatalf("instruction count %d beyond record total %d",
				params.InstrCount, rec.Total(sass.GroupGPPR))
		}
	}
}

// TestSelectUniformity: selection probability is proportional to each
// dynamic kernel's share of eligible instructions.
func TestSelectUniformity(t *testing.T) {
	fadd := sass.MustOp("FADD")
	p := &Profile{
		Program: "u",
		Mode:    Exact,
		Records: []KernelRecord{
			{Kernel: "small", LaunchIndex: 0, OpCounts: opCounts(map[sass.Op]uint64{fadd: 100})},
			{Kernel: "big", LaunchIndex: 0, OpCounts: opCounts(map[sass.Op]uint64{fadd: 300})},
		},
	}
	rng := rand.New(rand.NewSource(9))
	const n = 4000
	hits := 0
	for i := 0; i < n; i++ {
		params, err := SelectTransientFault(p, sass.GroupFP32, FlipSingleBit, rng)
		if err != nil {
			t.Fatal(err)
		}
		if params.KernelName == "big" {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.75) > 0.03 {
		t.Fatalf("big kernel selected %.3f of the time, want ~0.75", got)
	}
}

func TestSelectEmptyGroup(t *testing.T) {
	p := sampleProfile() // has no FP16/half and no texture loads beyond LDG
	rng := rand.New(rand.NewSource(1))
	// Remove loads to make G_LD empty.
	for i := range p.Records {
		p.Records[i].OpCounts = slices.DeleteFunc(p.Records[i].OpCounts, func(c OpCount) bool { return c.Op == sass.MustOp("LDG") })
	}
	if _, err := SelectTransientFault(p, sass.GroupLD, FlipSingleBit, rng); err == nil {
		t.Fatal("selection from an empty group succeeded")
	}
}

func TestSelectPermanentFaults(t *testing.T) {
	p := sampleProfile()
	rng := rand.New(rand.NewSource(2))
	faults, err := SelectPermanentFaults(p, sass.FamilyVolta, 8, FlipSingleBit, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(faults) != len(p.ExecutedOpcodes()) {
		t.Fatalf("%d faults for %d executed opcodes", len(faults), len(p.ExecutedOpcodes()))
	}
	set := sass.OpcodeSet(sass.FamilyVolta)
	seen := make(map[sass.Op]bool)
	for _, f := range faults {
		if err := f.Validate(sass.FamilyVolta, 8); err != nil {
			t.Fatalf("invalid fault: %v", err)
		}
		if f.BitMask == 0 {
			t.Fatal("permanent fault with a zero mask is a no-op")
		}
		op := set[f.OpcodeID]
		if seen[op] {
			t.Fatalf("opcode %v selected twice", op)
		}
		seen[op] = true
	}
	for _, op := range p.ExecutedOpcodes() {
		if !seen[op] {
			t.Fatalf("executed opcode %v has no fault", op)
		}
	}
}

func TestSelectDeterminism(t *testing.T) {
	p := sampleProfile()
	a, err := SelectTransientFault(p, sass.GroupGP, RandomValue, rand.New(rand.NewSource(77)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := SelectTransientFault(p, sass.GroupGP, RandomValue, rand.New(rand.NewSource(77)))
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Fatalf("same seed selected different faults:\n%+v\n%+v", *a, *b)
	}
}

// siteProfile builds a profile carrying the per-static-instruction
// breakdown that site-resolved selection needs.
func siteProfile() *Profile {
	fadd := sass.MustOp("FADD")
	iadd := sass.MustOp("IADD")
	stg := sass.MustOp("STG")
	exit := sass.MustOp("EXIT")
	return &Profile{
		Program: "prog",
		Mode:    Exact,
		Records: []KernelRecord{
			{
				Kernel: "k1", LaunchIndex: 0,
				OpCounts:   opCounts(map[sass.Op]uint64{fadd: 130, iadd: 50, stg: 30, exit: 10}),
				SiteOps:    []sass.Op{fadd, iadd, fadd, stg, exit},
				SiteCounts: []uint64{100, 50, 30, 30, 10},
			},
			{
				Kernel: "k2", LaunchIndex: 0,
				OpCounts:   opCounts(map[sass.Op]uint64{fadd: 40, exit: 8}),
				SiteOps:    []sass.Op{fadd, exit},
				SiteCounts: []uint64{40, 8},
			},
		},
	}
}

// TestSelectSiteSameStream: site-resolved selection consumes the RNG
// stream exactly like the legacy selector, so a fixed seed picks the same
// dynamic kernel and the same register/bit-pattern draws.
func TestSelectSiteSameStream(t *testing.T) {
	p := siteProfile()
	for seed := int64(0); seed < 200; seed++ {
		legacy, err := SelectTransientFault(p, sass.GroupGP, FlipSingleBit, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		site, err := SelectTransientFaultSite(p, sass.GroupGP, FlipSingleBit, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if !site.SiteResolved {
			t.Fatal("site selection not marked SiteResolved")
		}
		if site.KernelName != legacy.KernelName || site.KernelCount != legacy.KernelCount {
			t.Fatalf("seed %d: site picked %s/%d, legacy %s/%d", seed,
				site.KernelName, site.KernelCount, legacy.KernelName, legacy.KernelCount)
		}
		if site.DestRegSelect != legacy.DestRegSelect || site.BitPatternValue != legacy.BitPatternValue {
			t.Fatalf("seed %d: RNG streams diverged", seed)
		}
		// The resolved site must be an in-range instruction of the group.
		var rec *KernelRecord
		for i := range p.Records {
			if p.Records[i].Kernel == site.KernelName && p.Records[i].LaunchIndex == site.KernelCount {
				rec = &p.Records[i]
			}
		}
		if site.StaticInstrIdx < 0 || site.StaticInstrIdx >= len(rec.SiteOps) {
			t.Fatalf("seed %d: static index %d out of range", seed, site.StaticInstrIdx)
		}
		op := rec.SiteOps[site.StaticInstrIdx]
		if !sass.GroupContains(sass.GroupGP, op) {
			t.Fatalf("seed %d: resolved site opcode %v outside group", seed, op)
		}
		if site.InstrCount >= rec.SiteCounts[site.StaticInstrIdx] {
			t.Fatalf("seed %d: per-site count %d beyond site total %d", seed,
				site.InstrCount, rec.SiteCounts[site.StaticInstrIdx])
		}
	}
}

func TestSelectSiteDeterminism(t *testing.T) {
	p := siteProfile()
	a, err := SelectTransientFaultSite(p, sass.GroupGPPR, FlipSingleBit, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := SelectTransientFaultSite(p, sass.GroupGPPR, FlipSingleBit, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Fatalf("same seed selected different faults:\n%+v\n%+v", *a, *b)
	}
}

func TestSelectSiteRequiresSiteData(t *testing.T) {
	p := sampleProfile() // no site breakdown
	if _, err := SelectTransientFaultSite(p, sass.GroupGP, FlipSingleBit, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("site selection succeeded on a profile without site data")
	}
}

// selectByWalk is the selection the cumulative table replaced: draw n, then
// walk every record's totals (and, in site mode, its sites) until n is used
// up. include decides which site opcodes count; plain mode sums OpCounts.
func selectByWalk(p *Profile, g sass.Group, sites bool, eligible func(sass.Op) bool, rng *rand.Rand) TransientParams {
	include := func(op sass.Op) bool { return sass.GroupContains(g, op) && (eligible == nil || eligible(op)) }
	recTotal := func(r *KernelRecord) uint64 {
		if eligible == nil {
			return r.Total(g)
		}
		var t uint64
		for idx, c := range r.SiteCounts {
			if include(r.SiteOps[idx]) {
				t += c
			}
		}
		return t
	}
	var total uint64
	for i := range p.Records {
		total += recTotal(&p.Records[i])
	}
	n := uint64(rng.Int63n(int64(total)))
	var cum uint64
	for i := range p.Records {
		r := &p.Records[i]
		t := recTotal(r)
		if n >= cum+t {
			cum += t
			continue
		}
		out := TransientParams{Group: g, BitFlip: FlipSingleBit, KernelName: r.Kernel, KernelCount: r.LaunchIndex, InstrCount: n - cum}
		if sites {
			for idx, c := range r.SiteCounts {
				if !include(r.SiteOps[idx]) {
					continue
				}
				if out.InstrCount >= c {
					out.InstrCount -= c
					continue
				}
				out.SiteResolved, out.StaticInstrIdx = true, idx
				break
			}
		}
		out.DestRegSelect, out.BitPatternValue = rng.Float64(), rng.Float64()
		return out
	}
	panic("index beyond total")
}

// TestPopulationMatchesWalk: selecting through one FaultPopulation — built
// once, binary-searched per fault — must return, fault for fault from one
// stream, exactly the tuples the per-fault linear walk returned, in all three
// modes, across records that contribute nothing to the population.
func TestPopulationMatchesWalk(t *testing.T) {
	p := siteProfile()
	exit := sass.MustOp("EXIT")
	fadd := sass.MustOp("FADD")
	// Records with an empty population before, between and after the others.
	empty := KernelRecord{Kernel: "idle", OpCounts: opCounts(map[sass.Op]uint64{exit: 5}), SiteOps: []sass.Op{exit}, SiteCounts: []uint64{5}}
	p.Records = []KernelRecord{empty, p.Records[0], empty, empty, p.Records[1], empty}
	onlyFadd := func(op sass.Op) bool { return op == fadd }
	for _, mode := range []struct {
		name     string
		g        sass.Group
		sites    bool
		eligible func(sass.Op) bool
	}{
		{"plain", sass.GroupGP, false, nil},
		{"site", sass.GroupGPPR, true, nil},
		{"filtered", sass.GroupGPPR, true, onlyFadd},
	} {
		pop, err := p.Population(mode.g, mode.sites, mode.eligible)
		if err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		got, want := rand.New(rand.NewSource(41)), rand.New(rand.NewSource(41))
		for i := 0; i < 2000; i++ {
			sel, err := pop.Select(FlipSingleBit, got)
			if err != nil {
				t.Fatalf("%s fault %d: %v", mode.name, i, err)
			}
			if ref := selectByWalk(p, mode.g, mode.sites, mode.eligible, want); *sel != ref {
				t.Fatalf("%s fault %d:\n table %+v\n  walk %+v", mode.name, i, *sel, ref)
			}
		}
	}
}
