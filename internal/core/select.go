package core

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/sass"
)

// FaultPopulation is the set of profiled dynamic instructions a campaign
// draws transient faults from: one group, optionally narrowed to the opcodes
// a fault model can target. It holds the cumulative per-record totals, so a
// campaign that selects many faults from one profile scans the profile once
// (Profile.Population) and binary-searches it per fault, instead of summing
// every record's opcode counts again for each one.
type FaultPopulation struct {
	p        *Profile
	g        sass.Group
	sites    bool
	eligible func(sass.Op) bool // nil: the whole group
	cum      []uint64           // cum[i]: population executions in records 0..i
}

// Population builds the fault population of group g. With sites set, Select
// resolves every fault down to a static instruction through the profile's
// per-site breakdown (a current profiler run, or a profile file with
// "# sites:" lines). A non-nil eligible narrows the population to the group's
// opcodes it accepts — for fault models that cannot target arbitrary
// instructions — and implies sites.
func (p *Profile) Population(g sass.Group, sites bool, eligible func(sass.Op) bool) (*FaultPopulation, error) {
	fp := &FaultPopulation{p: p, g: g, sites: sites || eligible != nil, eligible: eligible,
		cum: make([]uint64, len(p.Records))}
	var total uint64
	for i := range p.Records {
		r := &p.Records[i]
		if eligible == nil {
			total += r.Total(g)
		} else {
			if !r.HasSites() {
				return nil, fmt.Errorf("core: profile record %s;%d has no site data; filtered selection needs a site-resolved profile",
					r.Kernel, r.LaunchIndex)
			}
			for idx, c := range r.SiteCounts {
				if fp.includes(r.SiteOps[idx]) {
					total += c
				}
			}
		}
		fp.cum[i] = total
	}
	if total == 0 {
		if eligible != nil {
			return nil, fmt.Errorf("core: profile of %q has no eligible %v instructions for this fault model", p.Program, g)
		}
		return nil, fmt.Errorf("core: profile of %q has no %v instructions to inject", p.Program, g)
	}
	return fp, nil
}

func (fp *FaultPopulation) includes(op sass.Op) bool {
	return sass.GroupContains(fp.g, op) && (fp.eligible == nil || fp.eligible(op))
}

// Select samples one injection site uniformly from the population, exactly
// as the paper describes: choose a random n from 1..N over the profiled
// thread-level executions, then translate n into the
// <kernel name, kernel count, instruction count> tuple. The destination
// register selector and bit-pattern value are drawn from the same stream.
// Every call consumes one Int63n and then two Float64 from rng, whatever the
// population, which keeps per-experiment streams aligned across fault models.
//
// In site mode the dynamic index is interpreted in static-instruction order
// within the record, and the injector counts executions of that one
// instruction, so a fixed seed maps to a fixed site either way.
func (fp *FaultPopulation) Select(bf BitFlipModel, rng *rand.Rand) (*TransientParams, error) {
	total := fp.cum[len(fp.cum)-1]
	n := uint64(rng.Int63n(int64(total))) // 0-based index into the population's executions
	i := sort.Search(len(fp.cum), func(i int) bool { return fp.cum[i] > n })
	r := &fp.p.Records[i]
	rem := n
	if i > 0 {
		rem -= fp.cum[i-1]
	}
	params := &TransientParams{
		Group:       fp.g,
		BitFlip:     bf,
		KernelName:  r.Kernel,
		KernelCount: r.LaunchIndex,
	}
	if fp.sites {
		if !r.HasSites() {
			return nil, fmt.Errorf("core: profile record %s;%d has no site data; re-profile or use SelectTransientFault",
				r.Kernel, r.LaunchIndex)
		}
		idx := 0
		for ; idx < len(r.SiteCounts); idx++ {
			if !fp.includes(r.SiteOps[idx]) {
				continue
			}
			if rem < r.SiteCounts[idx] {
				break
			}
			rem -= r.SiteCounts[idx]
		}
		if idx == len(r.SiteCounts) {
			return nil, fmt.Errorf("core: profile record %s;%d: site counts sum below the record total for %v",
				r.Kernel, r.LaunchIndex, fp.g)
		}
		params.SiteResolved = true
		params.StaticInstrIdx = idx
	}
	params.InstrCount = rem
	params.DestRegSelect = rng.Float64()
	params.BitPatternValue = rng.Float64()
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return params, nil
}

// SelectTransientFault samples one injection site from the profile's dynamic
// instructions of the requested group (FaultPopulation.Select over the whole
// group, unresolved).
func SelectTransientFault(p *Profile, g sass.Group, bf BitFlipModel, rng *rand.Rand) (*TransientParams, error) {
	return selectOne(p, g, bf, false, rng)
}

// SelectTransientFaultSite is SelectTransientFault with the selection
// resolved down to a static instruction: it draws from the same RNG stream
// (one Int63n, then the two Float64s) but uses the profile's per-site
// breakdown to name the static instruction the dynamic index lands on, so
// consumers — fault models and adaptive strata — can reason statically about
// the target without replaying the program. Requires a profile with site
// data.
func SelectTransientFaultSite(p *Profile, g sass.Group, bf BitFlipModel, rng *rand.Rand) (*TransientParams, error) {
	return selectOne(p, g, bf, true, rng)
}

func selectOne(p *Profile, g sass.Group, bf BitFlipModel, sites bool, rng *rand.Rand) (*TransientParams, error) {
	fp, err := p.Population(g, sites, nil)
	if err != nil {
		return nil, err
	}
	return fp.Select(bf, rng)
}

// SelectPermanentFaults enumerates one permanent-fault experiment per
// executed opcode (the campaign described in Section IV-B: "permanent fault
// experiments can be skipped for unused opcodes"). The SM, lane, and mask
// are drawn per experiment from rng.
func SelectPermanentFaults(p *Profile, family sass.Family, numSMs int, bf BitFlipModel, rng *rand.Rand) ([]*PermanentParams, error) {
	set := sass.OpcodeSet(family)
	idByOp := make(map[sass.Op]int, len(set))
	for i, op := range set {
		idByOp[op] = i
	}
	var out []*PermanentParams
	for _, op := range p.ExecutedOpcodes() {
		id, ok := idByOp[op]
		if !ok {
			return nil, fmt.Errorf("core: profiled opcode %s is not in the %v opcode set", op, family)
		}
		params := &PermanentParams{
			SMID:     rng.Intn(numSMs),
			Lane:     rng.Intn(32),
			BitMask:  bf.Mask(rng.Float64(), 0),
			OpcodeID: id,
		}
		if params.BitMask == 0 {
			params.BitMask = 1 // ZERO_VALUE has no static mask; fall back to bit 0
		}
		if err := params.Validate(family, numSMs); err != nil {
			return nil, err
		}
		out = append(out, params)
	}
	return out, nil
}
