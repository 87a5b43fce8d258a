package campaign_test

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/nvbit"
	"repro/internal/race"
	"repro/internal/sass"
	"repro/internal/specaccel"
)

// callbackPermanent is the permanent fault as a per-instruction closure — the
// pf_injector analog before its fault became engine data (gpu.Corruption),
// kept as the reference the declarative fault is held to. Every instruction
// of the target opcodes' functional categories carries an After callback, and
// the callback filters on opcode, SM and lane.
type callbackPermanent struct {
	p    core.PermanentParams
	ops  sass.OpSet
	cats uint32
	gate core.ActivationGate
	dict core.FaultDictionary

	activations, corruptions uint64
}

func newCallbackPermanent(p core.PermanentParams, gate core.ActivationGate, dict core.FaultDictionary) *callbackPermanent {
	pi := &callbackPermanent{p: p, gate: gate, dict: dict}
	set := sass.OpcodeSet(sass.FamilyVolta)
	for _, id := range append([]int{p.OpcodeID}, p.ExtraOpcodeIDs...) {
		pi.ops.Add(set[id])
		pi.cats |= 1 << set[id].Info().Cat
	}
	return pi
}

func (pi *callbackPermanent) Name() string                 { return "pf_injector/callback" }
func (pi *callbackPermanent) Record() core.InjectionRecord { return core.InjectionRecord{} }
func (pi *callbackPermanent) Activations() uint64          { return pi.activations }
func (pi *callbackPermanent) Corruptions() uint64          { return pi.corruptions }
func (pi *callbackPermanent) OnLaunchDone(*nvbit.LaunchInfo, gpu.LaunchStats, *gpu.Trap, bool) {
}

func (pi *callbackPermanent) OnLaunch(info *nvbit.LaunchInfo) nvbit.Decision {
	for i := range info.Kernel.Instrs {
		if pi.ops.Has(info.Kernel.Instrs[i].Op) {
			return nvbit.Decision{Instrument: true, Key: "pf"}
		}
	}
	return nvbit.RunOriginal
}

func (pi *callbackPermanent) Instrument(k *sass.Kernel, _ string, ins *nvbit.Inserter) {
	for i := range k.Instrs {
		if pi.cats>>k.Instrs[i].Op.Info().Cat&1 != 0 {
			ins.InsertAfter(i, pi.step)
		}
	}
}

func (pi *callbackPermanent) step(c *gpu.InstrCtx) {
	if !pi.ops.Has(c.Instr.Op) || c.SMID != pi.p.SMID || !c.LaneActive(pi.p.Lane) {
		return
	}
	act := pi.activations
	pi.activations++
	if pi.gate != nil && !pi.gate.Active(act) {
		return
	}
	lane := pi.p.Lane
	var buf sass.FaultTargetBuf
	for _, tg := range c.Instr.FaultTargets(buf[:0]) {
		if tg.IsPred {
			if pi.p.BitMask&1 != 0 {
				c.WritePred(lane, tg.Pred, !c.ReadPred(lane, tg.Pred))
				pi.corruptions++
			}
			continue
		}
		old := c.ReadReg(lane, tg.Reg)
		corrupted := old ^ pi.p.BitMask
		if fn, ok := pi.dict[c.Instr.Op]; ok {
			corrupted = fn(c.Instr.Op, old)
		}
		if corrupted != old {
			c.WriteReg(lane, tg.Reg, corrupted)
			pi.corruptions++
		}
	}
}

// specFaults are the faults TestPermanentSpecDifferential injects on one
// program: stuck-at-1 and stuck-at-0 as the stuck model builds them (through
// a FaultDictionary), the stuck model's two intermittent gates, and a fault
// on two opcodes at once — a in every one, and b, the program's busiest
// predicate-writing opcode, in the last, whose mask has bit 0 so predicate
// destinations are complemented.
func specFaults(a, b int, sm int) []struct {
	name string
	p    core.PermanentParams
	gate core.ActivationGate
	dict func(mask uint32) core.FaultDictionary
} {
	set := sass.OpcodeSet(sass.FamilyVolta)
	stick := func(one bool) func(uint32) core.FaultDictionary {
		return func(mask uint32) core.FaultDictionary {
			fn := func(_ sass.Op, old uint32) uint32 { return old &^ mask }
			if one {
				fn = func(_ sass.Op, old uint32) uint32 { return old | mask }
			}
			return core.FaultDictionary{set[a]: fn}
		}
	}
	params := func(bit int, extra ...int) core.PermanentParams {
		return core.PermanentParams{SMID: sm, Lane: 5 + sm, BitMask: 1 << bit, OpcodeID: a, ExtraOpcodeIDs: extra}
	}
	return []struct {
		name string
		p    core.PermanentParams
		gate core.ActivationGate
		dict func(mask uint32) core.FaultDictionary
	}{
		{"stuck-at-1", params(0), nil, stick(true)},
		{"stuck-at-0", params(3), nil, stick(false)},
		{"p=0.25", params(7), core.RandomGate{P: 0.25, Seed: 11}, stick(true)},
		{"burst=2/5", params(12), core.BurstGate{Period: 5, BurstLen: 2, Offset: 3}, stick(true)},
		{"two-opcode", params(0, b), nil, nil},
	}
}

// busiestOps returns the program's most executed opcode with a register
// destination and its most executed predicate-writing opcode (the runner-up
// of the first kind when it has none), as Volta opcode ids.
func busiestOps(t *testing.T, profile *core.Profile) (gp, pr int) {
	t.Helper()
	type opCount struct {
		op sass.Op
		n  uint64
	}
	var counts []opCount
	for op, n := range profile.OpcodeTotals() {
		counts = append(counts, opCount{op, n})
	}
	sort.Slice(counts, func(i, j int) bool {
		if counts[i].n != counts[j].n {
			return counts[i].n > counts[j].n
		}
		return counts[i].op < counts[j].op
	})
	id := map[sass.Op]int{}
	for i, op := range sass.OpcodeSet(sass.FamilyVolta) {
		id[op] = i
	}
	gp, pr = -1, -1
	for _, c := range counts {
		flags := c.op.Info().Flags
		switch {
		case gp < 0 && flags&sass.FlagWritesGP != 0:
			gp = id[c.op]
		case pr < 0 && flags&sass.FlagWritesPR != 0:
			pr = id[c.op]
		}
	}
	if gp < 0 {
		t.Fatal("no opcode with a register destination executes")
	}
	if pr < 0 {
		for _, c := range counts {
			if c.op.Info().Flags&sass.FlagWritesGP != 0 && id[c.op] != gp {
				pr = id[c.op]
				break
			}
		}
	}
	return gp, pr
}

// TestPermanentSpecDifferential: the permanent fault as engine data is the
// per-instruction closure it replaced. For every shipped program, five faults
// (stuck-at-1, stuck-at-0, p=0.25, burst=2/5, two opcodes) on SM 0 and SM 7,
// core.PermanentInjector on the batched loop, the reference loop and the
// legacy scheduler produces the output, LaunchStats (trampolines included),
// trap, device digest, activations and corruptions of callbackPermanent on
// the reference loop. Under -race and -short two programs stand in for the
// fifteen.
func TestPermanentSpecDifferential(t *testing.T) {
	engines := []struct {
		name string
		set  func(*gpu.Device)
	}{
		{"reference", func(d *gpu.Device) { d.NoXlate = true }},
		{"batched", func(*gpu.Device) {}},
		{"legacy-sched", func(d *gpu.Device) { d.LegacySched = true }},
	}
	names := specaccel.Names()
	if race.Enabled || testing.Short() {
		names = []string{"303.ostencil", "353.clvrleaf"}
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			w, err := specaccel.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			r := campaign.Runner{}
			golden, err := r.Golden(w)
			if err != nil {
				t.Fatal(err)
			}
			profile, _, err := r.Profile(w, core.Exact)
			if err != nil {
				t.Fatal(err)
			}
			budget := 10 * max(golden.Stats.WarpInstrs, campaign.MinBudgetCalibration)
			a, b := busiestOps(t, profile)
			var corrupted uint64
			for _, sm := range []int{0, 7} {
				for _, f := range specFaults(a, b, sm) {
					var dict core.FaultDictionary
					if f.dict != nil {
						dict = f.dict(f.p.BitMask)
					}
					var ref *callbackPermanent
					want := runUnderEngine(t, w, budget, engines[0].set, func() (nvbit.Tool, error) {
						ref = newCallbackPermanent(f.p, f.gate, dict)
						return ref, nil
					})
					if want.stats.TrampolineInstrs == 0 {
						t.Fatalf("SM %d %s: no trampolines charged", sm, f.name)
					}
					corrupted += ref.Corruptions()
					for _, e := range engines {
						var inj *core.PermanentInjector
						got := runUnderEngine(t, w, budget, e.set, func() (nvbit.Tool, error) {
							var err error
							if inj, err = core.NewPermanentInjector(f.p, sass.FamilyVolta, 8); err != nil {
								return nil, err
							}
							inj.SetGate(f.gate)
							inj.SetDictionary(dict)
							return inj, nil
						})
						label := fmt.Sprintf("SM %d %s on %s", sm, f.name, e.name)
						if !got.out.Equal(want.out) || got.out.ExitCode != want.out.ExitCode {
							t.Errorf("%s: output differs from the callback's", label)
						}
						got.out = want.out
						if got != want {
							t.Errorf("%s:\n got %+v\nwant %+v", label, got, want)
						}
						if inj.Corruptions() != ref.Corruptions() {
							t.Errorf("%s: %d corruptions, the callback made %d", label, inj.Corruptions(), ref.Corruptions())
						}
					}
				}
			}
			if corrupted == 0 {
				t.Error("no fault corrupted anything")
			}
		})
	}
}
