package faultmodel

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/nvbit"
	"repro/internal/sass"
)

// The single-site models as per-instruction closures: their injectors before
// the countdown became engine data (gpu.Shot), kept as the references the
// one-shot spec is held to (TestSingleSiteSpecDifferential). Each counts down
// in its own After callbacks — opsub reads its sources in a Before callback
// too — and once it has fired stays inert, while the engine keeps dispatching
// it to the end of the launch.

// callbackCountdown is the countdown every reference ran: the target launch,
// the eligible executions counted so far, and the landing rule.
type callbackCountdown struct {
	p       core.TransientParams
	counter uint64
	active  bool
	fired   bool
	rec     core.InjectionRecord
}

func (cd *callbackCountdown) Record() core.InjectionRecord { return cd.rec }
func (cd *callbackCountdown) Activations() uint64          { return 0 }
func (cd *callbackCountdown) OnLaunchDone(*nvbit.LaunchInfo, gpu.LaunchStats, *gpu.Trap, bool) {
	cd.active = false
}

// target reports whether info is the target launch, starting the count there.
func (cd *callbackCountdown) target(info *nvbit.LaunchInfo) bool {
	if info.Kernel.Name != cd.p.KernelName || info.LaunchIndex != cd.p.KernelCount {
		return false
	}
	cd.active, cd.counter = true, 0
	return true
}

// land counts the execution c describes and returns the landing lane, or -1
// while the target lies further on.
func (cd *callbackCountdown) land(c *gpu.InstrCtx) int {
	if !cd.active || cd.fired {
		return -1
	}
	n := uint64(c.LaneCount())
	if cd.counter+n <= cd.p.InstrCount {
		cd.counter += n
		return -1
	}
	k := cd.p.InstrCount - cd.counter
	cd.counter += n
	for lane := 0; lane < gpu.WarpSize; lane++ {
		if !c.LaneActive(lane) {
			continue
		}
		if k == 0 {
			return lane
		}
		k--
	}
	return -1
}

// header fills the record fields every model sets.
func (cd *callbackCountdown) header(c *gpu.InstrCtx, instrIdx int) {
	cd.fired = true
	cd.rec = core.InjectionRecord{
		Activated: true,
		Kernel:    c.Kernel.Name,
		InstrIdx:  int32(instrIdx),
		Opcode:    c.Instr.Op,
		SMID:      int32(c.SMID),
		BlockLin:  int32(c.BlockLin),
		WarpID:    int32(c.WarpID),
	}
}

// callbackTransient is core.TransientInjector as it was: an After callback on
// every instruction of the group (or on the one resolved site), with the
// thread-targeted countdown of its own.
type callbackTransient struct{ callbackCountdown }

func (t *callbackTransient) Name() string { return "injector/callback" }

func (t *callbackTransient) OnLaunch(info *nvbit.LaunchInfo) nvbit.Decision {
	if !t.target(info) {
		return nvbit.RunOriginal
	}
	return nvbit.Decision{Instrument: true, Key: "inject"}
}

func (t *callbackTransient) Instrument(k *sass.Kernel, _ string, ins *nvbit.Inserter) {
	for i := range k.Instrs {
		if t.p.SiteResolved && i != t.p.StaticInstrIdx || !sass.GroupContains(t.p.Group, k.Instrs[i].Op) {
			continue
		}
		idx := i
		ins.InsertAfter(i, func(c *gpu.InstrCtx) { t.step(c, idx) })
	}
}

func (t *callbackTransient) step(c *gpu.InstrCtx, instrIdx int) {
	lane := -1
	if sel := t.p.Thread; sel == nil {
		lane = t.land(c)
	} else if t.active && !t.fired && c.BlockLin == sel.BlockLinear && c.WarpID == sel.WarpID && c.LaneActive(sel.Lane) {
		if t.counter < t.p.InstrCount {
			t.counter++
		} else {
			lane = sel.Lane
		}
	}
	if lane < 0 {
		return
	}
	t.fired = true
	core.CorruptDestN(&t.rec, c, instrIdx, lane, t.p.BitFlip, t.p.DestRegSelect,
		t.p.BitPatternValue, t.p.MultiRegCount)
}

// callbackPredflip is predflipInjector as it was.
type callbackPredflip struct {
	callbackCountdown
	guard bool
}

func (f *callbackPredflip) Name() string { return "predflip_injector/callback" }

func (f *callbackPredflip) OnLaunch(info *nvbit.LaunchInfo) nvbit.Decision {
	if !f.target(info) {
		return nvbit.RunOriginal
	}
	return nvbit.Decision{Instrument: true, Key: "predflip"}
}

func (f *callbackPredflip) Instrument(k *sass.Kernel, _ string, ins *nvbit.Inserter) {
	if i := f.p.StaticInstrIdx; i < len(k.Instrs) {
		ins.InsertAfter(i, f.step)
	}
}

func (f *callbackPredflip) step(c *gpu.InstrCtx) {
	lane := f.land(c)
	if lane < 0 {
		return
	}
	f.header(c, f.p.StaticInstrIdx)
	f.rec.Lane = int32(lane)
	var preds []sass.PredID
	if f.guard {
		if g := c.Instr.Guard.Pred; g != sass.PT {
			preds = append(preds, g)
		}
	} else {
		for i := range c.Instr.Dst {
			if d := &c.Instr.Dst[i]; d.Kind == sass.OpdPred && d.Pred.Pred != sass.PT {
				preds = append(preds, d.Pred.Pred)
			}
		}
	}
	if len(preds) == 0 {
		f.rec.NoDestination = true
		return
	}
	pr := preds[int(f.p.DestRegSelect*float64(len(preds)))]
	before := c.ReadPred(lane, pr)
	c.WritePred(lane, pr, !before)
	f.rec.Target = pr.String()
	f.rec.PredValue = !before
	if before {
		f.rec.Before = 1
	} else {
		f.rec.After = 1
	}
}

// callbackOpsub is opsubInjector as it was: a Before callback that finds the
// landing lane and captures its sources, an After callback that counts and
// writes the substitute result.
type callbackOpsub struct {
	callbackCountdown
	sub      subEntry
	captured bool
	lane     int
	src      [3]uint32
}

func (o *callbackOpsub) Name() string { return "opsub_injector/callback" }

func (o *callbackOpsub) OnLaunch(info *nvbit.LaunchInfo) nvbit.Decision {
	if !o.target(info) {
		return nvbit.RunOriginal
	}
	return nvbit.Decision{Instrument: true, Key: "opsub"}
}

func (o *callbackOpsub) Instrument(k *sass.Kernel, _ string, ins *nvbit.Inserter) {
	if i := o.p.StaticInstrIdx; i < len(k.Instrs) {
		ins.InsertBefore(i, o.before)
		ins.InsertAfter(i, o.after)
	}
}

func (o *callbackOpsub) before(c *gpu.InstrCtx) {
	if !o.active || o.fired {
		return
	}
	n := uint64(c.LaneCount())
	if o.counter+n <= o.p.InstrCount {
		return
	}
	k := o.p.InstrCount - o.counter
	for lane := 0; lane < gpu.WarpSize; lane++ {
		if !c.LaneActive(lane) {
			continue
		}
		if k > 0 {
			k--
			continue
		}
		o.lane = lane
		o.src = [3]uint32{}
		j := 0
		for si := range c.Instr.Src {
			if j >= len(o.src) {
				break
			}
			switch s := &c.Instr.Src[si]; s.Kind {
			case sass.OpdReg:
				o.src[j] = c.ReadReg(lane, s.Reg)
				j++
			case sass.OpdImm:
				o.src[j] = s.Imm
				j++
			}
		}
		o.captured = true
		return
	}
}

func (o *callbackOpsub) after(c *gpu.InstrCtx) {
	if !o.active || o.fired {
		return
	}
	o.counter += uint64(c.LaneCount())
	if !o.captured {
		return
	}
	o.captured = false
	o.header(c, o.p.StaticInstrIdx)
	o.rec.Lane = int32(o.lane)
	var dst sass.RegID
	found := false
	for i := range c.Instr.Dst {
		if d := &c.Instr.Dst[i]; d.Kind == sass.OpdReg && d.Reg != sass.RZ {
			dst, found = d.Reg, true
			break
		}
	}
	if !found {
		o.rec.NoDestination = true
		return
	}
	before := c.ReadReg(o.lane, dst)
	after := o.sub.fn(o.src[0], o.src[1], o.src[2])
	c.WriteReg(o.lane, dst, after)
	o.rec.Target = dst.String()
	o.rec.Before = before
	o.rec.After = after
	o.rec.Mask = before ^ after
}

// callbackMemfault is memfaultInjector as it was: the arming countdown an
// After callback on the load site, next to the store re-assertion callbacks.
type callbackMemfault struct {
	callbackCountdown
	stuckAt1 bool
	mask     uint32
	armed    bool
	addr     uint32
	asserts  uint64
}

func (f *callbackMemfault) Name() string        { return "memfault_injector/callback" }
func (f *callbackMemfault) Activations() uint64 { return f.asserts }

func (f *callbackMemfault) OnLaunch(info *nvbit.LaunchInfo) nvbit.Decision {
	if f.target(info) {
		return nvbit.Decision{Instrument: true, Key: "memfault:arm"}
	}
	if f.armed {
		return nvbit.Decision{Instrument: true, Key: memfaultLiveKey}
	}
	return nvbit.RunOriginal
}

func (f *callbackMemfault) Instrument(k *sass.Kernel, key string, ins *nvbit.Inserter) {
	if key != memfaultLiveKey {
		if i := f.p.StaticInstrIdx; i < len(k.Instrs) {
			ins.InsertAfter(i, f.step)
		}
	}
	for i := range k.Instrs {
		if k.Instrs[i].Op.Info().Flags&sass.FlagStore != 0 {
			ins.InsertAfter(i, f.reassert)
		}
	}
}

func (f *callbackMemfault) step(c *gpu.InstrCtx) {
	if f.land(c) < 0 {
		return
	}
	f.header(c, f.p.StaticInstrIdx)
	f.rec.Mask = f.mask
	spans := c.Dev.Mem.Spans()
	var totalWords uint64
	for _, s := range spans {
		totalWords += uint64(s.Size / 4)
	}
	if totalWords == 0 {
		f.rec.NoDestination = true
		return
	}
	idx := uint64(f.p.DestRegSelect * float64(totalWords))
	for _, s := range spans {
		w := uint64(s.Size / 4)
		if idx < w {
			f.addr = s.Base + uint32(idx)*4
			break
		}
		idx -= w
	}
	f.armed = true
	f.rec.Target = fmt.Sprintf("mem[0x%x]", f.addr)
	if v, trap := c.Dev.Mem.Load(f.addr, 4); trap == 0 {
		f.rec.Before = uint32(v)
	}
	f.assert(c.Dev.Mem)
	if v, trap := c.Dev.Mem.Load(f.addr, 4); trap == 0 {
		f.rec.After = uint32(v)
	}
}

func (f *callbackMemfault) reassert(c *gpu.InstrCtx) {
	if f.armed {
		f.assert(c.Dev.Mem)
	}
}

func (f *callbackMemfault) assert(mem *gpu.Memory) {
	v, trap := mem.Load(f.addr, 4)
	if trap != 0 {
		return
	}
	want := uint32(v) &^ f.mask
	if f.stuckAt1 {
		want = uint32(v) | f.mask
	}
	if want != uint32(v) {
		mem.Store(f.addr, 4, uint64(want))
		f.asserts++
	}
}

// newCallbackInjector builds the reference of a single-site model's injector
// for the tuple and parameter its NewInjector takes, validated by it.
func newCallbackInjector(model string, p core.TransientParams, param string, env Env) (Injector, error) {
	m, err := Lookup(model)
	if err != nil {
		return nil, err
	}
	if _, err := m.NewInjector(p, param, env); err != nil {
		return nil, err
	}
	cd := callbackCountdown{p: p}
	switch m.Name() {
	case DefaultName:
		return &callbackTransient{cd}, nil
	case "predflip":
		guard, _ := parsePredflipParam(param)
		return &callbackPredflip{callbackCountdown: cd, guard: guard}, nil
	case "opsub":
		in, _ := env.instrAt(p)
		sub, err := pickSub(in.Op, p, env)
		if err != nil {
			return nil, err
		}
		return &callbackOpsub{callbackCountdown: cd, sub: sub}, nil
	case "memfault":
		cfg, _ := parseMemfaultParam(param)
		bit := cfg.bit
		if bit < 0 {
			bit = int(p.BitPatternValue*32) & 31
		}
		return &callbackMemfault{callbackCountdown: cd, stuckAt1: cfg.stuckAt1, mask: 1 << bit}, nil
	}
	return nil, fmt.Errorf("faultmodel: %s is not a single-site model", model)
}
