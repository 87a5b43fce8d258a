package faultmodel

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/nvbit"
	"repro/internal/sass"
)

// memfaultModel is the storage-cell fault: from the selected dynamic
// execution of a load site onward, one bit of one word of device memory is
// stuck at 0 or 1. The tuple's unit floats pick the word (a fraction over
// the live allocation spans) and the bit; the stuck value comes from the
// parameter. The bit is asserted when the fault arms and re-asserted after
// every subsequent store, so writes cannot heal the cell — the defining
// difference from a transient flip of a loaded value.
//
// Selection targets load sites (GroupLD) so the armed fault sits on a
// buffer the kernel demonstrably reads; the corrupted cell itself is chosen
// independently of the site.
type memfaultModel struct{}

func init() { register(memfaultModel{}) }

func (memfaultModel) Name() string { return "memfault" }

func (memfaultModel) Description() string {
	return "stuck-at-0/1 bit in one device-memory word, armed at a load site and re-asserted after every store"
}

func (memfaultModel) DefaultGroup() sass.Group { return sass.GroupLD }

// EligibleOp accepts memory loads: the arming site must touch memory.
func (memfaultModel) EligibleOp(op sass.Op) bool { return op.Info().IsLoad() }

func (memfaultModel) Caps() Caps { return 0 }

func (memfaultModel) ValidateParam(param string) error {
	_, err := parseMemfaultParam(param)
	return err
}

type memfaultConfig struct {
	stuckAt1 bool
	bit      int // -1 = derive from the tuple
}

func parseMemfaultParam(param string) (memfaultConfig, error) {
	cfg := memfaultConfig{stuckAt1: true, bit: -1}
	kv, err := parseParam(param, "value", "bit")
	if err != nil {
		return cfg, err
	}
	if v, ok := kv["value"]; ok {
		switch v {
		case "0":
			cfg.stuckAt1 = false
		case "1":
			cfg.stuckAt1 = true
		default:
			return cfg, fmt.Errorf("faultmodel: memfault value=%q (want 0 or 1)", v)
		}
	}
	if cfg.bit, err = kv.intParam("bit", -1, 0, 31); err != nil {
		return cfg, err
	}
	return cfg, nil
}

func (m memfaultModel) NewInjector(p core.TransientParams, param string, env Env) (Injector, error) {
	cfg, err := parseMemfaultParam(param)
	if err != nil {
		return nil, err
	}
	in, err := env.instrAt(p)
	if err != nil {
		return nil, err
	}
	if !m.EligibleOp(in.Op) {
		return nil, fmt.Errorf("faultmodel: memfault arming site %v at %s@%d is not a load",
			in.Op, p.KernelName, p.StaticInstrIdx)
	}
	bit := cfg.bit
	if bit < 0 {
		bit = int(p.BitPatternValue*32) & 31
	}
	return &memfaultInjector{p: p, stuckAt1: cfg.stuckAt1, mask: 1 << bit}, nil
}

// memfaultInjector arms a stuck device-memory bit at the resolved load site
// and keeps it asserted for the rest of the workload.
type memfaultInjector struct {
	p        core.TransientParams
	stuckAt1 bool
	mask     uint32

	counter uint64
	active  bool // inside the arming launch, still counting down
	armed   bool // the stuck cell is live
	addr    uint32
	asserts uint64
	rec     core.InjectionRecord
}

var _ nvbit.Tool = (*memfaultInjector)(nil)

func (f *memfaultInjector) Name() string                 { return "memfault_injector" }
func (f *memfaultInjector) Record() core.InjectionRecord { return f.rec }

// Activations counts bit corrections: the arming assertion plus every
// re-assertion that had to undo a store.
func (f *memfaultInjector) Activations() uint64 { return f.asserts }

// memfaultLiveKey names the instrumentation of launches after the arming one:
// store re-assertion only.
const memfaultLiveKey = "memfault:live"

func (f *memfaultInjector) OnLaunch(info *nvbit.LaunchInfo) nvbit.Decision {
	if info.Kernel.Name == f.p.KernelName && info.LaunchIndex == f.p.KernelCount {
		f.active = true
		f.counter = 0
		return nvbit.Decision{Instrument: true, Key: fmt.Sprintf("memfault:arm@%d", f.p.StaticInstrIdx)}
	}
	// Once armed, every later launch re-asserts after its stores.
	if f.armed {
		return nvbit.Decision{Instrument: true, Key: memfaultLiveKey}
	}
	return nvbit.RunOriginal
}

func (f *memfaultInjector) Instrument(k *sass.Kernel, key string, ins *nvbit.Inserter) {
	if key != memfaultLiveKey { // the arming launch
		if i := f.p.StaticInstrIdx; i < len(k.Instrs) {
			ins.InsertAfter(i, f.step)
		}
	}
	// Re-assertion hooks on every store site; inert until armed.
	reassert := f.reassert // one method value for every site
	for i := range k.Instrs {
		if k.Instrs[i].Op.Info().Flags&sass.FlagStore != 0 {
			ins.InsertAfter(i, reassert)
		}
	}
}

// step runs the arming countdown over thread-level executions of the site.
func (f *memfaultInjector) step(c *gpu.InstrCtx) {
	if !f.active || f.armed {
		return
	}
	n := uint64(c.LaneCount())
	f.counter += n
	if f.counter <= f.p.InstrCount {
		return
	}
	f.arm(c)
}

// arm picks the stuck cell from the live allocation map and asserts it.
func (f *memfaultInjector) arm(c *gpu.InstrCtx) {
	f.rec = core.InjectionRecord{
		Activated: true,
		Kernel:    c.Kernel.Name,
		InstrIdx:  int32(f.p.StaticInstrIdx),
		Opcode:    c.Instr.Op,
		SMID:      int32(c.SMID),
		BlockLin:  int32(c.BlockLin),
		WarpID:    int32(c.WarpID),
		Mask:      f.mask,
	}
	spans := c.Dev.Mem.Spans()
	var totalWords uint64
	for _, s := range spans {
		totalWords += uint64(s.Size / 4)
	}
	if totalWords == 0 {
		f.rec.NoDestination = true
		f.active = false
		c.Disarm()
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
	// No Disarm: the cell stays stuck, so the re-assert hooks must keep
	// running for the rest of this launch and all later ones.
}

// reassert forces the stuck bit back after a store may have overwritten it.
func (f *memfaultInjector) reassert(c *gpu.InstrCtx) {
	if f.armed {
		f.assert(c.Dev.Mem)
	}
}

// assert forces the stuck bit's value, counting only real corrections.
func (f *memfaultInjector) assert(mem *gpu.Memory) {
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

func (f *memfaultInjector) OnLaunchDone(info *nvbit.LaunchInfo, _ gpu.LaunchStats, _ *gpu.Trap, _ bool) {
	if f.active && info.Kernel != nil && info.Kernel.Name == f.p.KernelName &&
		info.LaunchIndex == f.p.KernelCount {
		f.active = false
	}
}
