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
	f := &memfaultInjector{stuckAt1: cfg.stuckAt1, mask: 1 << bit}
	f.SingleSite = core.NewSingleSite(p, "memfault_injector", fmt.Sprintf("memfault:arm@%d", p.StaticInstrIdx),
		opSet(in.Op), nil, f.arm)
	return f, nil
}

// memfaultInjector arms a stuck device-memory bit at the resolved load site
// and keeps it asserted for the rest of the workload.
type memfaultInjector struct {
	core.SingleSite
	stuckAt1 bool
	mask     uint32

	armed   bool // the stuck cell is live
	addr    uint32
	asserts uint64
}

// Activations counts bit corrections: the arming assertion plus every
// re-assertion that had to undo a store.
func (f *memfaultInjector) Activations() uint64 { return f.asserts }

// memfaultLiveKey names the instrumentation of launches after the arming one:
// store re-assertion only.
const memfaultLiveKey = "memfault:live"

// OnLaunch instruments the arming launch as a single-site fault and, once
// the cell is stuck, every later launch for store re-assertion.
func (f *memfaultInjector) OnLaunch(info *nvbit.LaunchInfo) nvbit.Decision {
	if d := f.SingleSite.OnLaunch(info); d.Instrument {
		return d
	}
	if f.armed {
		return nvbit.Decision{Instrument: true, Key: memfaultLiveKey}
	}
	return nvbit.RunOriginal
}

// Instrument arms the countdown on the arming launch and hooks re-assertion
// on every store site, inert until the cell is stuck — sticky by design, so
// these stay callbacks.
func (f *memfaultInjector) Instrument(k *sass.Kernel, key string, ins *nvbit.Inserter) {
	if key != memfaultLiveKey {
		f.SingleSite.Instrument(k, key, ins)
	}
	reassert := f.reassert // one method value for every site
	for i := range k.Instrs {
		if k.Instrs[i].Op.Info().Flags&sass.FlagStore != 0 {
			ins.InsertAfter(i, reassert)
		}
	}
}

// arm is the hit: it picks the stuck cell from the live allocation map and
// asserts it. The landing lane plays no part: the cell is device memory.
func (f *memfaultInjector) arm(c *gpu.InstrCtx, _ int) {
	f.Rec = core.HitRecord(c)
	f.Rec.Mask = f.mask
	spans := c.Dev.Mem.Spans()
	var totalWords uint64
	for _, s := range spans {
		totalWords += uint64(s.Size / 4)
	}
	if totalWords == 0 {
		f.Rec.NoDestination = true
		return
	}
	idx := uint64(f.P.DestRegSelect * float64(totalWords))
	for _, s := range spans {
		w := uint64(s.Size / 4)
		if idx < w {
			f.addr = s.Base + uint32(idx)*4
			break
		}
		idx -= w
	}
	f.armed = true
	f.Rec.Target = fmt.Sprintf("mem[0x%x]", f.addr)
	if v, trap := c.Dev.Mem.Load(f.addr, 4); trap == 0 {
		f.Rec.Before = uint32(v)
	}
	f.assert(c.Dev.Mem)
	if v, trap := c.Dev.Mem.Load(f.addr, 4); trap == 0 {
		f.Rec.After = uint32(v)
	}
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
