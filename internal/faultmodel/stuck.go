package faultmodel

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/sass"
)

// stuckModel is the permanent stuck-at fault: every dynamic instance of the
// selected site's opcode executing on one SM and lane has one destination
// bit forced to 0 or 1 — core.PermanentInjector (the pf_injector analog)
// promoted to a first-class campaign path. The transient selection tuple
// picks the opcode (via the resolved site) and deterministically derives the
// SM/lane/bit coordinates, so the seeded shard streams drive permanent
// campaigns with no new selection machinery.
//
// Optional activation gates make the fault intermittent: "p=0.25" gates each
// activation through a seeded RandomGate, "burst=LEN/PERIOD" through a
// BurstGate — the paper's random/bursty intermittent-fault processes.
//
// None of the destination-flip accelerations are sound here: the fault fires
// on every activation, not one, so a masked class proves nothing and there
// is no fault-free prefix to checkpoint past.
type stuckModel struct{}

func init() { register(stuckModel{}) }

func (stuckModel) Name() string { return "stuck" }

func (stuckModel) Description() string {
	return "permanent stuck-at-0/1 destination bit on one SM lane, with optional activation gates"
}

func (stuckModel) DefaultGroup() sass.Group { return sass.GroupGPPR }

// EligibleOp restricts selection to opcodes with destinations: a stuck
// destination bit needs a destination to stick.
func (stuckModel) EligibleOp(op sass.Op) bool { return op.Info().HasDest() }

func (stuckModel) Caps() Caps { return 0 }

func (stuckModel) ValidateParam(param string) error {
	_, err := parseStuckParam(param)
	return err
}

// stuckConfig is the parsed parameter set.
type stuckConfig struct {
	stuckAt1              bool    // force the bit to 1 (default) or 0
	bit                   int     // bit position, -1 = derive from the tuple
	p                     float64 // RandomGate probability, 0 = ungated
	burstLen, burstPeriod uint64
}

func parseStuckParam(param string) (stuckConfig, error) {
	cfg := stuckConfig{stuckAt1: true, bit: -1}
	kv, err := parseParam(param, "value", "bit", "p", "burst")
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
			return cfg, fmt.Errorf("faultmodel: stuck value=%q (want 0 or 1)", v)
		}
	}
	if cfg.bit, err = kv.intParam("bit", -1, 0, 31); err != nil {
		return cfg, err
	}
	if cfg.p, err = kv.floatParam("p", 0, 0, 1); err != nil {
		return cfg, err
	}
	if b, ok := kv["burst"]; ok {
		if _, err := fmt.Sscanf(strings.TrimSpace(b)+"\n", "%d/%d\n", &cfg.burstLen, &cfg.burstPeriod); err != nil {
			return cfg, fmt.Errorf("faultmodel: stuck burst=%q (want LEN/PERIOD)", b)
		}
		if cfg.burstLen == 0 || cfg.burstPeriod == 0 || cfg.burstLen > cfg.burstPeriod {
			return cfg, fmt.Errorf("faultmodel: stuck burst=%q needs 0 < LEN <= PERIOD", b)
		}
	}
	if cfg.p > 0 && cfg.burstPeriod > 0 {
		return cfg, fmt.Errorf("faultmodel: stuck p= and burst= gates are mutually exclusive")
	}
	return cfg, nil
}

func (stuckModel) NewInjector(p core.TransientParams, param string, env Env) (Injector, error) {
	cfg, err := parseStuckParam(param)
	if err != nil {
		return nil, err
	}
	in, err := env.instrAt(p)
	if err != nil {
		return nil, err
	}
	set := sass.OpcodeSet(env.Family)
	opID := -1
	for i, op := range set {
		if op == in.Op {
			opID = i
			break
		}
	}
	if opID < 0 {
		return nil, fmt.Errorf("faultmodel: opcode %v not in the %v opcode set", in.Op, env.Family)
	}
	// Derive the hardware coordinates as pure functions of the tuple: the
	// discrete identity seeds a splitmix stream for the SM, the unit floats
	// map onto the lane and (absent an override) the bit.
	h := paramHash(p)
	pp := core.PermanentParams{
		SMID:     int(splitmix64(h) % uint64(env.NumSMs)),
		Lane:     int(p.DestRegSelect * 32),
		OpcodeID: opID,
	}
	bit := cfg.bit
	if bit < 0 {
		bit = int(p.BitPatternValue*32) & 31
	}
	pp.BitMask = 1 << bit
	inj, err := core.NewPermanentInjector(pp, env.Family, env.NumSMs)
	if err != nil {
		return nil, err
	}
	// Stuck-at corruption replaces the default XOR: OR the mask in for
	// stuck-at-1, clear it for stuck-at-0. The dictionary covers the target
	// opcode (and any extras, if ever set).
	stick := func(_ sass.Op, old uint32) uint32 {
		if cfg.stuckAt1 {
			return old | pp.BitMask
		}
		return old &^ pp.BitMask
	}
	dict := core.FaultDictionary{}
	for _, id := range append([]int{pp.OpcodeID}, pp.ExtraOpcodeIDs...) {
		dict[set[id]] = stick
	}
	inj.SetDictionary(dict)
	if cfg.p > 0 {
		inj.SetGate(core.RandomGate{P: cfg.p, Seed: int64(splitmix64(h ^ 0xa5a5a5a5))})
	} else if cfg.burstPeriod > 0 {
		inj.SetGate(core.BurstGate{Period: cfg.burstPeriod, BurstLen: cfg.burstLen,
			Offset: splitmix64(h^0x5a5a5a5a) % cfg.burstPeriod})
	}
	return &stuckInjector{PermanentInjector: inj, p: p, op: in.Op}, nil
}

// stuckInjector adapts core.PermanentInjector to the Injector surface.
type stuckInjector struct {
	*core.PermanentInjector
	p  core.TransientParams
	op sass.Op
}

// Record synthesizes the transient-shaped record: the fault activated when
// at least one corruption landed.
func (s *stuckInjector) Record() core.InjectionRecord {
	return core.InjectionRecord{
		Activated: s.Corruptions() > 0,
		Kernel:    s.p.KernelName,
		InstrIdx:  int32(s.p.StaticInstrIdx),
		Opcode:    s.op,
		SMID:      int32(s.P.SMID),
		Lane:      int32(s.P.Lane),
		Mask:      s.P.BitMask,
	}
}
