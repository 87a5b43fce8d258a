package gpu

import (
	"fmt"
	"math/bits"
	"reflect"
	"testing"

	"repro/internal/race"
	"repro/internal/sass"
)

// The single-site fault as engine data (Shot) on the three schedules, held to
// the callbacks it replaces.

// kernelOps returns the set of k's opcodes: a Shot armed on it is armed on
// every instruction.
func kernelOps(k *sass.Kernel) *sass.OpSet {
	var ops sass.OpSet
	for i := range k.Instrs {
		ops.Add(k.Instrs[i].Op)
	}
	return &ops
}

// shotSitesAt derives a Shot's facts for an arbitrary set of armed
// instructions, which NewShotSites (all of an opcode set, or one pc) cannot
// name.
func shotSitesAt(k *sass.Kernel, pre bool, pcs ...int) *CorruptionSites {
	n := len(k.Instrs)
	s := &CorruptionSites{sites: make([]uint32, n+1), next: make([]uint32, n+1)}
	per := uint32(1)
	if pre {
		per = 2
	}
	armed := map[int]bool{}
	for _, pc := range pcs {
		armed[pc] = true
	}
	for pc := 0; pc < n; pc++ {
		s.sites[pc+1] = s.sites[pc]
		if armed[pc] {
			s.sites[pc+1] += per
		}
	}
	s.link(func(pc int) bool { return armed[pc] })
	return s
}

// shotOracle adds to ek the callbacks a Shot stands for — the countdown the
// single-site injectors ran as closures before it became engine data: on each
// armed site (sites) an After callback that counts the execution's lanes and,
// at the target, hits, and, when s has a Pre hook, a Before callback that
// finds the landing lane and runs the hook first. They count into s, and into
// calls (when not nil) every dispatch of theirs. The Before callback goes
// after, and the After callback before, those ek already has at the site:
// the engine runs a Shot's hooks innermost.
func shotOracle(ek *ExecKernel, s *Shot, sites *CorruptionSites, calls *int) {
	n := len(ek.K.Instrs)
	if ek.Before == nil {
		ek.Before = make([][]Callback, n)
	}
	if ek.After == nil {
		ek.After = make([][]Callback, n)
	}
	dispatch := func() {
		if calls != nil {
			*calls++
		}
	}
	land := func(c *InstrCtx) int {
		if s.Fired {
			return -1
		}
		m := c.ActiveMask
		if s.Thread {
			if c.BlockLin != s.Block || c.WarpID != s.Warp {
				return -1
			}
			m &= 1 << uint(s.Lane)
		}
		n := uint64(bits.OnesCount32(m))
		if s.Count+n <= s.Target {
			s.Count += n
			return -1
		}
		k := s.Target - s.Count
		s.Count += n
		for lane := 0; lane < WarpSize; lane++ {
			if m>>uint(lane)&1 == 0 {
				continue
			}
			if k == 0 {
				return lane
			}
			k--
		}
		return -1
	}
	landed := -1
	before := func(c *InstrCtx) {
		dispatch()
		if landed = land(c); landed >= 0 {
			s.Pre(c, landed)
		}
	}
	after := func(c *InstrCtx) {
		dispatch()
		if s.Pre == nil {
			landed = land(c)
		}
		if landed >= 0 {
			s.Hit(c, landed)
			s.Fired, landed = true, -1
		}
	}
	for pc := 0; pc < n; pc++ {
		if !sites.site(int32(pc)) {
			continue
		}
		if s.Pre != nil {
			ek.Before[pc] = append(ek.Before[pc], before)
		}
		ek.After[pc] = append([]Callback{after}, ek.After[pc]...)
	}
}

// armShot puts s on every instruction of ek: as engine data, or, when
// oracle, as the callbacks it stands for.
func armShot(ek *ExecKernel, s *Shot, oracle bool, calls *int) {
	sites := NewShotSites(ek.K, kernelOps(ek.K), -1, s.Pre != nil)
	if oracle {
		shotOracle(ek, s, sites, calls)
		return
	}
	ek.Shot, ek.ShotSites = s, sites
}

// shotHooks counts a Shot's hook calls.
type shotHooks struct{ pres, hits int }

// shortDivShot is the Shot the shortdiv tests arm: it lands on thread-level
// execution target and scrambles the landing lane's R1 — with what a Pre hook
// read of R1 and P2 before the issue mixed in — so a hook run at the wrong
// time, or on the wrong side of a callback at its instruction (armShortDiv's
// IMAD and `MOV R5` callbacks), shows. It moves the result and no control
// flow.
func shortDivShot(target uint64, pre bool, hooks *shotHooks) *Shot {
	s := &Shot{Target: target}
	var read uint32
	if pre {
		s.Pre = func(c *InstrCtx, lane int) {
			hooks.pres++
			read = c.ReadReg(lane, 1) & 0xff0
			if c.ReadPred(lane, 2) {
				read |= 0x1000
			}
		}
	}
	s.Hit = func(c *InstrCtx, lane int) {
		hooks.hits++
		c.WriteReg(lane, 1, c.ReadReg(lane, 1)*3^0x100^read)
	}
	return s
}

// runShortDivShot runs shortdiv — armed with callbacks when armed
// (armShortDiv, its store made to fault when faultStore) — with shortDivShot
// on every instruction: as engine data, or, when oracle, as its callbacks.
func runShortDivShot(t *testing.T, e loopEngine, target uint64, pre, armed, faultStore, oracle bool) (loopRun, shotHooks) {
	t.Helper()
	d := e.device(t)
	calls := 0
	var hooks shotHooks
	l, outp := shortDivLaunch(t, d, armed, &calls, faultStore, 0)
	armShortDivShot(l.Kernel, shortDivShot(target, pre, &hooks), oracle)
	stats, err := d.Run(l)
	return finishLoopRun(t, d, outp, stats, err, calls), hooks
}

// armShortDivShot puts s on every instruction of shortdiv's ek — as engine
// data, or, when oracle, as its callbacks — and, when ek is armed with
// callbacks, two more on every instruction that move every active lane's R1,
// one Before and one After, so a hook of the Shot run on the wrong side of
// the callbacks at its instruction shows.
func armShortDivShot(ek *ExecKernel, s *Shot, oracle bool) {
	bump := func(by uint32) Callback {
		return func(c *InstrCtx) {
			for lane := 0; lane < WarpSize; lane++ {
				if c.LaneActive(lane) {
					c.WriteReg(lane, 1, c.ReadReg(lane, 1)+by)
				}
			}
		}
	}
	for i := range ek.Before {
		ek.Before[i] = append(ek.Before[i], bump(0x10))
		ek.After[i] = append(ek.After[i], bump(0x10000))
	}
	armShot(ek, s, oracle, nil)
}

// TestShotSites: a Shot's facts charge one After site per armed instruction,
// and a Before site too with a Pre hook; armed on one pc, only that pc and
// only when its opcode is in the set.
func TestShotSites(t *testing.T) {
	k := mustKernel(t, shortDivSrc, "shortdiv")
	n := len(k.Instrs)
	all := NewShotSites(k, kernelOps(k), -1, false)
	if all.sites[n] != uint32(n) || all.next[0] != 0 || all.next[n] != uint32(n) {
		t.Errorf("armed on every instruction: %d sites, next[0] = %d", all.sites[n], all.next[0])
	}
	if pre := NewShotSites(k, kernelOps(k), -1, true); pre.sites[n] != uint32(2*n) {
		t.Errorf("with a Pre hook: %d sites, want %d", pre.sites[n], 2*n)
	}
	var imad sass.OpSet
	imad.Add(sass.MustOp("IMAD"))
	at := -1
	for pc := range k.Instrs {
		if k.Instrs[pc].Op.String() == "IMAD" {
			at = pc
		}
	}
	one := NewShotSites(k, &imad, at, false)
	if one.sites[n] != 1 || !one.site(int32(at)) || one.next[0] != uint32(at) || one.next[at+1] != uint32(n) {
		t.Errorf("armed on IMAD@%d: %d sites, next[0] = %d", at, one.sites[n], one.next[0])
	}
	if none := NewShotSites(k, &imad, at+1, false); none.sites[n] != 0 || none.next[0] != uint32(n) {
		t.Errorf("armed on a pc outside the opcode set: %d sites", none.sites[n])
	}
}

// TestShotFaultAtLiveSite: the Shot lands on the store that faults, with a
// Pre hook: the hook runs, the store traps, the fault never hits, and the
// store is charged its Before site up to the trap — on all three engines as in
// the callbacks.
func TestShotFaultAtLiveSite(t *testing.T) {
	full := runShortDiv(t, loopEngines[0], true, true, 0)
	target := full.stats.ThreadInstrs - 1 // the faulting store's last lane
	ref, refHooks := runShortDivShot(t, loopEngines[0], target, true, true, true, true)
	if trap, ok := AsTrap(ref.err); !ok || trap.Kind != TrapIllegalAddress {
		t.Fatalf("err = %v, want an illegal-address trap", ref.err)
	}
	if refHooks != (shotHooks{pres: 1}) {
		t.Fatalf("hooks %+v: the Shot did not land on the faulting store", refHooks)
	}
	for _, e := range loopEngines {
		got, hooks := runShortDivShot(t, e, target, true, true, true, false)
		expectSameLoop(t, e.name, ref, got)
		if hooks != refHooks {
			t.Errorf("%s: hooks %+v, want %+v", e.name, hooks, refHooks)
		}
	}
}

// TestShotThreadTargeted: a Shot restricted to one thread counts only that
// thread's executions and lands on it, on all three engines as in the
// callbacks.
func TestShotThreadTargeted(t *testing.T) {
	for _, sel := range []struct{ warp, lane int }{{0, 6}, {1, 31}} {
		for _, target := range []uint64{0, 17, 40, 1 << 20} {
			run := func(e loopEngine, oracle bool) (loopRun, shotHooks) {
				d := e.device(t)
				calls := 0
				var hooks shotHooks
				l, outp := shortDivLaunch(t, d, true, &calls, false, 0)
				s := shortDivShot(target, true, &hooks)
				s.Thread, s.Warp, s.Lane = true, sel.warp, sel.lane
				armShot(l.Kernel, s, oracle, nil)
				stats, err := d.Run(l)
				return finishLoopRun(t, d, outp, stats, err, calls), hooks
			}
			ref, refHooks := run(loopEngines[0], true)
			if want := target < 1<<20; (refHooks.hits == 1) != want {
				t.Fatalf("warp %d lane %d target %d: hooks %+v", sel.warp, sel.lane, target, refHooks)
			}
			for _, e := range loopEngines {
				got, hooks := run(e, false)
				label := fmt.Sprintf("%s warp %d lane %d target %d", e.name, sel.warp, sel.lane, target)
				expectSameLoop(t, label, ref, got)
				if hooks != refHooks {
					t.Errorf("%s: hooks %+v, want %+v", label, hooks, refHooks)
				}
			}
		}
	}
}

// TestShotLaunchAllocs: a warm launch carrying a Shot allocates nothing,
// armed or spent.
func TestShotLaunchAllocs(t *testing.T) {
	d := loopEngines[1].device(t)
	l, _ := shortDivLaunch(t, d, false, nil, false, 0)
	var hooks shotHooks
	s := shortDivShot(1000, true, &hooks)
	armShot(l.Kernel, s, false, nil)
	avg := testing.AllocsPerRun(10, func() {
		s.Count, s.Fired = 0, false
		if _, err := d.Run(l); err != nil {
			t.Fatal(err)
		}
	})
	if hooks.hits == 0 {
		t.Fatal("the Shot never hit")
	}
	if race.Enabled {
		t.Logf("a Shot launch allocated %.1f objects under -race", avg)
	} else if avg != 0 {
		t.Errorf("a Shot launch allocated %.1f objects, want 0", avg)
	}
}

// TestShotSitesCheck: a launch whose Shot comes without its site facts, or
// next to a Corruption, is refused.
func TestShotSitesCheck(t *testing.T) {
	d := loopEngines[1].device(t)
	l, _ := shortDivLaunch(t, d, false, nil, false, 0)
	k := l.Kernel.K
	var hooks shotHooks
	l.Kernel = &ExecKernel{K: k, Shot: shortDivShot(0, false, &hooks)}
	if _, err := d.Run(l); err == nil {
		t.Fatal("a Shot without sites ran")
	}
	l.Kernel.ShotSites = NewShotSites(k, kernelOps(k), -1, false)
	c, cats := shortDivSpecs[0].build()
	l.Kernel.Corrupt, l.Kernel.CorruptSites = c, NewCorruptionSites(k, cats, &c.Ops)
	if _, err := d.Run(l); err == nil {
		t.Fatal("a Shot beside a Corruption ran")
	}
	if !reflect.DeepEqual(hooks, shotHooks{}) {
		t.Fatalf("a refused launch ran the Shot: %+v", hooks)
	}
}
