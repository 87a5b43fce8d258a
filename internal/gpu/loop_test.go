package gpu

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/race"
	"repro/internal/sass"
)

// The batched product loop (runWarp), the per-step reference loop
// (runWarpRef, Device.NoXlate) and the legacy min-PC scan scheduler
// (Device.LegacySched) are three schedules of one machine: every test here
// runs a launch under all three and demands identical observables.
type loopEngine struct {
	name            string
	noXlate, legacy bool
}

var loopEngines = []loopEngine{
	{"reference", true, false}, // first: the oracle the others are held to
	{"batched", false, false},
	{"legacy-sched", false, true},
}

func (e loopEngine) device(t testing.TB) *Device {
	t.Helper()
	d, err := NewDevice(sass.FamilyVolta, 4)
	if err != nil {
		t.Fatal(err)
	}
	d.NoXlate, d.LegacySched = e.noXlate, e.legacy
	return d
}

// shortDivSrc is a short kernel whose two warps split three ways every
// iteration, reconverge, and meet at a barrier: a few hundred warp
// instructions covering batches, clipped diverged batches, single issues,
// uniform and divergent branches, and a barrier wait.
const shortDivSrc = `
.kernel shortdiv
.param outptr
    S2R R0, SR_TID.X
    MOV R1, 0x3
    LOP.AND R8, R0, 0x3
    MOV R2, 0x6
loop:
    ISETP.EQ.AND P0, R8, 0x0, PT
@P0 BRA a
    ISETP.EQ.AND P1, R8, 0x1, PT
@P1 BRA b
    IMAD R1, R1, R0, 0x5
    IADD R1, R1, R8
    LOP.XOR R1, R1, 0x55
    BRA join
a:
    SHL R1, R1, 0x1
    IADD R1, R1, 0x7
    BRA join
b:
    IADD R1, R1, R0
    SHL R3, R1, 0x2
    LOP.XOR R1, R1, R3
join:
    IADD R2, R2, -0x1
    ISETP.NE.AND P0, R2, 0x0, PT
@P0 BRA loop
    BAR.SYNC
    ISETP.GE.AND P2, R0, 0x0, PT
    MOV R5, 0x1
@!P2 MOV R5, 0x2
    IADD R1, R1, R5
    SHL R6, R0, 0x2
    IADD R6, R6, c0[outptr]
    STG.32 [R6], R1
    EXIT
`

const shortDivThreads = 64

// loopRun is everything the engines must agree on for one launch.
type loopRun struct {
	parRun
	clocks []uint64
	digest uint64
	calls  int // callback dispatches
}

func expectSameLoop(t *testing.T, label string, ref, got loopRun) {
	t.Helper()
	expectSame(t, label, ref.parRun, got.parRun)
	if !reflect.DeepEqual(ref.clocks, got.clocks) {
		t.Errorf("%s: smClocks %v, want %v", label, got.clocks, ref.clocks)
	}
	if ref.digest != got.digest {
		t.Errorf("%s: digest %#x, want %#x", label, got.digest, ref.digest)
	}
	if ref.calls != got.calls {
		t.Errorf("%s: %d callback dispatches, want %d", label, got.calls, ref.calls)
	}
}

// armShortDiv instruments shortdiv the way the tools do, with callbacks that
// have architectural effect but no state of their own (so a restored fork can
// re-attach them): an After callback on every instruction that counts
// dispatches, one on the IMAD that perturbs lane 6's result, and a Before
// callback on `MOV R5` that flips P2 for the odd lanes, the guard of the
// instruction right after it in the same batch. faultStore adds a Before
// callback on the store that sends lane 3 to an unmapped address, so the store
// faults mid-batch with its Before trampoline already charged.
func armShortDiv(k *sass.Kernel, calls *int, faultStore bool) *ExecKernel {
	ek := &ExecKernel{K: k, Before: make([][]Callback, len(k.Instrs)), After: make([][]Callback, len(k.Instrs))}
	count := func(*InstrCtx) { *calls++ }
	for i := range k.Instrs {
		in := &k.Instrs[i]
		ek.After[i] = []Callback{count}
		switch {
		case in.Op.String() == "IMAD":
			ek.After[i] = append(ek.After[i], func(c *InstrCtx) {
				if c.LaneActive(6) {
					c.WriteReg(6, 1, c.ReadReg(6, 1)^uint32(c.InstrIdx))
				}
			})
		case in.Op.String() == "MOV" && len(in.Dst) == 1 && in.Dst[0].Reg == 5 && in.Guard.True():
			ek.Before[i] = []Callback{func(c *InstrCtx) {
				for lane := 1; lane < WarpSize; lane += 2 {
					c.WritePred(lane, 2, false)
				}
			}}
		case in.Op.String() == "STG" && faultStore:
			ek.Before[i] = []Callback{func(c *InstrCtx) { c.WriteReg(3, 6, 0x40) }}
		}
	}
	return ek
}

// shortDivLaunch builds the launch on d; armed selects the instrumented
// kernel (armShortDiv).
func shortDivLaunch(t testing.TB, d *Device, armed bool, calls *int, faultStore bool, budget uint64) (*Launch, uint32) {
	t.Helper()
	p, err := sass.Assemble("test", shortDivSrc)
	if err != nil {
		t.Fatal(err)
	}
	k := p.Kernels[0]
	outp, err := d.Mem.Alloc(4 * shortDivThreads)
	if err != nil {
		t.Fatal(err)
	}
	ek := &ExecKernel{K: k}
	if armed {
		ek = armShortDiv(k, calls, faultStore)
	}
	return &Launch{
		Kernel: ek,
		Grid:   Dim3{X: 1, Y: 1, Z: 1},
		Block:  Dim3{X: shortDivThreads, Y: 1, Z: 1},
		Params: []uint32{outp},
		Budget: budget,
	}, outp
}

func finishLoopRun(t testing.TB, d *Device, outp uint32, stats LaunchStats, err error, calls int) loopRun {
	t.Helper()
	out, rerr := d.Mem.ReadBytes(outp, 4*shortDivThreads)
	if rerr != nil {
		t.Fatal(rerr)
	}
	return loopRun{
		parRun: parRun{out: out, stats: stats, err: err, log: d.LogEvents()},
		clocks: append([]uint64(nil), d.smClocks...),
		digest: d.Digest(),
		calls:  calls,
	}
}

func runShortDiv(t testing.TB, e loopEngine, armed, faultStore bool, budget uint64) loopRun {
	t.Helper()
	d := e.device(t)
	calls := 0
	l, outp := shortDivLaunch(t, d, armed, &calls, faultStore, budget)
	stats, err := d.Run(l)
	return finishLoopRun(t, d, outp, stats, err, calls)
}

// TestLoopEquivalence: the plain and the armed launch, run whole.
func TestLoopEquivalence(t *testing.T) {
	for _, armed := range []bool{false, true} {
		ref := runShortDiv(t, loopEngines[0], armed, false, 0)
		if ref.err != nil {
			t.Fatal(ref.err)
		}
		if armed && ref.stats.TrampolineInstrs == 0 {
			t.Fatal("armed launch charged no trampolines")
		}
		for _, e := range loopEngines[1:] {
			expectSameLoop(t, fmt.Sprintf("%s armed=%v", e.name, armed), ref, runShortDiv(t, e, armed, false, 0))
		}
	}
}

// TestFaultMidBatchArmed: a Before callback makes the store fault. The trap
// site, the refunded tail of the batch and the trampolines charged up to and
// including the store's Before site must agree.
func TestFaultMidBatchArmed(t *testing.T) {
	ref := runShortDiv(t, loopEngines[0], true, true, 0)
	if trap, ok := AsTrap(ref.err); !ok || trap.Kind != TrapIllegalAddress {
		t.Fatalf("err = %v, want an illegal-address trap", ref.err)
	}
	for _, e := range loopEngines[1:] {
		expectSameLoop(t, e.name, ref, runShortDiv(t, e, true, true, 0))
	}
}

// TestBeforeCallbackRewritesNextGuard: the Before callback on `MOV R5, 0x1`
// clears P2 on the odd lanes; `@!P2 MOV R5, 0x2` issues right after it in the
// same straight-line batch and must see the rewritten predicate, not a guard
// evaluated ahead of the callback.
func TestBeforeCallbackRewritesNextGuard(t *testing.T) {
	for _, e := range loopEngines {
		plain := runShortDiv(t, e, false, false, 0)
		armed := runShortDiv(t, e, true, false, 0)
		for lane := 0; lane < shortDivThreads; lane++ {
			if lane%WarpSize == 6 {
				continue // the IMAD callback perturbs this lane's sum
			}
			p := binary.LittleEndian.Uint32(plain.out[4*lane:])
			a := binary.LittleEndian.Uint32(armed.out[4*lane:])
			want := p
			if lane%2 == 1 {
				want = p + 1 // R5 became 2 instead of 1
			}
			if a != want {
				t.Fatalf("%s: lane %d stored %#x, want %#x (plain %#x)", e.name, lane, a, want, p)
			}
		}
	}
}

// TestBudgetExhaustionMidBatch: every budget from one instruction up to the
// whole armed launch — so the budget runs dry at every position of every
// batch — must trap at the same PC with the same stats, trampoline charge,
// clocks and callback count on all three engines.
func TestBudgetExhaustionMidBatch(t *testing.T) {
	total := runShortDiv(t, loopEngines[0], true, false, 0).stats.WarpInstrs
	for budget := uint64(1); budget <= total+1; budget++ {
		ref := runShortDiv(t, loopEngines[0], true, false, budget)
		if (ref.err != nil) != (budget < total) {
			t.Fatalf("budget %d of %d: err = %v", budget, total, ref.err)
		}
		for _, e := range loopEngines[1:] {
			expectSameLoop(t, fmt.Sprintf("%s budget=%d", e.name, budget), ref, runShortDiv(t, e, true, false, budget))
		}
	}
}

// TestDisarmMidBatch: a Shot on every instruction of shortdiv lands on every
// 37th thread-level execution in turn — mid-batch, on single issues, before
// and after the barrier, on every lane position — and on none, with and
// without a Pre hook: on the plain launch, whose batches the plain loop runs,
// on the launch armed with callbacks, whose batches issueHooked runs, and on
// the armed launch whose store faults. On all three engines the launch equals
// the reference loop running the callbacks the Shot stands for — beside a
// Before and an After callback on every instruction, when armed: output,
// stats with one trampoline per site the Shot shares with a callback, clocks,
// digest and hook calls. And the landing moves no accounting: stats and clocks
// equal those of the Shot that never lands.
func TestDisarmMidBatch(t *testing.T) {
	for _, v := range []struct{ armed, faultStore bool }{{false, false}, {true, false}, {true, true}} {
		for _, pre := range []bool{false, true} {
			full, _ := runShortDivShot(t, loopEngines[0], math.MaxUint64, pre, v.armed, v.faultStore, true)
			total := full.stats.ThreadInstrs
			var targets []uint64
			for at := uint64(0); at < total; at += 37 {
				targets = append(targets, at)
			}
			targets = append(targets, total-1, total)
			for _, target := range targets {
				label := fmt.Sprintf("armed=%v fault=%v pre=%v target=%d", v.armed, v.faultStore, pre, target)
				ref, refHooks := runShortDivShot(t, loopEngines[0], target, pre, v.armed, v.faultStore, true)
				// The faulting store, the last warp instruction, never completes:
				// a Shot landing there runs only its Pre hook.
				onStore := v.faultStore && target >= total-WarpSize
				if landed := refHooks.hits+refHooks.pres > 0; landed != (target < total && (pre || !onStore)) {
					t.Fatalf("%s of %d: hooks %+v", label, total, refHooks)
				}
				if ref.stats != full.stats || !reflect.DeepEqual(ref.clocks, full.clocks) {
					t.Fatalf("%s moved the accounting: stats %+v clocks %v, without it %+v %v",
						label, ref.stats, ref.clocks, full.stats, full.clocks)
				}
				for _, e := range loopEngines {
					got, hooks := runShortDivShot(t, e, target, pre, v.armed, v.faultStore, false)
					expectSameLoop(t, e.name+" "+label, ref, got)
					if hooks != refHooks {
						t.Errorf("%s %s: hooks %+v, want %+v", e.name, label, hooks, refHooks)
					}
				}
			}
		}
	}
}

// TestPauseEverywhere pauses the launch after every warp-instruction count it
// passes through, plain, armed, and armed with a Shot that lands mid-launch,
// on all three engines. At each position the paused digest must equal the
// reference engine's, a snapshot restored onto a fresh device must digest
// identically and run to the uninterrupted result — its Shot primed with the
// count the paused one reached, as a checkpointed injector's is — and so must
// the paused run itself.
func TestPauseEverywhere(t *testing.T) {
	for _, mode := range []string{"plain", "armed", "shot"} {
		armed, shot := mode != "plain", mode == "shot"
		whole := runShortDiv(t, loopEngines[0], armed, false, 0)
		target := whole.stats.ThreadInstrs/2 + 5
		var wholeHooks shotHooks
		if shot {
			whole, wholeHooks = runShortDivShot(t, loopEngines[0], target, true, true, false, false)
			if wholeHooks.hits != 1 {
				t.Fatalf("the Shot hit %d times", wholeHooks.hits)
			}
		}
		total := int64(whole.stats.WarpInstrs)
		if total < 200 {
			t.Fatalf("kernel issues only %d warp instructions", total)
		}
		refDigests := make([]uint64, total)
		for _, e := range loopEngines {
			for pos := int64(1); pos < total; pos++ {
				label := fmt.Sprintf("%s %s pause@%d", e.name, mode, pos)
				d := e.device(t)
				calls := 0
				l, outp := shortDivLaunch(t, d, armed, &calls, false, 0)
				var s *Shot
				var hooks shotHooks
				if shot {
					s = shortDivShot(target, true, &hooks)
					armShortDivShot(l.Kernel, s, false)
				}
				r, err := d.BeginRun(l)
				if err != nil {
					t.Fatal(err)
				}
				if paused, err := r.Resume(pos); !paused || err != nil {
					t.Fatalf("%s: Resume = (%v, %v)", label, paused, err)
				}
				if got := int64(r.Stats().WarpInstrs); got != pos {
					t.Fatalf("%s: paused after %d warp instructions", label, got)
				}
				dig := r.Digest()
				if e == loopEngines[0] {
					refDigests[pos] = dig
				} else if dig != refDigests[pos] {
					t.Fatalf("%s: digest %#x, reference %#x", label, dig, refDigests[pos])
				}
				snap, err := r.Snapshot()
				if err != nil {
					t.Fatal(err)
				}

				// The fork: restore, re-attach the callbacks, run out.
				fork := e.device(t)
				fr, err := fork.Restore(snap)
				if err != nil {
					t.Fatalf("%s: Restore: %v", label, err)
				}
				if got := fr.Digest(); got != dig {
					t.Fatalf("%s: restored digest %#x, snapshotted %#x", label, got, dig)
				}
				forkCalls, forkHooks := calls, hooks
				if armed {
					ek := armShortDiv(l.Kernel.K, &forkCalls, false)
					if shot {
						fs := shortDivShot(target, true, &forkHooks)
						fs.Count, fs.Fired = s.Count, s.Fired
						armShortDivShot(ek, fs, false)
					}
					if err := fr.SetExecKernel(ek); err != nil {
						t.Fatal(err)
					}
				}
				if paused, err := fr.Resume(-1); paused || err != nil {
					t.Fatalf("%s: fork Resume(-1) = (%v, %v)", label, paused, err)
				}
				expectSameLoop(t, label+" fork", whole, finishLoopRun(t, fork, outp, fr.Stats(), nil, forkCalls))
				if forkHooks != wholeHooks {
					t.Fatalf("%s fork: hooks %+v, want %+v", label, forkHooks, wholeHooks)
				}

				// The paused run itself.
				if paused, err := r.Resume(-1); paused || err != nil {
					t.Fatalf("%s: Resume(-1) = (%v, %v)", label, paused, err)
				}
				expectSameLoop(t, label+" resumed", whole, finishLoopRun(t, d, outp, r.Stats(), nil, calls))
				if hooks != wholeHooks {
					t.Fatalf("%s resumed: hooks %+v, want %+v", label, hooks, wholeHooks)
				}
				if t.Failed() {
					return
				}
			}
		}
	}
}

// TestLaunchRunClose: a run abandoned while paused gives its block back,
// reports closed from then on, and its device starts the next run cleanly.
func TestLaunchRunClose(t *testing.T) {
	d := loopEngines[1].device(t)
	l, outp := shortDivLaunch(t, d, false, nil, false, 0)
	r, err := d.BeginRun(l)
	if err != nil {
		t.Fatal(err)
	}
	if paused, err := r.Resume(50); !paused || err != nil {
		t.Fatalf("Resume = (%v, %v)", paused, err)
	}
	r.Close()
	r.Close()
	if paused, err := r.Resume(-1); paused || err != errRunClosed {
		t.Fatalf("Resume after Close = (%v, %v), want errRunClosed", paused, err)
	}
	stats, err := d.Run(l)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := d.Mem.ReadBytes(outp, 4*shortDivThreads)
	if whole := runShortDiv(t, loopEngines[1], false, false, 0); stats != whole.stats || !bytes.Equal(out, whole.out) {
		t.Fatalf("launch after a closed run: stats %+v, want %+v", stats, whole.stats)
	}
}

// tallyShortDiv instruments shortdiv to count every instruction's active
// lanes after it completes — in line through ExecKernel.Tally, or, as the
// oracle, through an After callback on every instruction that does the same
// into counts — next to armShortDiv's guard-rewriting Before callback and,
// when faultStore, the Before callback that makes the store fault.
func tallyShortDiv(k *sass.Kernel, counts []SiteTally, inline, faultStore bool) *ExecKernel {
	calls := 0
	armed := armShortDiv(k, &calls, faultStore)
	ek := &ExecKernel{K: k, Before: armed.Before}
	if inline {
		ek.Tally = counts
		return ek
	}
	count := func(c *InstrCtx) { counts[c.InstrIdx].add(uint64(c.LaneCount())) }
	ek.After = make([][]Callback, len(k.Instrs))
	for i := range ek.After {
		ek.After[i] = []Callback{count}
	}
	return ek
}

// TestInlineTally: the in-line tally is the After callback it replaces. On
// all three engines a launch that tallies in line reports the counts, stats
// (trampolines included), clocks, output and digest of the launch that counts
// through a callback on every instruction — run whole, and with the store
// made to fault, where the faulting issue has its Before trampoline charged
// but is not tallied.
func TestInlineTally(t *testing.T) {
	p, err := sass.Assemble("test", shortDivSrc)
	if err != nil {
		t.Fatal(err)
	}
	k := p.Kernels[0]
	store := -1
	for i := range k.Instrs {
		if k.Instrs[i].Op.String() == "STG" {
			store = i
		}
	}
	for _, faultStore := range []bool{false, true} {
		var ref loopRun
		var refCounts []SiteTally
		for _, e := range loopEngines {
			for _, inline := range []bool{false, true} {
				label := fmt.Sprintf("%s inline=%v fault=%v", e.name, inline, faultStore)
				d := e.device(t)
				l, outp := shortDivLaunch(t, d, false, nil, false, 0)
				counts := make([]SiteTally, len(k.Instrs))
				l.Kernel = tallyShortDiv(k, counts, inline, faultStore)
				stats, err := d.Run(l)
				got := finishLoopRun(t, d, outp, stats, err, 0)
				if refCounts == nil {
					ref, refCounts = got, counts
					if _, trapped := AsTrap(err); trapped != faultStore {
						t.Fatalf("%s: err = %v", label, err)
					}
					if stats.TrampolineInstrs == 0 {
						t.Fatalf("%s: no trampolines charged", label)
					}
					continue
				}
				expectSameLoop(t, label, ref, got)
				if !reflect.DeepEqual(counts, refCounts) {
					t.Errorf("%s: tally %v, want %v", label, counts, refCounts)
				}
			}
		}
		var threads uint64
		for _, c := range refCounts {
			threads += c.Threads
		}
		wantThreads := ref.stats.ThreadInstrs
		if faultStore {
			// The faulting store issued (its lanes are in ThreadInstrs) but did
			// not complete: After semantics leave it out of the tally.
			wantThreads -= WarpSize
			if refCounts[store].Issues != 0 {
				t.Errorf("faulting store tallied %+v", refCounts[store])
			}
		}
		if threads != wantThreads {
			t.Errorf("fault=%v: tally sums to %d thread executions, launch ran %d", faultStore, threads, wantThreads)
		}
	}
}

// TestInlineTallyZeroLaneIssue: an instruction that issues with no lane
// active counts an issue and no threads, on every engine; one that never
// issues counts neither.
func TestInlineTallyZeroLaneIssue(t *testing.T) {
	const src = `
.kernel zl
    S2R R0, SR_TID.X
    ISETP.LT.AND P0, R0, 0x0, PT
@P0 IADD R1, R0, 0x1
    EXIT
    IADD R2, R0, 0x2
`
	p, err := sass.Assemble("test", src)
	if err != nil {
		t.Fatal(err)
	}
	k := p.Kernels[0]
	for _, e := range loopEngines {
		d := e.device(t)
		counts := make([]SiteTally, len(k.Instrs))
		l := &Launch{Kernel: &ExecKernel{K: k, Tally: counts}, Grid: Dim3{X: 1, Y: 1, Z: 1}, Block: Dim3{X: WarpSize, Y: 1, Z: 1}}
		stats, err := d.Run(l)
		if err != nil {
			t.Fatal(err)
		}
		want := []SiteTally{{32, 1}, {32, 1}, {0, 1}, {32, 1}, {0, 0}}
		if !reflect.DeepEqual(counts, want) {
			t.Errorf("%s: tally %v, want %v", e.name, counts, want)
		}
		if want := uint64(4 * TrampolineLen); stats.TrampolineInstrs != want {
			t.Errorf("%s: %d trampoline instructions, want %d (one After site per issue)", e.name, stats.TrampolineInstrs, want)
		}
	}
}

// TestRunTally: a pausable run's per-instruction counts are the same in-line
// tally. Stopping every 37 warp instructions changes nothing; a run over a
// kernel that carries its own tally reads that one instead of keeping a
// second; and the counts equal the whole launch's on every engine.
func TestRunTally(t *testing.T) {
	p, err := sass.Assemble("test", shortDivSrc)
	if err != nil {
		t.Fatal(err)
	}
	k := p.Kernels[0]
	var ref []SiteTally
	for _, e := range loopEngines {
		for _, own := range []bool{false, true} {
			d := e.device(t)
			l, _ := shortDivLaunch(t, d, false, nil, false, 0)
			var kernelTally []SiteTally
			if own {
				kernelTally = make([]SiteTally, len(k.Instrs))
				l.Kernel = &ExecKernel{K: k, Tally: kernelTally}
			}
			r, err := d.BeginRun(l)
			if err != nil {
				t.Fatal(err)
			}
			r.EnableInstrExecCounts()
			for paused := true; paused; {
				if paused, err = r.Resume(37); err != nil {
					t.Fatal(err)
				}
			}
			got := r.InstrExecCounts()
			if own && &got[0] != &kernelTally[0] {
				t.Errorf("%s: the run keeps a second tally beside the kernel's", e.name)
			}
			if ref == nil {
				ref = append(ref, got...)
				var threads uint64
				for _, c := range ref {
					threads += c.Threads
				}
				if threads != r.Stats().ThreadInstrs || threads == 0 {
					t.Fatalf("tally sums to %d thread executions, the run to %d", threads, r.Stats().ThreadInstrs)
				}
			} else if !reflect.DeepEqual(got, ref) {
				t.Errorf("%s own=%v: counts %v, want %v", e.name, own, got, ref)
			}
		}
	}
}

// The permanent fault as engine data (Corruption) on the same three
// schedules, held to the callbacks it replaces.

// specOracle instruments k with what a Corruption stands for: an After
// callback on every instruction of the charged categories that corrupts
// exactly as the spec says, through the InstrCtx — the callback path
// permanent faults took before they became engine data. It counts into c.
func specOracle(k *sass.Kernel, c *Corruption, cats uint32) *ExecKernel {
	ek := &ExecKernel{K: k, After: make([][]Callback, len(k.Instrs))}
	step := func(x *InstrCtx) {
		if !c.Ops.Has(x.Instr.Op) || x.SMID != c.SM || !x.LaneActive(c.Lane) {
			return
		}
		act := c.Activations
		c.Activations++
		if c.Gate != nil && !c.Gate(act) {
			return
		}
		var buf sass.FaultTargetBuf
		for _, t := range x.Instr.FaultTargets(buf[:0]) {
			if t.IsPred {
				if c.PredFlip {
					x.WritePred(c.Lane, t.Pred, !x.ReadPred(c.Lane, t.Pred))
					c.Corruptions++
				}
				continue
			}
			old := x.ReadReg(c.Lane, t.Reg)
			if v := c.Value(x.Instr.Op, old); v != old {
				x.WriteReg(c.Lane, t.Reg, v)
				c.Corruptions++
			}
		}
	}
	for i := range k.Instrs {
		if cats>>k.Instrs[i].Op.Info().Cat&1 != 0 {
			ek.After[i] = []Callback{step}
		}
	}
	return ek
}

// specBuild is the declarative build of the same fault.
func specBuild(k *sass.Kernel, c *Corruption, cats uint32) *ExecKernel {
	return &ExecKernel{K: k, Corrupt: c, CorruptSites: NewCorruptionSites(k, cats, &c.Ops)}
}

// testSpec describes one fault over named opcodes; cats are their categories.
type testSpec struct {
	name     string
	ops      []string
	sm, lane int
	mask     uint32
	clear    bool // stuck-at-0: the value clears the mask's bits instead of flipping them
	predFlip bool
	gated    bool // every third activation corrupts
}

func (s testSpec) build() (*Corruption, uint32) {
	c := &Corruption{SM: s.sm, Lane: s.lane, PredFlip: s.predFlip}
	var cats uint32
	for _, name := range s.ops {
		op := sass.MustOp(name)
		c.Ops.Add(op)
		cats |= 1 << op.Info().Cat
	}
	mask := s.mask
	c.Value = func(_ sass.Op, old uint32) uint32 { return old ^ mask }
	if s.clear {
		c.Value = func(_ sass.Op, old uint32) uint32 { return old &^ mask }
	}
	if s.gated {
		c.Gate = func(a uint64) bool { return a%3 == 0 }
	}
	return c, cats
}

// shortDivSpecs put live sites at the first (IMAD), middle (IADD) and last
// (LOP) op of shortdiv's row stretch IMAD, IADD, LOP.XOR, on predicate
// destinations (ISETP), on nothing at all (the fault's SM runs no block), and
// on row ops with and without a guard (MOV, among them `@!P2 MOV R5`).
var shortDivSpecs = []testSpec{
	{name: "first", ops: []string{"IMAD"}, lane: 6, mask: 0x10},
	{name: "middle", ops: []string{"IADD"}, lane: 1, mask: 0x3, clear: true, gated: true},
	{name: "last", ops: []string{"LOP"}, lane: 33 % WarpSize, mask: 0x80000001},
	{name: "stretch", ops: []string{"IMAD", "IADD", "LOP"}, lane: 2, mask: 0x4},
	{name: "pred", ops: []string{"ISETP"}, lane: 3, mask: 1, predFlip: true, gated: true},
	{name: "dormant", ops: []string{"IMAD", "IADD", "LOP"}, sm: 2, lane: 2, mask: 0x4},
	{name: "guarded", ops: []string{"MOV"}, lane: 4, mask: 0x1},
}

// specRun is a loopRun plus the spec's counters.
type specRun struct {
	loopRun
	activations, corruptions uint64
}

func runShortDivSpec(t *testing.T, e loopEngine, s testSpec, oracle bool, budget uint64) specRun {
	t.Helper()
	d := e.device(t)
	l, outp := shortDivLaunch(t, d, false, nil, false, budget)
	c, cats := s.build()
	if oracle {
		l.Kernel = specOracle(l.Kernel.K, c, cats)
	} else {
		l.Kernel = specBuild(l.Kernel.K, c, cats)
	}
	stats, err := d.Run(l)
	return specRun{finishLoopRun(t, d, outp, stats, err, 0), c.Activations, c.Corruptions}
}

func expectSameSpec(t *testing.T, label string, ref, got specRun) {
	t.Helper()
	expectSameLoop(t, label, ref.loopRun, got.loopRun)
	if ref.activations != got.activations || ref.corruptions != got.corruptions {
		t.Errorf("%s: %d activations, %d corruptions; want %d, %d",
			label, got.activations, got.corruptions, ref.activations, ref.corruptions)
	}
}

// TestSpecEquivalence: the in-line corruption is the callback it replaces.
// On all three engines, a launch carrying a Corruption reports the output,
// stats (trampolines included), clocks, digest and counters of the reference
// loop running the oracle callbacks.
func TestSpecEquivalence(t *testing.T) {
	plain := runShortDiv(t, loopEngines[0], false, false, 0)
	for _, s := range shortDivSpecs {
		ref := runShortDivSpec(t, loopEngines[0], s, true, 0)
		if ref.err != nil {
			t.Fatalf("%s: %v", s.name, ref.err)
		}
		if dormant := s.sm != 0; (ref.activations == 0) != dormant || (ref.corruptions == 0) != dormant {
			t.Fatalf("%s: %d activations, %d corruptions", s.name, ref.activations, ref.corruptions)
		}
		if ref.stats.TrampolineInstrs == 0 {
			t.Fatalf("%s: no trampolines charged", s.name)
		}
		if s.sm != 0 && (!reflect.DeepEqual(ref.out, plain.out) || ref.digest != plain.digest) {
			t.Errorf("%s: a fault on an idle SM changed the launch", s.name)
		}
		for _, e := range loopEngines {
			expectSameSpec(t, fmt.Sprintf("%s on %s", s.name, e.name), ref, runShortDivSpec(t, e, s, false, 0))
		}
	}
}

// TestSpecBudgetExhaustion: every budget from one instruction up to the whole
// launch, with live sites at the first, middle and last op of a row stretch:
// the budget runs dry before, on and after each of them, and every engine
// traps where the oracle does with the same counters.
func TestSpecBudgetExhaustion(t *testing.T) {
	s := shortDivSpecs[3]
	total := runShortDivSpec(t, loopEngines[0], s, true, 0).stats.WarpInstrs
	for budget := uint64(1); budget <= total+1; budget++ {
		ref := runShortDivSpec(t, loopEngines[0], s, true, budget)
		if (ref.err != nil) != (budget < total) {
			t.Fatalf("budget %d of %d: err = %v", budget, total, ref.err)
		}
		for _, e := range loopEngines {
			expectSameSpec(t, fmt.Sprintf("%s budget=%d", e.name, budget), ref, runShortDivSpec(t, e, s, false, budget))
		}
	}
}

// TestSpecFaultAtLiveSite: the spec corrupts lane 3's store address (SHL R6)
// and the store is itself a live site, mid-batch. The store faults: it is
// charged its site up to the trap, not activated, and the tail of the batch is
// refunded, as in the oracle.
func TestSpecFaultAtLiveSite(t *testing.T) {
	s := testSpec{name: "store", ops: []string{"SHL", "STG"}, lane: 3, mask: 0x40000000}
	ref := runShortDivSpec(t, loopEngines[0], s, true, 0)
	if trap, ok := AsTrap(ref.err); !ok || trap.Kind != TrapIllegalAddress {
		t.Fatalf("err = %v, want an illegal-address trap", ref.err)
	}
	for _, e := range loopEngines {
		expectSameSpec(t, e.name, ref, runShortDivSpec(t, e, s, false, 0))
	}
}

// TestSpecPauseEverywhere: a spec launch paused after every warp-instruction
// count and resumed runs to the uninterrupted launch's result and counters.
func TestSpecPauseEverywhere(t *testing.T) {
	s := shortDivSpecs[3]
	for _, e := range loopEngines {
		whole := runShortDivSpec(t, e, s, false, 0)
		for pos := int64(1); pos < int64(whole.stats.WarpInstrs); pos++ {
			d := e.device(t)
			l, outp := shortDivLaunch(t, d, false, nil, false, 0)
			c, cats := s.build()
			l.Kernel = specBuild(l.Kernel.K, c, cats)
			r, err := d.BeginRun(l)
			if err != nil {
				t.Fatal(err)
			}
			if paused, err := r.Resume(pos); !paused || err != nil {
				t.Fatalf("%s pause@%d: Resume = (%v, %v)", e.name, pos, paused, err)
			}
			if paused, err := r.Resume(-1); paused || err != nil {
				t.Fatalf("%s pause@%d: Resume(-1) = (%v, %v)", e.name, pos, paused, err)
			}
			got := specRun{finishLoopRun(t, d, outp, r.Stats(), nil, 0), c.Activations, c.Corruptions}
			expectSameSpec(t, fmt.Sprintf("%s pause@%d", e.name, pos), whole, got)
			if t.Failed() {
				return
			}
		}
	}
}

// TestSpecRowStretches: the spec costs a block off its SM no row stretch, and
// the faulty SM only its guarded live sites. The test runs shortdiv through a
// private copy of its plan whose row ops record being issued one at a time
// (outside a runRows stretch): with the fault's SM idle none is; with the
// block on it exactly the live row ops with a guard are — an unguarded one
// ends its stretch and is corrupted after it — and an uninstrumented launch
// issues none.
func TestSpecRowStretches(t *testing.T) {
	p, err := sass.Assemble("test", shortDivSrc)
	if err != nil {
		t.Fatal(err)
	}
	k := p.Kernels[0]
	for _, s := range []testSpec{shortDivSpecs[5], shortDivSpecs[3], shortDivSpecs[6]} {
		d := loopEngines[1].device(t)
		plan, err := translate(k)
		if err != nil {
			t.Fatal(err)
		}
		single := map[int32]int{}
		rowOps := 0
		for pc := range plan.steps {
			if !plan.ops[pc].dispatchable() {
				continue
			}
			rowOps++
			step, pc := plan.steps[pc].step, int32(pc)
			plan.steps[pc].step = func(blk *blockCtx, w *warp, m uint32) (bool, TrapKind, uint32) {
				single[pc]++
				return step(blk, w, m)
			}
		}
		if rowOps == 0 {
			t.Fatal("shortdiv has no row ops")
		}
		d.planMemo = map[*sass.Kernel]*xplan{k: plan}
		l, _ := shortDivLaunch(t, d, false, nil, false, 0)
		l.Kernel = &ExecKernel{K: k}
		if _, err := d.Run(l); err != nil || len(single) != 0 {
			t.Fatalf("plain launch: err %v, row ops issued alone %v", err, single)
		}
		c, cats := s.build()
		l.Kernel = specBuild(k, c, cats)
		if _, err := d.Run(l); err != nil {
			t.Fatal(err)
		}
		guarded := 0
		for pc := range plan.steps {
			live := l.Kernel.CorruptSites.next[pc] == uint32(pc) && plan.steps[pc].guardKind != guardOn
			if alone := single[int32(pc)] > 0; plan.ops[pc].dispatchable() && alone != (live && s.sm == 0) {
				t.Errorf("%s: row op %d (%v) issued alone %d times, guarded live site %v",
					s.name, pc, &k.Instrs[pc], single[int32(pc)], live)
			}
			if live && plan.ops[pc].dispatchable() {
				guarded++
			}
		}
		if s.name == "guarded" && guarded == 0 {
			t.Error("the guarded spec has no guarded live row op")
		}
		if s.sm == 0 && c.Corruptions == 0 {
			t.Errorf("%s: nothing corrupted", s.name)
		}
	}
}

// TestSpecLaunchAllocs: a warm launch of a spec build allocates nothing, on
// the faulty SM or off it.
func TestSpecLaunchAllocs(t *testing.T) {
	for _, s := range []testSpec{shortDivSpecs[3], shortDivSpecs[5]} {
		d := loopEngines[1].device(t)
		l, _ := shortDivLaunch(t, d, false, nil, false, 0)
		c, cats := s.build()
		l.Kernel = specBuild(l.Kernel.K, c, cats)
		if _, err := d.Run(l); err != nil {
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(10, func() {
			if _, err := d.Run(l); err != nil {
				t.Fatal(err)
			}
		})
		if race.Enabled {
			t.Logf("%s: a spec launch allocated %.1f objects under -race", s.name, avg)
		} else if avg != 0 {
			t.Errorf("%s: a spec launch allocated %.1f objects, want 0", s.name, avg)
		}
	}
}

// TestSpecSitesCheck: a launch whose Corruption comes without its site facts,
// or with another kernel's, is refused.
func TestSpecSitesCheck(t *testing.T) {
	d := loopEngines[1].device(t)
	l, _ := shortDivLaunch(t, d, false, nil, false, 0)
	c, _ := shortDivSpecs[0].build()
	l.Kernel = &ExecKernel{K: l.Kernel.K, Corrupt: c}
	if _, err := d.Run(l); err == nil {
		t.Fatal("a Corruption without sites ran")
	}
	l.Kernel.CorruptSites = NewCorruptionSites(&sass.Kernel{Instrs: l.Kernel.K.Instrs[:3]}, 1<<sass.CatInteger, &c.Ops)
	if _, err := d.Run(l); err == nil {
		t.Fatal("a Corruption with another kernel's sites ran")
	}
}

// TestBlockScratchAligned: the row scratch starts at a 64-byte offset in the
// block slot, so with the slot on a 64-byte boundary (its size class puts it
// there) no 32-byte vector access to a scratch row splits a cache line. A
// field added above it moves it, and a golden run of 353.clvrleaf measured
// about 1% slower with the rows 48 bytes off.
func TestBlockScratchAligned(t *testing.T) {
	var blk blockCtx
	if off := unsafe.Offsetof(blk.rows); off%64 != 0 {
		t.Errorf("blockCtx.rows at offset %d, not a multiple of 64", off)
	}
}
