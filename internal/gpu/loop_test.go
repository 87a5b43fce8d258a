package gpu

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

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
// dispatches — and, when disarmAt > 0, disarms at that dispatch — one on the
// IMAD that perturbs lane 6's result, and a Before callback on `MOV R5` that
// flips P2 for the odd lanes, the guard of the instruction right after it in
// the same batch. faultStore adds a Before callback on the store that sends
// lane 3 to an unmapped address, so the store faults mid-batch with its
// Before trampoline already charged.
func armShortDiv(k *sass.Kernel, calls *int, disarmAt int, faultStore bool) *ExecKernel {
	ek := &ExecKernel{K: k, Before: make([][]Callback, len(k.Instrs)), After: make([][]Callback, len(k.Instrs))}
	count := func(c *InstrCtx) {
		*calls++
		if *calls == disarmAt {
			c.Disarm()
		}
	}
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
// kernel, whose counting callback disarms at dispatch disarmAt (0: never;
// negative: never, and the store is made to fault).
func shortDivLaunch(t testing.TB, d *Device, armed bool, calls *int, disarmAt int, budget uint64) (*Launch, uint32) {
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
		ek = armShortDiv(k, calls, disarmAt, disarmAt < 0)
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

func runShortDiv(t testing.TB, e loopEngine, armed bool, disarmAt int, budget uint64) loopRun {
	t.Helper()
	d := e.device(t)
	calls := 0
	l, outp := shortDivLaunch(t, d, armed, &calls, disarmAt, budget)
	stats, err := d.Run(l)
	return finishLoopRun(t, d, outp, stats, err, calls)
}

// TestLoopEquivalence: the plain and the armed launch, run whole.
func TestLoopEquivalence(t *testing.T) {
	for _, armed := range []bool{false, true} {
		ref := runShortDiv(t, loopEngines[0], armed, 0, 0)
		if ref.err != nil {
			t.Fatal(ref.err)
		}
		if armed && ref.stats.TrampolineInstrs == 0 {
			t.Fatal("armed launch charged no trampolines")
		}
		for _, e := range loopEngines[1:] {
			expectSameLoop(t, fmt.Sprintf("%s armed=%v", e.name, armed), ref, runShortDiv(t, e, armed, 0, 0))
		}
	}
}

// TestFaultMidBatchArmed: a Before callback makes the store fault. The trap
// site, the refunded tail of the batch and the trampolines charged up to and
// including the store's Before site must agree.
func TestFaultMidBatchArmed(t *testing.T) {
	ref := runShortDiv(t, loopEngines[0], true, -1, 0)
	if trap, ok := AsTrap(ref.err); !ok || trap.Kind != TrapIllegalAddress {
		t.Fatalf("err = %v, want an illegal-address trap", ref.err)
	}
	for _, e := range loopEngines[1:] {
		expectSameLoop(t, e.name, ref, runShortDiv(t, e, true, -1, 0))
	}
}

// TestBeforeCallbackRewritesNextGuard: the Before callback on `MOV R5, 0x1`
// clears P2 on the odd lanes; `@!P2 MOV R5, 0x2` issues right after it in the
// same straight-line batch and must see the rewritten predicate, not a guard
// evaluated ahead of the callback.
func TestBeforeCallbackRewritesNextGuard(t *testing.T) {
	for _, e := range loopEngines {
		plain := runShortDiv(t, e, false, 0, 0)
		armed := runShortDiv(t, e, true, 0, 0)
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
	total := runShortDiv(t, loopEngines[0], true, 0, 0).stats.WarpInstrs
	for budget := uint64(1); budget <= total+1; budget++ {
		ref := runShortDiv(t, loopEngines[0], true, 0, budget)
		if (ref.err != nil) != (budget < total) {
			t.Fatalf("budget %d of %d: err = %v", budget, total, ref.err)
		}
		for _, e := range loopEngines[1:] {
			expectSameLoop(t, fmt.Sprintf("%s budget=%d", e.name, budget), ref, runShortDiv(t, e, true, 0, budget))
		}
	}
}

// TestDisarmMidBatch: a callback disarms at every dispatch ordinal in turn —
// mid-batch, on single issues, before and after the barrier. Exactly that
// many dispatches happen (disarming suppresses calls from the next
// instruction on; the second callback of the disarming instruction still
// runs) and the accounting does not move: issue counts, trampolines and
// clocks equal the never-disarmed launch's, on all three engines.
func TestDisarmMidBatch(t *testing.T) {
	full := runShortDiv(t, loopEngines[0], true, 0, 0)
	for at := 1; at <= full.calls; at += 3 {
		ref := runShortDiv(t, loopEngines[0], true, at, 0)
		if ref.calls != at {
			t.Fatalf("disarm at %d: %d dispatches", at, ref.calls)
		}
		// Thread counts may differ: a suppressed callback no longer rewrites a
		// guard. Issue counts, trampolines and modeled time may not.
		if ref.stats.WarpInstrs != full.stats.WarpInstrs || ref.stats.TrampolineInstrs != full.stats.TrampolineInstrs ||
			!reflect.DeepEqual(ref.clocks, full.clocks) {
			t.Fatalf("disarm at %d moved the accounting: stats %+v clocks %v, armed %+v %v",
				at, ref.stats, ref.clocks, full.stats, full.clocks)
		}
		for _, e := range loopEngines[1:] {
			expectSameLoop(t, fmt.Sprintf("%s disarm@%d", e.name, at), ref, runShortDiv(t, e, true, at, 0))
		}
	}
}

// TestPauseEverywhere pauses the launch after every warp-instruction count it
// passes through, plain and armed, on all three engines. At each position the
// paused digest must equal the reference engine's, a snapshot restored onto a
// fresh device must digest identically and run to the uninterrupted result,
// and so must the paused run itself.
func TestPauseEverywhere(t *testing.T) {
	for _, armed := range []bool{false, true} {
		whole := runShortDiv(t, loopEngines[0], armed, 0, 0)
		total := int64(whole.stats.WarpInstrs)
		if total < 200 {
			t.Fatalf("kernel issues only %d warp instructions", total)
		}
		refDigests := make([]uint64, total)
		for _, e := range loopEngines {
			for pos := int64(1); pos < total; pos++ {
				label := fmt.Sprintf("%s armed=%v pause@%d", e.name, armed, pos)
				d := e.device(t)
				calls := 0
				l, outp := shortDivLaunch(t, d, armed, &calls, 0, 0)
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
				forkCalls := calls
				if armed {
					if err := fr.SetExecKernel(armShortDiv(l.Kernel.K, &forkCalls, 0, false)); err != nil {
						t.Fatal(err)
					}
				}
				if paused, err := fr.Resume(-1); paused || err != nil {
					t.Fatalf("%s: fork Resume(-1) = (%v, %v)", label, paused, err)
				}
				expectSameLoop(t, label+" fork", whole, finishLoopRun(t, fork, outp, fr.Stats(), nil, forkCalls))

				// The paused run itself.
				if paused, err := r.Resume(-1); paused || err != nil {
					t.Fatalf("%s: Resume(-1) = (%v, %v)", label, paused, err)
				}
				expectSameLoop(t, label+" resumed", whole, finishLoopRun(t, d, outp, r.Stats(), nil, calls))
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
	l, outp := shortDivLaunch(t, d, false, nil, 0, 0)
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
	if whole := runShortDiv(t, loopEngines[1], false, 0, 0); stats != whole.stats || !bytes.Equal(out, whole.out) {
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
	armed := armShortDiv(k, &calls, 0, faultStore)
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
				l, outp := shortDivLaunch(t, d, false, nil, 0, 0)
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
			l, _ := shortDivLaunch(t, d, false, nil, 0, 0)
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
