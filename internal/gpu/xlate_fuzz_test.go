package gpu

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sass"
)

// fuzzProgram turns fuzzer bytes into a small kernel over a curated
// instruction mix: plain ALU, guarded execution, predicate sets, forward
// branches, global loads and stores (scattered within a 256-byte buffer,
// coalesced by thread id, or through an unconfined "fault-corrupted"
// address), MUFU of every function (RCP, RSQ, SQRT, SIN and COS through the
// dispatcher's handlers, LG2 and EX2 through the portable executor), the row
// ops only the portable executor runs (I2F, F2I, F2F, LDS and STS through a
// 64-byte shared window, sometimes misaligned or out of bounds), the control kinds (a guarded EXIT, a uniform BAR), and
// instructions only the interpreter thunk runs: a warp intrinsic (SHFL), RED,
// and an ALU op, a predicate op and a conversion that batch with the row ops
// around them (SHF, PSETP, I2I). Every three bytes map to one generation step,
// so the fuzzer can explore instruction interleavings.
func fuzzProgram(data []byte) string {
	var sb strings.Builder
	sb.WriteString(".kernel fuzz\n.param buf\n.shared 64\n")
	sb.WriteString("    S2R R1, SR_TID.X\n")
	sb.WriteString("    MOV R2, 0x9e3779b9\n")
	reg := func(b byte) int { return 1 + int(b)%7 } // R1..R7
	skip := 0
	emitted := 0
	for i := 0; i+2 < len(data) && emitted < 48; i += 3 {
		op, a, b := data[i], data[i+1], data[i+2]
		d, ra, rb := reg(a), reg(b), reg(a^b)
		switch kind := op % 27; kind {
		case 0:
			fmt.Fprintf(&sb, "    MOV R%d, 0x%x\n", d, uint32(a)<<8|uint32(b))
		case 1:
			fmt.Fprintf(&sb, "    IADD R%d, R%d, R%d\n", d, ra, rb)
		case 2:
			fmt.Fprintf(&sb, "    IMAD R%d, R%d, R%d, 0x%x\n", d, ra, rb, b)
		case 3:
			fmt.Fprintf(&sb, "    LOP.XOR R%d, R%d, R%d\n", d, ra, rb)
		case 4:
			fmt.Fprintf(&sb, "    SHL R%d, R%d, 0x%x\n", d, ra, b%33)
		case 5:
			fmt.Fprintf(&sb, "    FADD R%d, R%d, R%d\n", d, ra, rb)
		case 6:
			fmt.Fprintf(&sb, "    FMUL R%d, R%d, -R%d\n", d, ra, rb)
		case 7:
			fmt.Fprintf(&sb, "    ISETP.LT.U32.AND P1, R%d, R%d, PT\n", ra, rb)
		case 8:
			fmt.Fprintf(&sb, "@P1 IADD R%d, R%d, 0x1\n", d, ra)
		case 9:
			fmt.Fprintf(&sb, "@!P1 MOV R%d, 0x%x\n", d, b)
		case 10:
			fmt.Fprintf(&sb, "    SEL R%d, R%d, R%d, P1\n", d, ra, rb)
		case 11:
			// Guarded forward branch over the next few instructions: the
			// label is emitted by a later step (or the tail fixup).
			fmt.Fprintf(&sb, "@P1 BRA skip%d\n", skip)
			skip++
		case 12, 13:
			switch {
			case b >= 0xe0:
				// A fault-corrupted address: the raw register offsets the
				// buffer base, so lanes land misaligned or out of bounds and
				// the first faulting lane, trap kind, and address must agree.
				fmt.Fprintf(&sb, "    IADD R8, R%d, c0[buf]\n", ra)
			case b >= 0xc0:
				// The coalesced shape: consecutive words by thread id.
				sb.WriteString("    S2R R8, SR_TID.X\n")
				sb.WriteString("    LOP.AND R8, R8, 0x3f\n")
				sb.WriteString("    SHL R8, R8, 0x2\n")
				sb.WriteString("    IADD R8, R8, c0[buf]\n")
			default:
				// Confine addresses to the 64-word buffer so the access
				// always lands in bounds and 4-byte aligned.
				fmt.Fprintf(&sb, "    LOP.AND R8, R%d, 0x3f\n", ra)
				sb.WriteString("    SHL R8, R8, 0x2\n")
				sb.WriteString("    IADD R8, R8, c0[buf]\n")
			}
			if kind == 12 {
				fmt.Fprintf(&sb, "    STG.32 [R8], R%d\n", rb)
			} else {
				fmt.Fprintf(&sb, "    LDG.32 R%d, [R8]\n", d)
			}
		case 14:
			// Thunk-dispatched intrinsics: translated execution falls back to
			// the interpreter closure for these, so the fuzz mix proves the
			// two dispatch paths compose.
			fmt.Fprintf(&sb, "    SHFL.BFLY R%d, R%d, 0x%x, 0x1f\n", d, ra, 1+b%8)
		case 15:
			if skip > 0 {
				// Resolve the most recent pending branch target here, so the
				// branch skips a fuzzer-chosen span.
				skip--
				fmt.Fprintf(&sb, "skip%d:\n", skip)
			} else {
				fmt.Fprintf(&sb, "    POPC R%d, R%d\n", d, ra)
			}
		case 16:
			fmt.Fprintf(&sb, "    SHF.R R%d, R%d, 0x%x, R%d\n", d, ra, b%40, rb)
		case 17:
			fmt.Fprintf(&sb, "    PSETP.XOR P1, P1, !P0\n")
		case 18:
			fmt.Fprintf(&sb, "    I2I.S8 R%d, R%d\n", d, ra)
		case 19:
			fns := []string{"RCP", "RSQ", "SQRT", "EX2", "LG2", "SIN", "COS"}
			fmt.Fprintf(&sb, "    MUFU.%s R%d, R%d\n", fns[int(b)%len(fns)], d, ra)
		case 20:
			fmt.Fprintf(&sb, "    I2F%s R%d, R%d\n", []string{"", ".U32"}[b%2], d, ra)
		case 21:
			fmt.Fprintf(&sb, "    F2I%s R%d, %sR%d\n", []string{"", ".U32"}[b%2], d, []string{"", "-"}[b/2%2], ra)
		case 22:
			// Narrow the pair ra:ra+1, or widen into the pair d:d+1.
			fmt.Fprintf(&sb, "    F2F%s R%d, %sR%d\n", []string{"", ".64"}[b%2], d, []string{"", "-"}[b/2%2], ra)
		case 23:
			// Shared words confined to the window, or — the fault-corrupted
			// shape — any byte offset up to twice its size.
			mask := 0x3c
			if b >= 0xe0 {
				mask = 0x7f
			}
			fmt.Fprintf(&sb, "    LOP.AND R9, R%d, 0x%x\n", ra, mask)
			if a%2 == 0 {
				fmt.Fprintf(&sb, "    STS.32 [R9], R%d\n", rb)
			} else {
				fmt.Fprintf(&sb, "    LDS.32 R%d, [R9]\n", d)
			}
		case 24:
			fmt.Fprintf(&sb, "    LOP.AND R8, R%d, 0x3f\n", ra)
			sb.WriteString("    SHL R8, R8, 0x2\n")
			sb.WriteString("    IADD R8, R8, c0[buf]\n")
			fmt.Fprintf(&sb, "    RED.%s [R8], R%d\n", []string{"ADD", "MIN", "ADD.F32"}[int(b)%3], rb)
		case 25:
			sb.WriteString("@P1 EXIT\n")
		case 26:
			// A barrier every active lane reaches: never inside a pending
			// branch's span.
			if skip == 0 {
				sb.WriteString("    BAR.SYNC\n")
			} else {
				fmt.Fprintf(&sb, "    MOV R%d, R%d\n", d, ra)
			}
		}
		emitted++
	}
	// Resolve any dangling branch labels at the tail.
	for skip > 0 {
		skip--
		fmt.Fprintf(&sb, "skip%d:\n", skip)
	}
	sb.WriteString("    EXIT\n")
	return sb.String()
}

// Fuzz arms: the launch run whole, run armed (a callback on every instruction,
// one of which corrupts a register — or a Shot on every instruction does —
// and another of which rewrites a guard predicate), run through a pausable launch that stops every few
// instructions and hops onto a restored fork at every fourth pause, and run
// under a permanent fault (fuzzSpecFault) — as an in-line Corruption and as
// the oracle callbacks it replaces, which must agree with each other too.
const (
	fuzzPlain = iota
	fuzzArmed
	fuzzPaused
	fuzzSpec
	fuzzSpecCallback
	fuzzArms
)

// fuzzObs is everything observable about one fuzz run: final buffer bytes,
// stats, error text, the device digest (which covers all memory and the SM
// clocks), the callback dispatch count (armed) and the folded digest of every
// pause position (paused).
type fuzzObs struct {
	out     []byte
	stats   LaunchStats
	errText string
	digest  uint64
	calls   int
	trail   uint64

	activations, corruptions uint64 // the spec arms' counters
}

// fuzzArm instruments k for the armed arm: every instruction counts its
// dispatch; dispatch number fire corrupts R3 of the first active lane — or,
// when knob is odd, a Shot on every instruction corrupts R3 of the lane it
// lands on, thread-level execution 8*fire; every fifth instruction's Before
// callback flips P1 on one lane, so guards inside a batch depend on callbacks
// before them.
func fuzzArm(k *sass.Kernel, knob int, calls *int) *ExecKernel {
	ek := &ExecKernel{K: k, Before: make([][]Callback, len(k.Instrs)), After: make([][]Callback, len(k.Instrs))}
	fire := 1 + knob%61
	flipR3 := func(c *InstrCtx, lane int) { c.WriteReg(lane, 3, c.ReadReg(lane, 3)^(1<<uint(knob%32))) }
	if knob%2 == 1 {
		ek.Shot = &Shot{Target: uint64(8 * fire), Hit: flipR3}
		ek.ShotSites = NewShotSites(k, kernelOps(k), -1, false)
	}
	after := func(c *InstrCtx) {
		if *calls++; *calls != fire || ek.Shot != nil {
			return
		}
		for lane := 0; lane < WarpSize; lane++ {
			if c.LaneActive(lane) {
				flipR3(c, lane)
				break
			}
		}
	}
	flip := func(c *InstrCtx) {
		lane := knob % WarpSize
		c.WritePred(lane, 1, !c.ReadPred(lane, 1))
	}
	for i := range k.Instrs {
		ek.After[i] = []Callback{after}
		if i%5 == 4 {
			ek.Before[i] = []Callback{flip}
		}
	}
	return ek
}

// fuzzSpecOps are the opcodes a fuzzed permanent fault's first target is drawn
// from: the fuzz mix's dispatchable row ops and thunk steps, and a store that
// may fault.
var fuzzSpecOps = []string{"IADD", "IMAD", "LOP", "SHL", "FADD", "FMUL", "ISETP", "SEL", "MOV", "LDG", "STG", "SHFL", "POPC"}

// fuzzSpecExtraOps are the later arms' opcodes: the portable-only row ops and
// RED. They are only ever a second target, so every knob's first target is
// the same as before they joined the mix.
var fuzzSpecExtraOps = []string{"MUFU", "I2F", "F2I", "F2F", "LDS", "RED"}

// fuzzSpecFault derives a permanent fault from the knob: one or two target
// opcodes (the second from fuzzSpecExtraOps when the knob is 3 mod 4), the SM of either block, a lane, a flipped or cleared bit, predicate
// complement on even knobs and a gate on every third.
func fuzzSpecFault(knob int) (*Corruption, uint32) {
	s := testSpec{
		ops:      []string{fuzzSpecOps[knob%len(fuzzSpecOps)]},
		sm:       knob / 7 % 2,
		lane:     knob / 3 % WarpSize,
		mask:     1 << uint(knob%32),
		clear:    knob%5 == 0,
		predFlip: knob%2 == 0,
		gated:    knob%3 == 0,
	}
	switch knob % 4 {
	case 1:
		s.ops = append(s.ops, fuzzSpecOps[knob/4%len(fuzzSpecOps)])
	case 3:
		s.ops = append(s.ops, fuzzSpecExtraOps[knob/4%len(fuzzSpecExtraOps)])
	}
	return s.build()
}

// runFuzzKernel assembles and runs one generated kernel on a fresh device of
// the given engine, under one fuzz arm.
func runFuzzKernel(tb testing.TB, src string, e loopEngine, arm, knob int) fuzzObs {
	tb.Helper()
	p, err := sass.Assemble("fuzz", src)
	if err != nil {
		tb.Skipf("assemble: %v", err)
	}
	d := e.device(tb)
	buf, err := d.Mem.Alloc(256)
	if err != nil {
		tb.Fatal(err)
	}
	var obs fuzzObs
	l := &Launch{
		Kernel: &ExecKernel{K: p.Kernels[0]},
		Grid:   Dim3{X: 2, Y: 1, Z: 1},
		Block:  Dim3{X: 64, Y: 1, Z: 1},
		Params: []uint32{buf},
		Budget: 1 << 16,
	}
	var runErr error
	switch arm {
	case fuzzArmed:
		l.Kernel = fuzzArm(p.Kernels[0], knob, &obs.calls)
		fallthrough
	case fuzzPlain:
		obs.stats, runErr = d.Run(l)
	case fuzzSpec, fuzzSpecCallback:
		c, cats := fuzzSpecFault(knob)
		if arm == fuzzSpec {
			l.Kernel = specBuild(p.Kernels[0], c, cats)
		} else {
			l.Kernel = specOracle(p.Kernels[0], c, cats)
		}
		obs.stats, runErr = d.Run(l)
		obs.activations, obs.corruptions = c.Activations, c.Corruptions
	case fuzzPaused:
		r, err := d.BeginRun(l)
		if err != nil {
			tb.Fatal(err)
		}
		trail := newDigester()
		for pauses := 1; ; pauses++ {
			paused, err := r.Resume(int64(1 + knob%13))
			if !paused {
				obs.stats, runErr = r.Stats(), err
				break
			}
			trail.u64(r.Digest())
			if pauses%4 == 0 {
				snap, err := r.Snapshot()
				if err != nil {
					tb.Fatal(err)
				}
				d = e.device(tb)
				if r, err = d.Restore(snap); err != nil {
					tb.Fatal(err)
				}
			}
		}
		obs.trail = trail.h
	}
	if runErr != nil {
		obs.errText = runErr.Error()
	} else if obs.out, err = d.Mem.ReadBytes(buf, 256); err != nil {
		tb.Fatal(err)
	}
	obs.digest = d.Digest()
	return obs
}

// FuzzXlateDifferential generates random small kernels and requires the
// batched loop, the reference loop and the legacy scheduler to agree on every
// observable of every arm.
func FuzzXlateDifferential(f *testing.F) {
	f.Add([]byte{0, 1, 2, 7, 8, 11, 3, 15, 9, 12, 0, 1, 13, 2, 3})
	f.Add([]byte{7, 0, 0, 11, 5, 5, 14, 1, 2, 15, 0, 0, 12, 9, 9, 13, 3, 3})
	f.Add(bytes.Repeat([]byte{7, 11, 15}, 12))
	f.Add([]byte{14, 14, 14, 7, 8, 9, 10, 4, 4, 4})
	// Guarded and divergent execution around coalesced accesses: partial
	// exec masks through the row tier's compute-and-merge and the whole-warp
	// memory path.
	f.Add([]byte{7, 1, 5, 8, 2, 3, 9, 4, 1, 13, 2, 0xc5, 11, 0, 0, 5, 1, 2, 12, 3, 0xc1, 6, 2, 4, 15, 0, 0, 12, 1, 0xc9, 10, 3, 3})
	f.Add([]byte{4, 1, 1, 7, 3, 2, 11, 0, 0, 13, 1, 0xd0, 2, 1, 4, 11, 0, 0, 12, 2, 0xc2, 15, 0, 0, 8, 5, 5, 15, 0, 0, 13, 6, 0xc4})
	// Fault-corrupted addresses, unguarded and under divergence.
	f.Add([]byte{13, 1, 0xe0, 1, 2, 3})
	f.Add([]byte{0, 0xff, 0, 12, 0, 0xe3, 1, 1, 1})
	f.Add([]byte{7, 1, 2, 11, 0, 0, 12, 2, 0xf1, 15, 0, 0, 13, 3, 0xe7, 3, 1, 2})
	// Armed and paused arms: long guarded batches (a callback flips the guard
	// predicate mid-batch), divergence with the corruption landing inside a
	// clipped batch, and a faulting access reached with callbacks attached.
	f.Add([]byte{7, 1, 2, 8, 3, 3, 9, 4, 4, 8, 5, 5, 10, 6, 6, 9, 1, 1, 8, 2, 2, 1, 3, 3, 12, 4, 0x10})
	f.Add([]byte{7, 2, 1, 11, 0, 0, 8, 1, 1, 11, 0, 0, 9, 2, 2, 2, 3, 3, 15, 0, 0, 3, 4, 4, 8, 5, 5, 15, 0, 0, 13, 6, 0xc8})
	f.Add([]byte{1, 2, 3, 13, 3, 0xe1, 8, 4, 4, 12, 5, 0xf0, 5, 6, 7})
	// Thunk steps inside batched runs: SHF, PSETP and I2I between row ops,
	// guarded by the predicate PSETP rewrites, around a coalesced access.
	f.Add([]byte{7, 1, 2, 1, 2, 3, 16, 4, 5, 3, 1, 2, 17, 0, 0, 8, 3, 3, 18, 6, 7, 9, 2, 2, 16, 2, 9, 13, 1, 0xc3, 18, 3, 4, 17, 0, 0, 10, 5, 6, 12, 4, 0xc7})
	f.Add([]byte{16, 1, 2, 17, 0, 0, 18, 3, 4, 11, 0, 0, 16, 5, 6, 18, 7, 1, 15, 0, 0, 17, 0, 0, 8, 1, 2})
	// The portable-only row ops, the control kinds and RED, each among row
	// ops and under a guard that divides the warp. The first six seeds' knobs
	// are 3 mod 4, so their permanent fault's second target is the arm's own
	// opcode (fuzzSpecExtraOps).
	f.Add([]byte{5, 1, 2, 19, 1, 3, 19, 2, 5, 7, 3, 4, 8, 4, 4, 19, 3, 14})
	f.Add([]byte{0, 0x80, 1, 20, 1, 8, 20, 2, 3, 7, 1, 2, 8, 3, 3, 20, 5, 15})
	f.Add([]byte{5, 1, 2, 6, 3, 4, 21, 1, 2, 21, 2, 3, 21, 3, 0, 21, 4, 131})
	f.Add([]byte{5, 1, 2, 22, 1, 2, 22, 2, 3, 22, 3, 0, 7, 1, 2, 9, 4, 4, 22, 5, 140})
	f.Add([]byte{23, 2, 1, 23, 1, 2, 1, 2, 3, 23, 4, 0xe5, 23, 3, 4, 23, 6, 0xf0, 23, 5, 0xe1, 4, 2, 22, 23, 4, 0xe2})
	f.Add([]byte{24, 1, 2, 24, 3, 5, 7, 1, 2, 8, 2, 2, 24, 2, 1, 13, 1, 21})
	f.Add([]byte{7, 1, 2, 25, 0, 0, 1, 2, 3, 12, 3, 4, 26, 0, 0, 13, 1, 2})
	f.Add([]byte{1, 2, 3, 26, 0, 0, 13, 1, 2, 26, 0, 0, 23, 1, 2, 26, 0, 0, 23, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 || len(data) > 256 {
			t.Skip()
		}
		src := fuzzProgram(data)
		knob := 0
		for _, b := range data {
			knob += int(b)
		}
		var refs [fuzzArms]fuzzObs
		for arm := 0; arm < fuzzArms; arm++ {
			refs[arm] = runFuzzKernel(t, src, loopEngines[0], arm, knob)
			for _, e := range loopEngines[1:] {
				if got := runFuzzKernel(t, src, e, arm, knob); !reflect.DeepEqual(refs[arm], got) {
					t.Fatalf("arm %d knob %d: %s disagrees with the reference loop:\n got %+v\nwant %+v\nprogram:\n%s",
						arm, knob, e.name, got, refs[arm], src)
				}
			}
		}
		if spec, cb := refs[fuzzSpec], refs[fuzzSpecCallback]; !reflect.DeepEqual(spec, cb) {
			t.Fatalf("knob %d: the in-line fault disagrees with its callbacks:\n got %+v\nwant %+v\nprogram:\n%s",
				knob, spec, cb, src)
		}
	})
}
