package gpu

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// TestDifferentialALU is a differential test: random straight-line integer
// and FP32 programs are executed by the simulator and by an independent
// reference evaluator written directly against the intended semantics; the
// register files must match exactly.
func TestDifferentialALU(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 80; trial++ {
		prog, eval := randomALUProgram(rng)
		snap := runBody(t, prog)
		for r := 1; r < 16; r++ {
			if got, want := snap.r(0, r), eval[r]; got != want {
				t.Fatalf("trial %d: R%d = 0x%08x, want 0x%08x\nprogram:\n%s",
					trial, r, got, want, prog)
			}
		}
	}
}

// randomALUProgram builds a random program over R1..R15 and evaluates it
// with reference semantics, returning the program text and the expected
// final register file.
func randomALUProgram(rng *rand.Rand) (string, [16]uint32) {
	var regs [16]uint32
	var sb strings.Builder
	reg := func() int { return 1 + rng.Intn(15) }

	// Seed registers with random immediates.
	for r := 1; r < 16; r++ {
		v := rng.Uint32()
		regs[r] = v
		fmt.Fprintf(&sb, "MOV R%d, 0x%x\n", r, v)
	}
	ops := []string{"IADD", "SHL", "SHRU", "SHRS", "AND", "OR", "XOR",
		"IMAD", "POPC", "BREV", "IMNMXU", "FADD", "FMUL", "SEL"}
	n := 4 + rng.Intn(24)
	for i := 0; i < n; i++ {
		d, a, b, c := reg(), reg(), reg(), reg()
		switch ops[rng.Intn(len(ops))] {
		case "IADD":
			fmt.Fprintf(&sb, "IADD R%d, R%d, R%d\n", d, a, b)
			regs[d] = regs[a] + regs[b]
		case "SHL":
			sh := uint32(rng.Intn(40))
			fmt.Fprintf(&sb, "SHL R%d, R%d, 0x%x\n", d, a, sh)
			if sh >= 32 {
				regs[d] = 0
			} else {
				regs[d] = regs[a] << sh
			}
		case "SHRU":
			sh := uint32(rng.Intn(40))
			fmt.Fprintf(&sb, "SHR.U32 R%d, R%d, 0x%x\n", d, a, sh)
			if sh >= 32 {
				regs[d] = 0
			} else {
				regs[d] = regs[a] >> sh
			}
		case "SHRS":
			sh := uint32(rng.Intn(40))
			fmt.Fprintf(&sb, "SHR R%d, R%d, 0x%x\n", d, a, sh)
			s := sh
			if s >= 32 {
				s = 31
			}
			regs[d] = uint32(int32(regs[a]) >> s)
		case "AND":
			fmt.Fprintf(&sb, "LOP.AND R%d, R%d, R%d\n", d, a, b)
			regs[d] = regs[a] & regs[b]
		case "OR":
			fmt.Fprintf(&sb, "LOP.OR R%d, R%d, R%d\n", d, a, b)
			regs[d] = regs[a] | regs[b]
		case "XOR":
			fmt.Fprintf(&sb, "LOP.XOR R%d, R%d, R%d\n", d, a, b)
			regs[d] = regs[a] ^ regs[b]
		case "IMAD":
			fmt.Fprintf(&sb, "IMAD R%d, R%d, R%d, R%d\n", d, a, b, c)
			regs[d] = regs[a]*regs[b] + regs[c]
		case "POPC":
			fmt.Fprintf(&sb, "POPC R%d, R%d\n", d, a)
			regs[d] = uint32(bits.OnesCount32(regs[a]))
		case "BREV":
			fmt.Fprintf(&sb, "BREV R%d, R%d\n", d, a)
			regs[d] = bits.Reverse32(regs[a])
		case "IMNMXU":
			fmt.Fprintf(&sb, "IMNMX.U32 R%d, R%d, R%d, PT\n", d, a, b)
			if regs[a] < regs[b] {
				regs[d] = regs[a]
			} else {
				regs[d] = regs[b]
			}
		case "FADD":
			fmt.Fprintf(&sb, "FADD R%d, R%d, R%d\n", d, a, b)
			regs[d] = math.Float32bits(math.Float32frombits(regs[a]) + math.Float32frombits(regs[b]))
		case "FMUL":
			fmt.Fprintf(&sb, "FMUL R%d, R%d, R%d\n", d, a, b)
			regs[d] = math.Float32bits(math.Float32frombits(regs[a]) * math.Float32frombits(regs[b]))
		case "SEL":
			// Set a predicate from a comparison, then select.
			fmt.Fprintf(&sb, "ISETP.LT.U32.AND P1, R%d, R%d, PT\n", a, b)
			fmt.Fprintf(&sb, "SEL R%d, R%d, R%d, P1\n", d, a, c)
			if regs[a] < regs[b] {
				regs[d] = regs[a]
			} else {
				regs[d] = regs[c]
			}
		}
	}
	return sb.String(), normalizeNaNs(regs)
}

// normalizeNaNs canonicalizes float NaN payloads the same way for both
// evaluators (Go float arithmetic and the interpreter agree on IEEE 754,
// including NaN propagation from Float32bits round trips, so this is an
// identity in practice; it documents the expectation).
func normalizeNaNs(r [16]uint32) [16]uint32 { return r }

// ---------------------------------------------------------------------------
// Multi-block kernels shared by the differential suites, and what a launch
// can observably produce.
// ---------------------------------------------------------------------------

// clockMixSrc is a multi-block kernel mixing divergent control flow with
// per-SM clock reads (S2R SR_CLOCK and CS2R). Clock values depend on the
// exact per-SM instruction schedule, so storing them to global memory makes
// any scheduling difference visible in the output bytes.
const clockMixSrc = `
.kernel clockmix
.param outptr
    S2R R0, SR_TID.X
    S2R R1, SR_CTAID.X
    MOV R2, c0[NTID_X]
    IMAD R0, R1, R2, R0           // global thread id
    SHL R3, R0, 0x2
    IADD R4, R3, c0[outptr]
    LOP.AND R5, R0, 0x3
    ISETP.EQ.AND P0, R5, 0x0, PT
@P0 BRA clk
    IMAD R6, R0, R0, 0x7          // most lanes: tid*tid + 7
    BRA store
clk:
    S2R R6, SR_CLOCK              // every 4th lane: the per-SM clock
store:
    CS2R R8, RZ
    IADD R6, R6, R8
    STG.32 [R4], R6
    EXIT
`

// gridReduceSrc reduces a 256-element slice per block through shared memory
// and barriers, writing one partial sum per block: barriers, shared memory,
// and looping control flow.
const gridReduceSrc = `
.kernel gridreduce
.param inptr
.param outptr
.shared 1024
    S2R R0, SR_TID.X
    S2R R12, SR_CTAID.X
    MOV R13, c0[NTID_X]
    IMAD R14, R12, R13, R0        // global thread id
    SHL R1, R0, 0x2               // local byte offset
    SHL R15, R14, 0x2
    IADD R2, R15, c0[inptr]
    LDG.32 R3, [R2]
    STS.32 [R1], R3
    BAR.SYNC
    MOV R4, 0x100
loop:
    SHR.U32 R4, R4, 0x1
    ISETP.EQ.AND P1, R4, 0x0, PT
@P1 BRA done
    ISETP.GE.AND P0, R0, R4, PT
@P0 BRA skip
    SHL R5, R4, 0x2
    IADD R6, R1, R5
    LDS.32 R7, [R6]
    LDS.32 R8, [R1]
    IADD R9, R7, R8
    STS.32 [R1], R9
skip:
    BAR.SYNC
    BRA loop
done:
    ISETP.NE.AND P2, R0, 0x0, PT
@P2 EXIT
    SHL R16, R12, 0x2
    IADD R11, R16, c0[outptr]
    LDS.32 R10, [RZ]
    STG.32 [R11], R10
    EXIT
`

// parRun captures everything a launch can observably produce.
type parRun struct {
	out   []byte
	stats LaunchStats
	err   error
	log   []LogEvent
}

// runLaunch builds a fresh device (so allocations land at identical
// addresses in every run), runs the launch the setup function describes, and
// snapshots the observable state.
func runLaunch(t *testing.T, src, name string,
	setup func(t *testing.T, d *Device) (Launch, uint32, int)) parRun {
	t.Helper()
	d := newTestDevice(t)
	k := mustKernel(t, src, name)
	l, outp, outLen := setup(t, d)
	l.Kernel = &ExecKernel{K: k}
	stats, err := d.Run(&l)
	r := parRun{stats: stats, err: err, log: d.LogEvents()}
	if outLen > 0 {
		b, rerr := d.Mem.ReadBytes(outp, outLen)
		if rerr != nil {
			t.Fatalf("ReadBytes: %v", rerr)
		}
		r.out = b
	}
	return r
}

// mustAllocWrite allocates n bytes and, if data is non-nil, writes it.
func mustAllocWrite(t testing.TB, d *Device, n int, data []byte) uint32 {
	t.Helper()
	p, err := d.Mem.Alloc(n)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if data != nil {
		if err := d.Mem.WriteBytes(p, data); err != nil {
			t.Fatalf("WriteBytes: %v", err)
		}
	}
	return p
}

// expectSame asserts two runs are observably bit-identical.
func expectSame(t *testing.T, label string, ref, got parRun) {
	t.Helper()
	refErr, gotErr := fmt.Sprint(ref.err), fmt.Sprint(got.err)
	if refErr != gotErr {
		t.Errorf("%s: error %q, want %q", label, gotErr, refErr)
	}
	if rt, ok := AsTrap(ref.err); ok {
		gt, gok := AsTrap(got.err)
		if !gok || !reflect.DeepEqual(rt, gt) {
			t.Errorf("%s: trap %+v, want %+v", label, gt, rt)
		}
	}
	if !reflect.DeepEqual(ref.stats, got.stats) {
		t.Errorf("%s: stats %+v, want %+v", label, got.stats, ref.stats)
	}
	if !bytes.Equal(ref.out, got.out) {
		for i := 0; i < len(ref.out) && i < len(got.out); i += 4 {
			if !bytes.Equal(ref.out[i:i+4], got.out[i:i+4]) {
				t.Errorf("%s: output word %d = %x, want %x", label, i/4, got.out[i:i+4], ref.out[i:i+4])
				break
			}
		}
		t.Errorf("%s: output bytes differ from the reference", label)
	}
	if !reflect.DeepEqual(ref.log, got.log) {
		t.Errorf("%s: device log %+v, want %+v", label, got.log, ref.log)
	}
}

// multiFaultSrc faults in every block with ctaid >= 2, each at a
// different address, while blocks 0 and 1 complete real work. The reported
// trap must be the one at the lowest faulting block linear index.
const multiFaultSrc = `
.kernel faulty
.param outptr
    S2R R0, SR_CTAID.X
    ISETP.GE.AND P0, R0, 0x2, PT
@P0 BRA bad
    S2R R1, SR_TID.X
    MOV R2, c0[NTID_X]
    IMAD R1, R0, R2, R1
    SHL R3, R1, 0x2
    IADD R4, R3, c0[outptr]
    IADD R5, R1, 0x2a
    STG.32 [R4], R5
    EXIT
bad:
    SHL R6, R0, 0x4
    IADD R7, R6, 0x3              // per-block distinct unmapped address
    LDG.32 R8, [R7]
    EXIT
`

// TestParallelTrapDeterminism: with six of eight blocks faulting, each at its
// own address, the launch stops at the first faulting block in linear order
// — block 2 — with the two blocks before it counted complete and exactly one
// device-log event.
func TestParallelTrapDeterminism(t *testing.T) {
	setup := func(t *testing.T, d *Device) (Launch, uint32, int) {
		const n = 2 * 32
		outp := mustAllocWrite(t, d, 4*n, nil)
		return Launch{
			Grid:   Dim3{X: 8, Y: 1, Z: 1},
			Block:  Dim3{X: 32, Y: 1, Z: 1},
			Params: []uint32{outp},
		}, outp, 4 * n
	}
	got := runLaunch(t, multiFaultSrc, "faulty", setup)
	trap, ok := AsTrap(got.err)
	if !ok {
		t.Fatalf("run did not trap: %v", got.err)
	}
	if want := uint32(2<<4 + 3); trap.Addr != want {
		t.Fatalf("trap address = %#x, want %#x (block 2)", trap.Addr, want)
	}
	if got.stats.Blocks != 2 {
		t.Fatalf("stats counted %d completed blocks, want 2", got.stats.Blocks)
	}
	if len(got.log) != 1 {
		t.Fatalf("run logged %d events, want 1", len(got.log))
	}
}

// TestParallelBudgetHang: a spinning grid exhausts the launch budget and
// traps as a hang after exactly the budgeted number of warp instructions.
func TestParallelBudgetHang(t *testing.T) {
	const src = `
.kernel spin
loop:
    BRA loop
`
	got := runLaunch(t, src, "spin", func(t *testing.T, d *Device) (Launch, uint32, int) {
		return Launch{
			Grid:   Dim3{X: 8, Y: 1, Z: 1},
			Block:  Dim3{X: 32, Y: 1, Z: 1},
			Budget: 10000,
		}, 0, 0
	})
	if gt, ok := AsTrap(got.err); !ok || gt.Kind != TrapInstrLimit {
		t.Fatalf("spin: %v, want instruction-limit trap", got.err)
	}
	if got.stats.WarpInstrs != 10000 {
		t.Fatalf("spin issued %d warp instructions, want the full budget 10000", got.stats.WarpInstrs)
	}
}
