package gpu

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/modcache"
	"repro/internal/race"
	"repro/internal/sass"
)

// runWithEngine runs a launch like runLaunch, selecting the translation
// engine or the legacy interpreter and the warp-split scheduler or the
// legacy min-PC scan, and snapshots the observable state plus the device
// digest.
func runWithEngine(t *testing.T, src, name string, noXlate, legacy bool,
	setup func(t *testing.T, d *Device) (Launch, uint32, int)) (parRun, uint64) {
	t.Helper()
	d := newTestDevice(t)
	d.NoXlate, d.LegacySched = noXlate, legacy
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
	return r, d.Digest()
}

// TestXlateDifferential holds translated execution bit-identical to the
// interpreter across the workload classes the engine optimizes: divergent
// control flow with clock reads, barrier-synchronized shared-memory
// reduction, and concurrently faulting blocks. Outputs, stats, traps, device
// log, and the full device digest must match, on the warp-split scheduler
// and on the legacy min-PC scan alike.
func TestXlateDifferential(t *testing.T) {
	cases := []struct {
		name, src, kernel string
		setup             func(t *testing.T, d *Device) (Launch, uint32, int)
	}{
		{
			name: "clockmix", src: clockMixSrc, kernel: "clockmix",
			setup: func(t *testing.T, d *Device) (Launch, uint32, int) {
				const n = 8 * 64
				outp := mustAllocWrite(t, d, 4*n, nil)
				return Launch{
					Grid:   Dim3{X: 8, Y: 1, Z: 1},
					Block:  Dim3{X: 64, Y: 1, Z: 1},
					Params: []uint32{outp},
				}, outp, 4 * n
			},
		},
		{
			name: "gridreduce", src: gridReduceSrc, kernel: "gridreduce",
			setup: func(t *testing.T, d *Device) (Launch, uint32, int) {
				const blocks, threads = 6, 256
				in := make([]byte, 4*blocks*threads)
				for i := 0; i < blocks*threads; i++ {
					in[4*i] = byte(i)
					in[4*i+1] = byte(i >> 8)
				}
				inp := mustAllocWrite(t, d, len(in), in)
				outp := mustAllocWrite(t, d, 4*blocks, nil)
				return Launch{
					Grid:   Dim3{X: blocks, Y: 1, Z: 1},
					Block:  Dim3{X: threads, Y: 1, Z: 1},
					Params: []uint32{inp, outp},
				}, outp, 4 * blocks
			},
		},
		{
			name: "faulty", src: multiFaultSrc, kernel: "faulty",
			setup: func(t *testing.T, d *Device) (Launch, uint32, int) {
				const n = 2 * 32
				outp := mustAllocWrite(t, d, 4*n, nil)
				return Launch{
					Grid:   Dim3{X: 8, Y: 1, Z: 1},
					Block:  Dim3{X: 32, Y: 1, Z: 1},
					Params: []uint32{outp},
				}, outp, 4 * n
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, sched := range schedulers {
				t.Run(sched.name, func(t *testing.T) {
					ref, refDig := runWithEngine(t, tc.src, tc.kernel, true, sched.legacy, tc.setup)
					got, gotDig := runWithEngine(t, tc.src, tc.kernel, false, sched.legacy, tc.setup)
					expectSame(t, "translated", ref, got)
					if refDig != gotDig {
						t.Errorf("device digest: translated %#x, interpreted %#x", gotDig, refDig)
					}
				})
			}
		})
	}
}

// thunkProbe is the harness of TestXlateThunkedShapes: a prologue of row ops
// gives every lane distinct integer, float, double and predicate operands, a
// guard P0 true on lanes 0..19 only, a global word address R6 shared by eight
// lanes, a word offset R7 within the shared window (whose upper half the
// prologue fills) and, in R11, the lane's own word of thunkProbeWords; the
// instruction under test follows at thunkProbeAt; the epilogue stores R0..R13
// and P0..P6 of every lane to the lane's own slot of buf.
const (
	thunkProbeHead = `
.kernel thunked
.param buf
.shared 0x40
    S2R R0, SR_TID.X
    IMAD R1, R0, 0x9e3779b1, 0x7f4a7c15
    IADD R2, R0, -0x10
    SHR.U32 R3, R1, 0x7
    I2F R4, R2
    FMUL R5, R4, 0.375f
    LOP.AND R7, R0, 0x7
    SHL R7, R7, 0x2
    IADD R6, R7, c0[buf]
    F2F.64 R8, R5
    LOP.XOR R10, R1, 0x5a5a5a5a
    SHL R11, R0, 0x2
    IADD R11, R11, c0[buf]
    LDG.32 R11, [R11]
    STS.32 [R7+0x20], R3
    MOV R12, 0x3c00bc00
    MOV R13, -0x1
    ISETP.LT.AND P0, R0, 0x14, PT
    ISETP.NE.AND P1, R7, 0x0, PT
    ISETP.GE.AND P2, R2, 0x0, PT
`
	thunkProbeAt   = 20 // the first instruction after the prologue
	thunkProbeTail = `
done:
    IMAD R14, R0, 0x60, c0[buf]
    IADD R14, R14, 0x100
    STG.32 [R14], R0
    STG.32 [R14+0x4], R1
    STG.32 [R14+0x8], R2
    STG.32 [R14+0xc], R3
    STG.32 [R14+0x10], R4
    STG.32 [R14+0x14], R5
    STG.32 [R14+0x18], R6
    STG.32 [R14+0x1c], R7
    STG.32 [R14+0x20], R8
    STG.32 [R14+0x24], R9
    STG.32 [R14+0x28], R10
    STG.32 [R14+0x2c], R11
    STG.32 [R14+0x30], R12
    STG.32 [R14+0x34], R13
    SEL R15, R13, RZ, P0
    STG.32 [R14+0x38], R15
    SEL R15, R13, RZ, P1
    STG.32 [R14+0x3c], R15
    SEL R15, R13, RZ, P2
    STG.32 [R14+0x40], R15
    SEL R15, R13, RZ, P3
    STG.32 [R14+0x44], R15
    SEL R15, R13, RZ, P4
    STG.32 [R14+0x48], R15
    SEL R15, R13, RZ, P5
    STG.32 [R14+0x4c], R15
    SEL R15, R13, RZ, P6
    STG.32 [R14+0x50], R15
    EXIT
`
)

// thunkProbeWords are the first 64 words of the probe's buffer, one per lane
// in R11: read as floats, NaNs (quiet and signalling, both signs), infinities,
// signed zeros, denormals, the integer conversions' boundaries and beyond,
// and arguments that overflow or underflow MUFU; read as integers, the
// extremes and the words I2F must round.
var thunkProbeWords = [64]uint32{
	0x7fc00000, 0xffc00001, 0x7f800001, 0xff800f00, // NaNs
	0x7f800000, 0xff800000, 0x00000000, 0x80000000, // ±Inf, ±0
	0x00000001, 0x807fffff, 0x00400000, 0x80000001, // denormals
	0x4effffff, 0x4f000000, 0xcf000000, 0xcf000001, // 2^31 - 128, 2^31, -2^31, below -2^31
	0x4f7fffff, 0x4f800000, 0x4f800001, 0x5f000000, // 2^32 - 256, 2^32, above, 2^63
	0xdf000000, 0x7f7fffff, 0xff7fffff, 0x00800000, // -2^63, ±max, min normal
	0x3f800000, 0xbf800000, 0x3f000000, 0xbf000000, // ±1, ±0.5
	0x3fc00000, 0xbfc00000, 0x3f7fffff, 0xbf7fffff, // ±1.5, just below ±1
	0x43000000, 0xc3160000, 0x42fe0000, 0xc3150000, // 128, -150, 127, -149: EX2's edges
	0x40490fdb, 0xc0490fdb, 0x49742400, 0x33800000, // ±pi, 1e6, 2^-24
	0x7fffffff, 0x80000002, 0xffffffff, 0x01000001, // integer extremes, 2^24 + 1
	0x00ffffff, 0xff000001, 0x7fffff80, 0x12345678,
	0x3eaaaaab, 0x4cbebc20, 0xd0000000, 0x2f800000, // 1/3, 1e8, -2^33, 2^-32
	0x0f000000, 0x8f000000, 0x60000000, 0xe0000000,
	0x4b000001, 0xcb7fffff, 0x3effffff, 0xbeffffff, // 2^23 + 1, -(2^24 - 1), just below ±0.5
	0x00000007, 0xfffffff9, 0x40000000, 0xc0000000, // ±7, ±2
}

// TestXlateThunkedShapes pins what compileStep makes of each instruction
// shape outside the row tier's ALU and global-access mainstream, and holds
// each to the interpreter. The thunk table has one instruction per semantic
// no row op or control kind covers — and, for a semantic the row tier
// encodes, a shape it rejects (a predicate, PT or RZ destination, a register
// LUT, a load or store width or address space it has no op for, a store with
// no value, an atomic on shared memory, a CAS without its swap operand): each
// must compile to the interpreter thunk. The row-op table has MUFU (its RCP,
// RSQ, SQRT, SIN and COS with a handler, LG2 and EX2 without), the
// conversions, the shared-memory accesses and the global atomics, whose ops
// only the portable executor runs: every MUFU function, I2F and F2I of both
// signednesses over thunkProbeWords' edge values, F2F in both directions with
// negated, constant-bank, immediate and RZ-adjacent operands, LDS/STS .32
// misaligned and out of bounds, RED and ATOM of every operation on words eight
// lanes share (.ADD.F32 over NaN words and values), misaligned, out of bounds
// past the first lane, and with the destination aliasing the address or the
// value. The control table has
// EXIT, a branch (divergent under the guard) and BAR. A translated launch
// around each instruction, unguarded and under the partial guard @P0, must
// match the interpreter on every lane's registers and predicates, on memory
// (the atomics' words and the device digest) and on the trap. CS2R is checked
// in TestXlateDifferential's clockmix kernel, whose clock reads expose any
// scheduling difference.
func TestXlateThunkedShapes(t *testing.T) {
	type row struct{ name, body string }
	tables := []struct {
		tier int
		rows []row
	}{{tierThunk, []row{
		{"FADD", "FADD P3, R4, R5"},
		{"FMUL", "FMUL P3, R4, R5"},
		{"FFMA", "FFMA P3, R4, R5, R4"},
		{"FMNMX", "FMNMX P3, R4, R5, P1"},
		{"FSEL", "FSEL P3, R4, R5, P2"},
		{"FSET", "FSET.GT.AND R10, R4, R5, P1"},
		{"FSETP", "FSETP.GT.AND PT, R4, R5, P1"},
		{"FCHK", "FCHK P3, R5, R4"},
		{"FRND", "FRND R10, R5"},
		{"DADD", "DADD RZ, R8, R8"},
		{"DMUL", "DMUL RZ, R8, R8"},
		{"DFMA", "DFMA RZ, R8, R8, R8"},
		{"DMNMX", "DMNMX RZ, R8, R8, P1"},
		{"DSETP", "DSETP.GT.AND P3, R8, 1.5f, P2"},
		{"HADD2", "HADD2 R10, R12, R3"},
		{"HMUL2", "HMUL2 R10, R12, R3"},
		{"HFMA2", "HFMA2 R10, R12, R3, R12"},
		{"IADD", "IADD P3, R2, R0"},
		{"IADD3", "IADD3 P3, R2, R0, 0x10"},
		{"IADD3 RZ", "IADD3 RZ, R2, R0, R1"},
		{"IMAD", "IMAD P3, R2, R0, 0x10"},
		{"IMUL", "IMUL P3, R2, R0"},
		{"IMNMX", "IMNMX P3, R2, R0, P1"},
		{"IABS", "IABS R10, R2"},
		{"ISETP", "ISETP.LT.AND PT, R2, R0, P1"},
		{"ISCADD", "ISCADD P3, R2, R0, 0x4"},
		{"LEA", "LEA P3, R2, R0, 0x2"},
		{"LOP", "LOP.AND P3, R1, R7"},
		{"LOP3", "LOP3 R10, R1, R3, R2, R7"},
		{"SHL", "SHL P3, R1, R7"},
		{"SHR", "SHR P3, R1, R7"},
		{"SHF", "SHF.R R10, R1, R7, R3"},
		{"POPC", "POPC P3, R7"},
		{"FLO", "FLO P3, R1"},
		{"BREV", "BREV P3, R7"},
		{"BMSK", "BMSK R10, R7, R0"},
		{"SGXT", "SGXT R10, R1, R0"},
		{"VABSDIFF", "VABSDIFF R10, R2, R1"},
		{"SEL", "SEL P3, R1, R2, P2"},
		{"PRMT", "PRMT R10, R1, R0, R3"},
		{"MOV", "MOV P3, R7"},
		{"S2R", "S2R P3, SR_LANEID"},
		{"VOTE", "VOTE R10, P2"},
		{"P2R", "P2R R10, R1"},
		{"R2P", "R2P P3, R1, R0"},
		{"PSETP", "PSETP.XOR P3, P1, P2"},
		{"PLOP3", "PLOP3 P3, P1, P2, P0, 0x96"},
		{"I2I", "I2I.S8 R10, R1"},
		{"LDC", "LDC R10, [R7]"},
		{"ATOMS", "ATOMS.ADD R10, [R7+0x20], R0"},
		{"BPT", "BPT"},
		{"NOP", "NOP"},
		{"MEMBAR", "MEMBAR"},
		{"MUFU RZ", "MUFU.RCP RZ, R5"},
		{"F2F.64 P", "F2F.64 P3, R5"},
		{"LDG.U8", "LDG.U8 R10, [R6+0x1]"},
		{"LDG.S16", "LDG.S16 R10, [R6+0x2]"},
		{"LDG.128", "LDG.128 R8, [R6]"},
		{"LDL", "LDL R10, [R7]"},
		{"STL", "STL [R7+0x4], R1\n    LDL R10, [R7+0x4]"},
		{"LDS.64", "LDS.64 R8, [RZ+0x20]"},
		{"LDS.64 misaligned", "LDS.64 R8, [R7+0x20]"},
		{"STG no value", "STG.32 [R6]"},
		{"RED.CAS no swap", "RED.CAS [R6], R11"},
	}}, {tierFast, []row{
		{"MUFU.RCP", "MUFU.RCP R10, R11"},
		{"MUFU.RSQ", "MUFU.RSQ R10, R11"},
		{"MUFU.SQRT", "MUFU.SQRT R10, -R11"},
		{"MUFU.EX2", "MUFU.EX2 R10, R11"},
		{"MUFU.LG2", "MUFU.LG2 R10, R11"},
		{"MUFU.SIN", "MUFU.SIN R10, R11"},
		{"MUFU.COS", "MUFU.COS R10, c0[buf]"},
		{"MUFU.EX2 neg", "MUFU.EX2 R11, -R5"},
		{"I2F", "I2F R10, R11"},
		{"I2F.U32", "I2F.U32 R11, R11"},
		{"I2F const", "I2F R10, c0[buf]"},
		{"F2I", "F2I R10, R11"},
		{"F2I.U32", "F2I.U32 R10, R11"},
		{"F2I.TRUNC neg", "F2I.TRUNC R11, -R11"},
		{"F2I.U32 imm", "F2I.U32 R10, -1.5f"},
		{"F2F", "F2F R10, R10"},
		{"F2F neg", "F2F.32 R10, -R8"},
		{"F2F const", "F2F R10, c0[buf]"},
		{"F2F neg const", "F2F R10, -c0[buf]"},
		{"F2F imm", "F2F R10, -1.5f"},
		{"F2F RZ pair", "F2F R10, -R254"},
		{"F2F RZ", "F2F R10, -RZ"},
		{"F2F.64", "F2F.64 R8, R11"},
		{"F2F.64 aliased", "F2F.64 R10, R11"},
		{"F2F.64 neg", "F2F.64 R8, -R5"},
		{"F2F.64 const", "F2F.64 R8, -c0[buf]"},
		{"F2F.64 imm", "F2F.64 R8, 0.375f"},
		{"F2F.64 RZ pair", "F2F.64 R254, R11\n    MOV R9, R254"},
		{"LDS", "LDS.32 R10, [R7+0x20]"},
		{"LDS abs", "LDS R10, [RZ+0x24]"},
		{"LDS misaligned", "LDS.32 R10, [R0]"},
		{"LDS out of bounds", "LDS.32 R10, [R7+0x28]"},
		{"LDS wrapped", "LDS.32 R10, [R2]"},
		{"STS", "STS.32 [R7], R11\n    LDS.32 R10, [R7]"},
		{"STS abs", "STS [RZ+0x3c], R1\n    LDS R10, [RZ+0x3c]"},
		{"STS misaligned", "STS.32 [R0], R1"},
		{"STS out of bounds", "STS.32 [R7+0x28], R1"},
		{"ATOMG", "ATOMG.ADD R10, [R6], R0"},
		{"RED.ADD", "RED.ADD [R6], R0"},
		{"RED.ADD.F32", "RED.ADD.F32 [R6+0x4], R5"},
		{"RED.ADD.F32 NaN", "RED.ADD.F32 [R6+0x4], R11"},
		{"RED.MIN", "RED.MIN [R6], R2"},
		{"RED.MAX", "RED.MAX [R6+0x8], R2"},
		{"RED.AND", "RED.AND [R6], R1"},
		{"RED.OR", "RED.OR [R6], R1"},
		{"RED.XOR", "RED.XOR [R6], c0[buf]"},
		{"RED.EXCH", "RED.EXCH [R6], R0"},
		{"RED.CAS", "RED.CAS [R6], R11, R0"},
		{"RED absolute", "RED.ADD [RZ+0x10000], R0"},
		{"RED misaligned", "RED.ADD [R6+0x2], R0"},
		{"RED out of bounds", "RED.ADD [R6+0x18fc], R0"},
		{"ATOM.CAS aliased", "ATOM.CAS R6, [R6], R6, R0"},
		{"ATOM.EXCH aliased", "ATOM.EXCH R11, [R6+0x8], R11"},
		{"ATOM.ADD.F32", "ATOM.ADD.F32 R10, [R6], R5"},
		{"ATOM RZ", "ATOM.MIN RZ, [R6], R2"},
	}}, {tierControl, []row{
		{"EXIT", "EXIT"},
		{"KILL", "KILL"},
		{"BRA", "BRA done\n    MOV R10, RZ"},
		{"JMP", "JMP done\n    MOV R10, RZ"},
		{"BAR", "BAR.SYNC"},
	}}}
	setup := func(t *testing.T, d *Device) (Launch, uint32, int) {
		const n = 0x100 + 64*0x60
		init := make([]byte, n)
		for i, v := range thunkProbeWords {
			binary.LittleEndian.PutUint32(init[4*i:], v)
		}
		buf := mustAllocWrite(t, d, n, init)
		return Launch{
			Grid:   Dim3{X: 1, Y: 1, Z: 1},
			Block:  Dim3{X: 64, Y: 1, Z: 1},
			Params: []uint32{buf},
		}, buf, n
	}
	for _, tab := range tables {
		for _, row := range tab.rows {
			for _, guard := range []struct{ name, text string }{{"plain", "    "}, {"guarded", "@P0 "}} {
				t.Run(row.name+"/"+guard.name, func(t *testing.T) {
					src := thunkProbeHead + guard.text + row.body + "\n" + thunkProbeTail
					k := mustKernel(t, src, "thunked")
					plan, err := translate(k)
					if err != nil {
						t.Fatal(err)
					}
					if tier := tierOf(plan, &k.Instrs[thunkProbeAt], thunkProbeAt); tier != tab.tier {
						t.Errorf("%s compiles to tier %d, want %d", row.body, tier, tab.tier)
					}
					ref, refDig := runWithEngine(t, src, "thunked", true, false, setup)
					got, gotDig := runWithEngine(t, src, "thunked", false, false, setup)
					expectSame(t, "translated", ref, got)
					if refDig != gotDig {
						t.Errorf("device digest: translated %#x, interpreted %#x", gotDig, refDig)
					}
				})
			}
		}
	}
	k := mustKernel(t, clockMixSrc, "clockmix")
	plan, err := translate(k)
	if err != nil {
		t.Fatal(err)
	}
	for i := range k.Instrs {
		if k.Instrs[i].Op.Info().Sem == sass.SemCS2R && tierOf(plan, &k.Instrs[i], i) != tierThunk {
			t.Errorf("clockmix: CS2R at %d compiles to tier %d, want the interpreter thunk", i, tierOf(plan, &k.Instrs[i], i))
		}
	}
}

// schedulers are the two warp schedulers every engine differential runs on:
// the warp-split product scheduler and the legacy min-PC scan oracle.
var schedulers = []struct {
	name   string
	legacy bool
}{{"split", false}, {"scan", true}}

// TestXlateRandomALU reruns the random straight-line differential programs
// with translation explicitly off and on; both must match the independent
// reference evaluator.
func TestXlateRandomALU(t *testing.T) {
	// The plain differential_test harness already runs translated (the
	// default); here the same probe harness runs interpreted so any
	// divergence between the two engines' ALU semantics would show as a
	// mismatch against the shared reference model in randomALUProgram.
	src := "MOV R1, 0x2a\nIADD R2, R1, 0x1\nLOP.XOR R3, R2, R1\nPOPC R4, R3\n"
	snapT := runBody(t, src)
	// runBody builds its own device with translation on; replicate with the
	// interpreter through a full kernel run and compare final registers.
	p, err := sass.Assemble("probe", ".kernel probe\n"+src+"    EXIT\n")
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDevice(sass.FamilyVolta, 1)
	if err != nil {
		t.Fatal(err)
	}
	d.NoXlate = true
	snapI := &snapshot{}
	ek := &ExecKernel{K: p.Kernels[0]}
	ek.Before = make([][]Callback, len(p.Kernels[0].Instrs))
	ek.Before[len(p.Kernels[0].Instrs)-1] = []Callback{func(c *InstrCtx) {
		for lane := 0; lane < WarpSize; lane++ {
			for r := 0; r < 64; r++ {
				snapI.regs[lane][r] = c.ReadReg(lane, sass.RegID(r))
			}
		}
	}}
	if _, err := d.Run(&Launch{
		Kernel: ek,
		Grid:   Dim3{X: 1, Y: 1, Z: 1},
		Block:  Dim3{X: WarpSize, Y: 1, Z: 1},
		Budget: 1 << 20,
	}); err != nil {
		t.Fatal(err)
	}
	if snapT.regs != snapI.regs {
		t.Fatalf("translated and interpreted register files differ")
	}
}

// TestXlateSnapshotDifferential pauses a barrier-heavy launch every few
// warp instructions under both engines and requires the digest trajectory —
// every intermediate architectural state, not just the final one — to match,
// on either scheduler.
func TestXlateSnapshotDifferential(t *testing.T) {
	digests := func(noXlate, legacy bool) []uint64 {
		d := newTestDevice(t)
		d.NoXlate, d.LegacySched = noXlate, legacy
		k := mustKernel(t, gridReduceSrc, "gridreduce")
		const blocks, threads = 2, 256
		in := make([]byte, 4*blocks*threads)
		for i := range in {
			in[i] = byte(i * 7)
		}
		inp := mustAllocWrite(t, d, len(in), in)
		outp := mustAllocWrite(t, d, 4*blocks, nil)
		run, err := d.BeginRun(&Launch{
			Kernel: &ExecKernel{K: k},
			Grid:   Dim3{X: blocks, Y: 1, Z: 1},
			Block:  Dim3{X: threads, Y: 1, Z: 1},
			Params: []uint32{inp, outp},
		})
		if err != nil {
			t.Fatal(err)
		}
		var digs []uint64
		for {
			paused, err := run.Resume(37)
			if err != nil {
				t.Fatalf("Resume: %v", err)
			}
			digs = append(digs, run.Digest())
			if !paused {
				return digs
			}
		}
	}
	for _, sched := range schedulers {
		ref := digests(true, sched.legacy)
		got := digests(false, sched.legacy)
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("%s scheduler: digest trajectories differ:\ninterpreted %d pauses\ntranslated  %d pauses",
				sched.name, len(ref), len(got))
		}
	}
}

// TestSchedulerDigestDifferential holds the warp-split scheduler to the
// legacy min-PC scan digest-for-digest: pausing a heavily diverged kernel
// every 37 warp instructions must see the identical state trajectory in
// both modes, so issue order, accounting, and reconvergence points all
// match, not just final outputs.
func TestSchedulerDigestDifferential(t *testing.T) {
	digests := func(legacy bool) []uint64 {
		d := newTestDevice(t)
		d.LegacySched = legacy
		k := mustKernel(t, divergentSrc, "div")
		const blocks, threads = 2, 128
		outp := mustAllocWrite(t, d, 4*blocks*threads, nil)
		run, err := d.BeginRun(&Launch{
			Kernel: &ExecKernel{K: k},
			Grid:   Dim3{X: blocks, Y: 1, Z: 1},
			Block:  Dim3{X: threads, Y: 1, Z: 1},
			Params: []uint32{outp},
		})
		if err != nil {
			t.Fatal(err)
		}
		var digs []uint64
		for {
			paused, err := run.Resume(37)
			if err != nil {
				t.Fatalf("Resume: %v", err)
			}
			digs = append(digs, run.Digest())
			if !paused {
				return digs
			}
		}
	}
	ref := digests(true)
	got := digests(false)
	if !reflect.DeepEqual(ref, got) {
		t.Fatalf("digest trajectories differ:\nlegacy scan %d pauses\nwarp-split  %d pauses", len(ref), len(got))
	}
}

// TestXlateDivergentConcurrentSharedPlans is the divergent-workload variant
// of TestXlateConcurrentSharedPlans: many devices execute one shared plan
// concurrently with a mix of scheduler modes, under -race in CI. Per-warp split state must stay device-private and every
// combination must reproduce the sequential reference.
func TestXlateDivergentConcurrentSharedPlans(t *testing.T) {
	setup := func(t *testing.T, d *Device) (Launch, uint32, int) {
		const blocks, threads = 8, 128
		outp := mustAllocWrite(t, d, 4*blocks*threads, nil)
		return Launch{
			Grid:   Dim3{X: blocks, Y: 1, Z: 1},
			Block:  Dim3{X: threads, Y: 1, Z: 1},
			Params: []uint32{outp},
		}, outp, 4 * blocks * threads
	}
	ref, _ := runWithEngine(t, divergentSrc, "div", false, false, setup)
	if ref.err != nil {
		t.Fatal(ref.err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < len(errs); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			d := newTestDevice(t)
			d.LegacySched = g%2 == 1
			k := mustKernel(t, divergentSrc, "div")
			l, outp, outLen := setup(t, d)
			l.Kernel = &ExecKernel{K: k}
			stats, err := d.Run(&l)
			if err != nil {
				errs[g] = err
				return
			}
			if !reflect.DeepEqual(stats, ref.stats) {
				errs[g] = fmt.Errorf("goroutine %d: stats %+v, want %+v", g, stats, ref.stats)
				return
			}
			out, err := d.Mem.ReadBytes(outp, outLen)
			if err != nil {
				errs[g] = err
				return
			}
			if !bytes.Equal(out, ref.out) {
				errs[g] = fmt.Errorf("goroutine %d: output differs from reference", g)
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestXlatePlanCacheWarmCold proves plans are built once per kernel content
// hash and shared across devices: a cold run builds, every later run —
// including on a different device — hits.
func TestXlatePlanCacheWarmCold(t *testing.T) {
	modcache.Shared.Reset()
	src := `
.kernel cachetest
    MOV R1, 0x5eedfeed
    IADD R2, R1, 0x1
    EXIT
`
	k := mustKernel(t, src, "cachetest")
	launch := func() *Launch {
		return &Launch{
			Kernel: &ExecKernel{K: k},
			Grid:   Dim3{X: 1, Y: 1, Z: 1},
			Block:  Dim3{X: 32, Y: 1, Z: 1},
		}
	}
	before := modcache.Shared.Stats()
	d1 := newTestDevice(t)
	if _, err := d1.Run(launch()); err != nil {
		t.Fatal(err)
	}
	afterCold := modcache.Shared.Stats()
	if afterCold.PlanBuilds != before.PlanBuilds+1 {
		t.Errorf("cold run: plan builds %d -> %d, want one build", before.PlanBuilds, afterCold.PlanBuilds)
	}
	d2 := newTestDevice(t)
	if _, err := d2.Run(launch()); err != nil {
		t.Fatal(err)
	}
	afterWarm := modcache.Shared.Stats()
	if afterWarm.PlanBuilds != afterCold.PlanBuilds {
		t.Errorf("warm run rebuilt the plan: builds %d -> %d", afterCold.PlanBuilds, afterWarm.PlanBuilds)
	}
	if afterWarm.PlanHits != afterCold.PlanHits+1 {
		t.Errorf("warm run: plan hits %d -> %d, want one hit", afterCold.PlanHits, afterWarm.PlanHits)
	}
}

// TestXlateSharedKernelImmutability proves translation never mutates the
// kernel it compiles: the decoded instruction list is deep-compared before
// and after translated runs (plans are shared process-wide, so a mutation
// would corrupt every future launch of the kernel).
func TestXlateSharedKernelImmutability(t *testing.T) {
	k := mustKernel(t, gridReduceSrc, "gridreduce")
	cloneOps := func(ops []sass.Operand) []sass.Operand {
		if ops == nil {
			return nil
		}
		// Preserve empty-but-non-nil slices: DeepEqual distinguishes them.
		return append(make([]sass.Operand, 0, len(ops)), ops...)
	}
	saved := make([]sass.Instr, len(k.Instrs))
	copy(saved, k.Instrs)
	for i := range saved {
		saved[i].Dst = cloneOps(k.Instrs[i].Dst)
		saved[i].Src = cloneOps(k.Instrs[i].Src)
	}
	d := newTestDevice(t)
	const blocks, threads = 2, 256
	inp := mustAllocWrite(t, d, 4*blocks*threads, make([]byte, 4*blocks*threads))
	outp := mustAllocWrite(t, d, 4*blocks, nil)
	for i := 0; i < 3; i++ {
		if _, err := d.Run(&Launch{
			Kernel: &ExecKernel{K: k},
			Grid:   Dim3{X: blocks, Y: 1, Z: 1},
			Block:  Dim3{X: threads, Y: 1, Z: 1},
			Params: []uint32{inp, outp},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(saved, k.Instrs) {
		t.Fatalf("translated runs mutated the kernel's instruction list")
	}
}

// TestXlateConcurrentSharedPlans runs many devices concurrently against one
// kernel (one shared plan), under -race in CI: plan execution must be safe
// to share and every device must produce the reference output.
func TestXlateConcurrentSharedPlans(t *testing.T) {
	setup := func(t *testing.T, d *Device) (Launch, uint32, int) {
		const n = 8 * 64
		outp := mustAllocWrite(t, d, 4*n, nil)
		return Launch{
			Grid:   Dim3{X: 8, Y: 1, Z: 1},
			Block:  Dim3{X: 64, Y: 1, Z: 1},
			Params: []uint32{outp},
		}, outp, 4 * n
	}
	ref, _ := runWithEngine(t, clockMixSrc, "clockmix", true, false, setup)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < len(errs); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			d := newTestDevice(t)
			k := mustKernel(t, clockMixSrc, "clockmix")
			l, outp, outLen := setup(t, d)
			l.Kernel = &ExecKernel{K: k}
			stats, err := d.Run(&l)
			if err != nil {
				errs[g] = err
				return
			}
			if !reflect.DeepEqual(stats, ref.stats) {
				errs[g] = fmt.Errorf("goroutine %d: stats %+v, want %+v", g, stats, ref.stats)
				return
			}
			out, err := d.Mem.ReadBytes(outp, outLen)
			if err != nil {
				errs[g] = err
				return
			}
			if !bytes.Equal(out, ref.out) {
				errs[g] = fmt.Errorf("goroutine %d: output differs from reference", g)
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestXlateAllocs pins steady-state per-launch allocations at zero: with the
// plan cached, warp/block/page state pooled and the per-launch bookkeeping
// (constant bank, budget counter, stats) held by the device, a repeat launch
// allocates nothing. Under -race the body runs but the count is only logged
// (see internal/race).
func TestXlateAllocs(t *testing.T) {
	d := newTestDevice(t)
	k := mustKernel(t, clockMixSrc, "clockmix")
	const n = 8 * 64
	outp := mustAllocWrite(t, d, 4*n, nil)
	l := &Launch{
		Kernel: &ExecKernel{K: k},
		Grid:   Dim3{X: 8, Y: 1, Z: 1},
		Block:  Dim3{X: 64, Y: 1, Z: 1},
		Params: []uint32{outp},
	}
	if _, err := d.Run(l); err != nil { // warm plan cache and pools
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := d.Run(l); err != nil {
			t.Fatal(err)
		}
	})
	if race.Enabled {
		t.Logf("steady-state launch allocated %.1f objects under -race", avg)
	} else if avg != 0 {
		t.Errorf("steady-state launch allocated %.1f objects, want 0", avg)
	}
}

// TestPlanRunsPastGuardedExit: a straight-line run goes on past a guarded
// EXIT only into a block that nothing but the EXIT's fall-through enters,
// ends with an EXIT that stops there, and never runs past a branch target —
// here the loop head after the second guard, the tail after the unguarded
// EXIT, which only a branch enters.
func TestPlanRunsPastGuardedExit(t *testing.T) {
	k := mustKernel(t, `
.kernel runs
    S2R R0, SR_TID.X
    ISETP.GE.AND P0, R0, 0x10, PT
@P0 EXIT
    IADD R1, R0, 0x1
    ISETP.GE.AND P1, R0, 0x8, PT
@P1 EXIT
back:
    IADD R1, R1, 0x1
    ISETP.LT.AND P2, R1, 0x4, PT
@P2 BRA back
    ISETP.EQ.AND P3, R1, 0x5, PT
@P3 BRA tail
    IADD R2, R1, 0x2
    EXIT
tail:
    IADD R3, R0, 0x3
    EXIT
`, "runs")
	plan, err := translate(k)
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{6, 5, 4, 3, 2, 1, 2, 1, 0, 1, 0, 2, 1, 2, 1}
	for pc, xi := range plan.steps {
		if xi.runLen != want[pc] {
			t.Errorf("pc %d (%v): runLen %d, want %d", pc, &k.Instrs[pc], xi.runLen, want[pc])
		}
		if xi.rowLen > xi.runLen || xi.ctl == ctlExit && xi.rowLen != 0 {
			t.Errorf("pc %d (%v): rowLen %d outside runLen %d", pc, &k.Instrs[pc], xi.rowLen, xi.runLen)
		}
	}
}
