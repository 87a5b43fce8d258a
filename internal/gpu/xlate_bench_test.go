package gpu

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/sass"
)

// hotLoopSrc is the warp hot-loop benchmark kernel: a 256-iteration ALU loop
// per thread, so per-instruction dispatch cost dominates and the translated
// and interpreted engines are compared on exactly the path the translation
// engine optimizes.
const hotLoopSrc = `
.kernel hot
.param outptr
    S2R R0, SR_TID.X
    S2R R7, SR_CTAID.X
    MOV R1, 0x1
    MOV R2, 0x100
loop:
    IMAD R1, R1, R0, 0x7
    LOP.XOR R1, R1, R7
    IADD R3, R1, 0x3
    SHL R4, R3, 0x1
    LOP.AND R1, R1, R4
    IADD R2, R2, -0x1
    ISETP.NE.AND P0, R2, 0x0, PT
@P0 BRA loop
    MOV R5, c0[NTID_X]
    IMAD R6, R7, R5, R0
    SHL R6, R6, 0x2
    IADD R6, R6, c0[outptr]
    STG.32 [R6], R1
    EXIT
`

// shortWarpSrc is the short-launch benchmark kernel, the shape of a
// 353.clvrleaf launch: 19 instructions per warp — index arithmetic on two
// constant-bank operands, a guarded early EXIT for the grid's tail, one load,
// a few ALU ops, one store — so that building the block's warps and
// broadcasting its constants weigh as much as they do in the campaigns
// (249 launches of 32 warps a run), where hotLoopSrc's 2 000 instructions per
// warp hide them.
const shortWarpSrc = `
.kernel short
.param buf
    S2R R0, SR_TID.X
    S2R R1, SR_CTAID.X
    IMAD R2, R1, c0[NTID_X], R0
    ISETP.GE.AND P0, R2, 0x3fc, PT
@P0 EXIT
    SHL R3, R2, 0x2
    IADD R3, R3, c0[buf]
    LDG.32 R4, [R3]
    IADD R5, R4, 0x1
    SHL R6, R5, 0x3
    LOP.XOR R6, R6, R2
    IMAD R7, R6, 0x5, R4
    LOP.AND R7, R7, 0xffff
    IADD R8, R7, R4
    SHL R9, R8, 0x1
    IADD R9, R9, R0
    LOP.OR R9, R9, 0x1
    STG.32 [R3], R9
    EXIT
`

// Launch shapes for benchLaunch: run to completion, run the way the profiler
// does — every instruction's active lanes counted by the in-line tally — or
// run through BeginRun pausing every pauseStride warp instructions — the
// latter two drive the batched loop's hooked form and its pause clip. The
// callback shapes dispatch a counting closure: an After callback on the
// stores only (memfault's re-assertion) or an After callback on every
// instruction (StaticFI, sasstrace, DebuggerFI's single step).
const (
	benchPlain = iota
	benchProfiled
	benchPaused
	benchStores
	benchEvery
)

const pauseStride = 1000

// benchLaunch times repeated launches of src's kernel (8 blocks of 128
// threads writing one word each) on the translated or interpreted engine.
func benchLaunch(b *testing.B, src string, noXlate bool, shape int) {
	p, err := sass.Assemble("bench", src)
	if err != nil {
		b.Fatal(err)
	}
	d, err := NewDevice(sass.FamilyVolta, 4)
	if err != nil {
		b.Fatal(err)
	}
	d.NoXlate = noXlate
	const blocks, threads = 8, 128
	outp, err := d.Mem.Alloc(4 * blocks * threads)
	if err != nil {
		b.Fatal(err)
	}
	k := p.Kernels[0]
	ek := &ExecKernel{K: k}
	calls := 0
	count := func(*InstrCtx) { calls++ }
	switch shape {
	case benchProfiled:
		ek.Tally = make([]SiteTally, len(k.Instrs))
	case benchStores, benchEvery:
		ek.After = make([][]Callback, len(k.Instrs))
		for i := range k.Instrs {
			if shape == benchEvery || k.Instrs[i].Op.String() == "STG" {
				ek.After[i] = []Callback{count}
			}
		}
	}
	l := &Launch{
		Kernel: ek,
		Grid:   Dim3{X: blocks, Y: 1, Z: 1},
		Block:  Dim3{X: threads, Y: 1, Z: 1},
		Params: []uint32{outp},
	}
	launch := func() LaunchStats {
		if shape != benchPaused {
			stats, err := d.Run(l)
			if err != nil {
				b.Fatal(err)
			}
			return stats
		}
		r, err := d.BeginRun(l)
		if err != nil {
			b.Fatal(err)
		}
		for paused := true; paused; {
			if paused, err = r.Resume(pauseStride); err != nil {
				b.Fatal(err)
			}
		}
		return r.Stats()
	}
	stats := launch() // warm the plan cache and pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		launch()
	}
	b.StopTimer()
	var lanes uint64
	for _, c := range ek.Tally {
		lanes += c.Threads
	}
	if shape == benchProfiled && lanes != uint64(b.N+1)*stats.ThreadInstrs {
		b.Fatalf("the tally counted %d lanes, want %d", lanes, uint64(b.N+1)*stats.ThreadInstrs)
	}
	if (shape >= benchStores) != (calls > 0) {
		b.Fatalf("%d callbacks dispatched", calls)
	}
	perLaunch := float64(stats.WarpInstrs)
	b.ReportMetric(perLaunch*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mwarpinstr/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(blocks*threads/WarpSize), "ns/warp")
}

// BenchmarkWarpTranslated measures the block-level translation engine on the
// warp hot loop; BenchmarkWarpInterpreted is the legacy dispatch baseline.
func BenchmarkWarpTranslated(b *testing.B)  { benchLaunch(b, hotLoopSrc, false, benchPlain) }
func BenchmarkWarpInterpreted(b *testing.B) { benchLaunch(b, hotLoopSrc, true, benchPlain) }

// BenchmarkShortWarpLaunch is the per-warp fixed cost: 8 blocks of 4 short
// warps a launch (shortWarpSrc), read as ns/warp.
func BenchmarkShortWarpLaunch(b *testing.B) { benchLaunch(b, shortWarpSrc, false, benchPlain) }

// BenchmarkProfiledLaunch and BenchmarkPausedLaunch run the hot loop and the
// divergent kernel with the in-line tally counting every instruction, and
// through a pausable run stopping every pauseStride instructions, on both
// engines.
func BenchmarkProfiledLaunch(b *testing.B) { benchShapes(b, benchProfiled) }
func BenchmarkPausedLaunch(b *testing.B)   { benchShapes(b, benchPaused) }

// BenchmarkCallbackLaunch runs the hot loop and the divergent kernel, on both
// engines, dispatching callbacks in the two shapes the tools do: on the
// stores only, and on every instruction.
func BenchmarkCallbackLaunch(b *testing.B) {
	for _, s := range []struct {
		name  string
		shape int
	}{{"stores", benchStores}, {"every", benchEvery}} {
		b.Run(s.name, func(b *testing.B) { benchShapes(b, s.shape) })
	}
}

func benchShapes(b *testing.B, shape int) {
	for _, k := range []struct{ name, src string }{{"hot", hotLoopSrc}, {"divergent", divergentSrc}} {
		b.Run(k.name+"/translated", func(b *testing.B) { benchLaunch(b, k.src, false, shape) })
		b.Run(k.name+"/interpreted", func(b *testing.B) { benchLaunch(b, k.src, true, shape) })
	}
}

// BenchmarkRowKernels times every row primitive Go calls outside the
// dispatcher alone, ns per 32-lane row: the platform's kernel (AVX2 assembly
// on amd64; the same loop as "generic" elsewhere and under -tags purego)
// beside the portable loop, under the full mask and under a partial one. For
// the row-producing primitives a partial mask means what it means to a fused
// step — compute into scratch, then merge under the mask; the others take the
// mask itself. The ALU and compare kernels run only inside the dispatcher:
// BenchmarkRowProgram times them.
func BenchmarkRowKernels(b *testing.B) {
	var x, y, out, scratch, k regRow
	for l := range x {
		// Normal floats in x, y a unit-stride address row.
		x[l], y[l] = 0x3f800000+uint32(l)<<12, 0x3f000000+uint32(l)*4
	}
	buf := make([]byte, 4*WarpSize)
	type rowFn func(dst *regRow, m uint32)
	type prim struct {
		name            string
		produces        bool // writes dst: a partial mask adds the merge
		kernel, generic rowFn
	}
	prims := []prim{
		{"broadcast", true, func(d *regRow, _ uint32) { rowBroadcast(d, 7) }, func(d *regRow, _ uint32) { rowBroadcastGeneric(d, 7) }},
		{"expandmask", false, func(_ *regRow, m uint32) { rowExpandMask(&scratch, m) }, func(_ *regRow, m uint32) { rowExpandMaskGeneric(&scratch, m) }},
		{"merge", false, func(*regRow, uint32) { rowMerge(&out, &x, &k) }, func(*regRow, uint32) { rowMergeGeneric(&out, &x, &k) }},
		{"neg.int", true, func(d *regRow, _ uint32) { rowNeg(fnInt, d, &x) }, func(d *regRow, _ uint32) { rowNegGeneric(fnInt, d, &x) }},
		{"neg.float", true, func(d *regRow, _ uint32) { rowNeg(fnFloat, d, &x) }, func(d *regRow, _ uint32) { rowNegGeneric(fnFloat, d, &x) }},
		{"stride", false, func(*regRow, uint32) { benchSink += rowStrideDiff(&y, &k, 0x3f000000, 4) }, func(*regRow, uint32) { benchSink += rowStrideDiffGeneric(&y, &k, 0x3f000000, 4) }},
		{"load32", false, func(_ *regRow, m uint32) { rowLoad32(&out, buf, m, &k) }, func(_ *regRow, m uint32) { rowLoad32Generic(&out, buf, m) }},
		{"store32", false, func(_ *regRow, m uint32) { rowStore32(buf, &x, m, &k) }, func(_ *regRow, m uint32) { rowStore32Generic(buf, &x, m) }},
	}
	for _, p := range prims {
		for _, side := range []struct {
			name     string
			f        rowFn
			mergeRow func(dst, src, k *regRow)
		}{{"kernel", p.kernel, rowMerge}, {"generic", p.generic, rowMergeGeneric}} {
			for _, mask := range []struct {
				name string
				m    uint32
			}{{"full", fullMask}, {"partial", 0x7ffe7ffe}} {
				b.Run(p.name+"/"+side.name+"/"+mask.name, func(b *testing.B) {
					rowExpandMaskGeneric(&k, mask.m)
					f, m := side.f, mask.m
					if !p.produces || m == fullMask {
						for i := 0; i < b.N; i++ {
							f(&out, m)
						}
						return
					}
					for i := 0; i < b.N; i++ {
						f(&scratch, m)
						side.mergeRow(&out, &scratch, &k)
					}
				})
			}
		}
	}
}

// BenchmarkRowProgram times runRows stretches through the dispatcher (on
// amd64 with AVX2; elsewhere both sides are the portable executor) and
// through the portable executor, tallied and not, under a full and a partial
// mask. ns/rowop is the time per op. The bodies:
//
//   - alu: eight row ops, the mix of a stencil body's arithmetic — address
//     arithmetic, a guard-setting compare, a guarded op, float arithmetic and
//     a select, over normal floats;
//   - stencil: 303.ostencil's interior, six coalesced LDG.32 of the
//     neighbours, seven FP32 ops and the STG.32 of the result, over written,
//     private pages: every access on the dispatcher's fast path;
//   - short: a 353.clvrleaf field update, three LDG.32, three FP32 ops and
//     an STG.32 — a short stretch whose few ALU ops sit between accesses, so
//     per-op dispatch and the accesses' checks dominate;
//   - omriq: 314.omriq's k-loop interior, two LDG.32 every lane makes from
//     one address (broadcast loads), two FMUL, MUFU.COS and MUFU.SIN of
//     arguments in [0, 6π), two FFMA and the IADD of the loop counter;
//   - partial_sx: 352.ep's tail, a coalesced LDG.32 and the RED.ADD.F32 of
//     every lane's word onto one word. The RED has no handler: it ends the
//     stretch and runs through its step, as in a launch;
//   - gauss_pairs: 352.ep's Gaussian pair, two I2F of a linear congruential
//     generator's words, MUFU.LG2, MUFU.SQRT and MUFU.COS and MUFU.SIN of one
//     angle in [0, 2π) — a trig pair. The LG2 has no handler: it runs through
//     its step between two stretches.
func BenchmarkRowProgram(b *testing.B) {
	p, err := sass.Assemble("bench", `
.kernel alu
.param p
    IMAD R10, R4, c0[p], R5
    IADD R11, R10, -R4
    SHL R12, R11, 0x2
    ISETP.LT.AND P1, R11, R5, PT
@P1 IADD R12, R12, 0x4
    FFMA R13, R6, R7, R8
    FADD R14, R13, -R6
    SEL R15, R13, R14, P1
    EXIT

.kernel stencil
.param cc
.param ce
    LDG.32 R10, [R4+0x4]
    LDG.32 R11, [R4-0x4]
    LDG.32 R12, [R4+0x40]
    LDG.32 R13, [R4-0x40]
    LDG.32 R14, [R4+0x400]
    LDG.32 R15, [R4-0x400]
    FADD R16, R10, R11
    FADD R17, R12, R13
    FADD R18, R14, R15
    FADD R16, R16, R17
    FADD R16, R16, R18
    FMUL R19, R6, c0[cc]
    FFMA R19, R16, c0[ce], R19
    STG.32 [R5], R19
    EXIT

.kernel short
    LDG.32 R10, [R4-0x4]
    LDG.32 R11, [R4]
    LDG.32 R12, [R4+0x4]
    FMUL R13, R10, 0x3e800000
    FFMA R13, R11, 0x3f000000, R13
    FFMA R13, R12, 0x3e800000, R13
    STG.32 [R5], R13
    EXIT

.kernel omriq
    LDG.32 R17, [R26]
    LDG.32 R19, [R27]
    FMUL R20, R19, R24
    FMUL R20, R20, 0x40c90fdb
    MUFU.COS R21, R20
    MUFU.SIN R22, R20
    FFMA R10, R17, R21, R10
    FFMA R11, R17, R22, R11
    IADD R12, R12, 0x1
    EXIT

.kernel partial_sx
    LDG.32 R29, [R5]
    RED.ADD.F32 [R28], R29
    EXIT

.kernel gauss_pairs
    SHR.U32 R7, R6, 0x8
    LOP.OR R7, R7, 0x1
    I2F R8, R7
    FMUL R8, R8, 0x33800000
    IMAD R6, R6, 0x19660d, RZ
    IADD R6, R6, 0x3c6ef35f
    SHR.U32 R9, R6, 0x8
    I2F R10, R9
    FMUL R10, R10, 0x33800000
    MUFU.LG2 R11, R8
    FMUL R11, R11, 0xbf317218
    FADD R11, R11, R11
    MUFU.SQRT R12, R11
    FMUL R13, R10, 0x40c90fdb
    MUFU.COS R14, R13
    MUFU.SIN R15, R13
    FMUL R14, R14, R12
    FMUL R15, R15, R12
    EXIT
`)
	if err != nil {
		b.Fatal(err)
	}
	h := newProgHarness(b, 1)
	for r := 4; r <= 8; r++ {
		for l := range h.base.regs[r] {
			h.base.regs[r][l] = math.Float32bits(1 + float32(r*l)/64)
		}
	}
	// The stencil's grid and its output, two pages each, every word a normal
	// float; R4 and R5 address one warp of the grid's interior, R6 its centre.
	const gridBytes = 2 * memPageSize
	grid := make([]byte, gridBytes)
	for i := 0; i < gridBytes; i += 4 {
		binary.LittleEndian.PutUint32(grid[i:], math.Float32bits(1+float32(i%509)/256))
	}
	in, out := mustAllocWrite(b, h.dev, gridBytes, grid), mustAllocWrite(b, h.dev, gridBytes, grid)
	for l := range h.base.regs[4] {
		h.base.regs[4][l] = in + 4*uint32(256+l)
		h.base.regs[5][l] = out + 4*uint32(256+l)
		// omriq: x coordinates in [0, 1), two k-space words read by every lane.
		h.base.regs[24][l] = math.Float32bits(float32(l) / WarpSize)
		h.base.regs[26][l], h.base.regs[27][l] = in+4*300, in+4*301
		// partial_sx: the sum is an output word no other stretch touches.
		h.base.regs[28][l] = out + 4*8
	}
	// The stretches each body makes: one, or two about gauss_pairs' LG2.
	wantStretches := map[string]int{"gauss_pairs": 2}
	for _, k := range p.Kernels {
		plan, err := translate(k)
		if err != nil {
			b.Fatal(err)
		}
		n := int32(len(k.Instrs) - 1)
		stretches := 0
		for pc := int32(0); pc < n; pc++ {
			if plan.ops[pc].shape == rsNone {
				b.Fatalf("%s: pc %d is no row op", k.Name, pc)
			}
			if run := plan.steps[pc].rowLen; run > 0 {
				stretches++
				pc += run - 1
			}
		}
		if want := max(1, wantStretches[k.Name]); stretches != want {
			b.Fatalf("%s: %d stretches of row ops, want %d", k.Name, stretches, want)
		}
		blk, w := h.block(plan), h.base
		for _, side := range []struct {
			name string
			rows rowRunner
		}{{"dispatcher", dispatchRows}, {"portable", portableRows}} {
			for _, tallied := range []bool{false, true} {
				for _, mask := range []struct {
					name string
					m    uint32
				}{{"full", fullMask}, {"partial", 0x7ffe7ffe}} {
					name := k.Name + "/" + side.name + "/plain/" + mask.name
					var tally []SiteTally
					if tallied {
						name = k.Name + "/" + side.name + "/tally/" + mask.name
						tally = make([]SiteTally, len(plan.steps))
					}
					b.Run(name, func(b *testing.B) {
						var threads uint64
						for i := 0; i < b.N; i++ {
							var kind TrapKind
							for pc := int32(0); pc < n && kind == 0; pc++ {
								xi := &plan.steps[pc]
								if run := xi.rowLen; run > 0 {
									var th uint64
									th, pc, kind, _ = side.rows(blk, &w, pc, run, mask.m, tally)
									threads += th
									pc--
									continue
								}
								m := xi.guard(&w, mask.m)
								if _, kind, _ = xi.step(blk, &w, m); tally != nil {
									tally[pc].add(uint64(popcount(m)))
								}
								threads += uint64(popcount(m))
							}
							if kind != 0 {
								b.Fatalf("trapped: %v", kind)
							}
						}
						benchSink += uint32(threads)
						b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/rowop")
					})
				}
			}
		}
	}
}

// benchSink keeps results the compiler could otherwise drop.
var benchSink uint32

// divergentSrc is the divergence benchmark kernel: ostencil-shaped boundary
// branching inside a 256-iteration loop. Every warp splits at the boundary
// check each iteration (lanes with x==0 or x==15 take the short boundary
// path, the other 28 the longer interior path) and reconverges at join, so
// the scheduler's diverged issue path dominates.
const divergentSrc = `
.kernel div
.param outptr
    S2R R0, SR_TID.X
    S2R R7, SR_CTAID.X
    MOV R2, 0x100
    MOV R1, 0x0
    LOP.AND R8, R0, 0xf
loop:
    ISETP.GE.AND P0, R8, 0x1, PT
    ISETP.LE.AND P0, R8, 0xe, P0
@P0 BRA interior
    SHL R4, R1, 0x1
    LOP.XOR R1, R4, R0
    BRA join
interior:
    IMAD R1, R1, R0, 0x5
    IADD R1, R1, R7
    LOP.XOR R1, R1, R8
    SHL R3, R1, 0x1
    LOP.AND R1, R1, R3
    IADD R1, R1, 0x3
join:
    IADD R2, R2, -0x1
    ISETP.NE.AND P0, R2, 0x0, PT
@P0 BRA loop
    MOV R5, c0[NTID_X]
    IMAD R6, R7, R5, R0
    SHL R6, R6, 0x2
    IADD R6, R6, c0[outptr]
    STG.32 [R6], R1
    EXIT
`

// BenchmarkDivergentWarp tracks the divergence floor alongside the hot-loop
// benchmark: the same engine comparison, but on a kernel whose warps spend
// the whole launch diverged.
func BenchmarkDivergentWarp(b *testing.B)            { benchLaunch(b, divergentSrc, false, benchPlain) }
func BenchmarkDivergentWarpInterpreted(b *testing.B) { benchLaunch(b, divergentSrc, true, benchPlain) }

// BenchmarkMemoryFind measures Memory.find: the repeated-hit path (one hot
// allocation, the shape every page-window miss inside a kernel takes), the
// alternating path (an input and an output buffer, the dominant real kernel
// pattern the two-slot memo serves), and the scattered path (round-robin
// over many allocations — every find misses the memo and pays the full
// search plus the memo update).
func BenchmarkMemoryFind(b *testing.B) {
	m := NewMemory()
	ptrs := make([]uint32, 32)
	for i := range ptrs {
		p, err := m.Alloc(4096)
		if err != nil {
			b.Fatal(err)
		}
		ptrs[i] = p
	}
	b.Run("repeat", func(b *testing.B) {
		addr := ptrs[len(ptrs)/2] + 128
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if m.find(addr) == nil {
				b.Fatal("miss")
			}
		}
	})
	b.Run("alternating", func(b *testing.B) {
		in, out := ptrs[3]+256, ptrs[29]+512
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			addr := in
			if i&1 != 0 {
				addr = out
			}
			if m.find(addr) == nil {
				b.Fatal("miss")
			}
		}
	})
	b.Run("scattered", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if m.find(ptrs[i%len(ptrs)]+64) == nil {
				b.Fatal("miss")
			}
		}
	})
}
