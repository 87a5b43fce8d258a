package gpu

import (
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

// Launch shapes for benchLaunch: run to completion, run with a profiler-style
// After callback on every instruction, or run through BeginRun pausing every
// pauseStride warp instructions — the latter two drive the batched loop's
// hooked issue form and its pause clip.
const (
	benchPlain = iota
	benchProfiled
	benchPaused
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
	var lanes uint64
	if shape == benchProfiled {
		ek.After = make([][]Callback, len(k.Instrs))
		for i := range ek.After {
			ek.After[i] = []Callback{func(c *InstrCtx) { lanes += uint64(c.LaneCount()) }}
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
	if shape == benchProfiled && lanes != uint64(b.N+1)*stats.ThreadInstrs {
		b.Fatalf("callbacks counted %d lanes, want %d", lanes, uint64(b.N+1)*stats.ThreadInstrs)
	}
	perLaunch := float64(stats.WarpInstrs)
	b.ReportMetric(perLaunch*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mwarpinstr/s")
}

// BenchmarkWarpTranslated measures the block-level translation engine on the
// warp hot loop; BenchmarkWarpInterpreted is the legacy dispatch baseline.
func BenchmarkWarpTranslated(b *testing.B)  { benchLaunch(b, hotLoopSrc, false, benchPlain) }
func BenchmarkWarpInterpreted(b *testing.B) { benchLaunch(b, hotLoopSrc, true, benchPlain) }

// BenchmarkProfiledLaunch and BenchmarkPausedLaunch run the hot loop and the
// divergent kernel with a callback on every instruction, and through a
// pausable run stopping every pauseStride instructions, on both engines.
func BenchmarkProfiledLaunch(b *testing.B) { benchShapes(b, benchProfiled) }
func BenchmarkPausedLaunch(b *testing.B)   { benchShapes(b, benchPaused) }

func benchShapes(b *testing.B, shape int) {
	for _, k := range []struct{ name, src string }{{"hot", hotLoopSrc}, {"divergent", divergentSrc}} {
		b.Run(k.name+"/translated", func(b *testing.B) { benchLaunch(b, k.src, false, shape) })
		b.Run(k.name+"/interpreted", func(b *testing.B) { benchLaunch(b, k.src, true, shape) })
	}
}

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
