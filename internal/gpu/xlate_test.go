package gpu

import (
	"bytes"
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
