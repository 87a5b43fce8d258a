package core_test

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/nvbit"
	"repro/internal/race"
	"repro/internal/sass"
)

// TestRandomGateAllocationFree: the gate decides once per dynamic instance of
// the faulty opcode, so it must not allocate — a per-activation rand.Source
// would dominate a permanent campaign's hot loop.
func TestRandomGateAllocationFree(t *testing.T) {
	g := core.RandomGate{P: 0.5, Seed: 42}
	var i uint64
	allocs := testing.AllocsPerRun(1000, func() {
		g.Active(i)
		i++
	})
	if allocs != 0 {
		t.Fatalf("RandomGate.Active allocates %.1f objects per call, want 0", allocs)
	}
}

// TestRandomGateSeedIndependence: different seeds decorrelate the decision
// streams; the same seed reproduces them exactly.
func TestRandomGateSeedIndependence(t *testing.T) {
	a := core.RandomGate{P: 0.5, Seed: 1}
	b := core.RandomGate{P: 0.5, Seed: 2}
	same, agree := 0, 0
	for i := uint64(0); i < 1000; i++ {
		if a.Active(i) == (core.RandomGate{P: 0.5, Seed: 1}).Active(i) {
			same++
		}
		if a.Active(i) == b.Active(i) {
			agree++
		}
	}
	if same != 1000 {
		t.Fatalf("same-seed gates agreed on %d/1000 decisions, want 1000", same)
	}
	// Two independent fair streams agree about half the time; 1000 draws
	// keep the band wide enough to never flake.
	if agree < 350 || agree > 650 {
		t.Fatalf("different-seed gates agreed on %d/1000 decisions", agree)
	}
}

// TestRandomGateRate: the activation rate tracks P across the range.
func TestRandomGateRate(t *testing.T) {
	for _, p := range []float64{0.1, 0.25, 0.75, 0.9} {
		g := core.RandomGate{P: p, Seed: 7}
		hits := 0
		const n = 10000
		for i := uint64(0); i < n; i++ {
			if g.Active(i) {
				hits++
			}
		}
		got := float64(hits) / n
		if got < p-0.03 || got > p+0.03 {
			t.Errorf("P=%v gate fired at rate %.3f", p, got)
		}
	}
}

// TestBurstGatePattern: the burst gate fires exactly BurstLen consecutive
// activations out of every Period, shifted by Offset.
func TestBurstGatePattern(t *testing.T) {
	g := core.BurstGate{Period: 8, BurstLen: 3, Offset: 2}
	for i := uint64(0); i < 64; i++ {
		want := (i+2)%8 < 3
		if got := g.Active(i); got != want {
			t.Fatalf("burst gate at activation %d = %v, want %v", i, got, want)
		}
	}
	// A zero period means always-on (the ungated degenerate case).
	always := core.BurstGate{Period: 0}
	for i := uint64(0); i < 16; i++ {
		if !always.Active(i) {
			t.Fatal("zero-period burst gate went inactive")
		}
	}
}

// TestProfilerLaunchAllocs is the profiler's allocation gate: once a kernel
// has launched under an attached Profiler, its launches allocate nothing but
// the refills of the slabs its records' counts are carved from — at most
// three for 100 launches of the 7-instruction tiny kernel (a site slab holds
// 146 of its records, an opcode slab 102). No map is made per launch.
func TestProfilerLaunchAllocs(t *testing.T) {
	prof, err := core.NewProfiler("tiny", core.Exact)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := gpu.NewDevice(sass.FamilyVolta, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := cuda.NewContext(dev)
	if err != nil {
		t.Fatal(err)
	}
	att, err := nvbit.Attach(ctx, prof)
	if err != nil {
		t.Fatal(err)
	}
	defer att.Detach()
	mod, err := ctx.LoadModule("m", tinySrc)
	if err != nil {
		t.Fatal(err)
	}
	fn, err := mod.Function("tiny")
	if err != nil {
		t.Fatal(err)
	}
	out, err := ctx.Malloc(4 * 32)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cuda.LaunchConfig{Grid: gpu.Dim3{X: 1, Y: 1, Z: 1}, Block: gpu.Dim3{X: 32, Y: 1, Z: 1}}
	launch := func() {
		if err := ctx.Launch(fn, cfg, out); err != nil {
			t.Fatal(err)
		}
	}
	// As testing.AllocsPerRun does: on one P the engine's sync.Pools hand
	// back what the last launch put, instead of missing on another P's slot.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	launch() // warm: plan, pools, JIT build, the kernel's static record part
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		launch()
	}
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	if race.Enabled {
		t.Logf("100 profiled launches allocated %d objects under -race", allocs)
	} else if allocs > 3 {
		t.Errorf("100 profiled launches allocated %d objects, want at most 3 slab refills", allocs)
	}
	p := prof.Finish()
	if len(p.Records) != 101 || len(p.Records[100].OpCounts) != 5 ||
		!slices.Equal(p.Records[100].OpCounts, p.Records[0].OpCounts) {
		t.Errorf("%d records; first %v, last %v; want 101 alike over 5 opcodes",
			len(p.Records), p.Records[0].OpCounts, p.Records[len(p.Records)-1].OpCounts)
	}
}
