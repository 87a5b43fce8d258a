package gpu_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/av"
	"repro/internal/campaign"
	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/sass"
	"repro/internal/specaccel"
)

// accessorSems are the semantics specializeStep keeps an accessor-tier case
// for: exactly those a shipped kernel runs there. Every other shape the row
// tier rejects runs on the interpreter thunk.
var accessorSems = []sass.SemKind{
	sass.SemLd, sass.SemSt, sass.SemRed, sass.SemBar, sass.SemBra,
	sass.SemExit, sass.SemMufu, sass.SemI2F, sass.SemF2I, sass.SemF2F,
}

// TestShippedKernelsNeverThunk pins the tier census of the shipped programs:
// on every architecture family, every instruction of every kernel the 15
// SpecACCEL analogs and the AV pipeline load translates to the row tier or
// the accessor tier, none to the interpreter thunk, and the semantics that
// reach the accessor tier are exactly accessorSems. A shipped kernel that
// starts to need a thunked semantic fails here, not as a silent slowdown;
// an accessor case no shipped kernel reaches any more fails here too. Likewise
// for the row programs: every row-tier instruction of a shipped kernel but
// the FP64 pair ops is a row op the dispatcher executes, none is left to its
// one-op step — the global loads and stores among them: every LDG/STG .32 or
// .64 with a `[Rx+off]` or `[off]` address is a dispatchable row op, so the
// FP64 pair ops are the only one-op closures left on the row tier.
func TestShippedKernelsNeverThunk(t *testing.T) {
	workloads := specaccel.All()
	if len(workloads) != 15 {
		t.Fatalf("%d shipped programs, want 15", len(workloads))
	}
	workloads = append(workloads, av.New(av.Config{Frames: 1}))
	want := slices.Clone(accessorSems)
	slices.Sort(want)
	for _, fam := range sass.Families() {
		reached := make(map[sass.SemKind]int)
		accessorOps := make(map[sass.Op]int)
		for _, w := range workloads {
			c := censusOf(t, fam, w)
			for op, n := range c.AccessorOps {
				reached[op.Info().Sem] += n
				accessorOps[op] += n
			}
			t.Logf("%-8v %-14s fast %4d accessor %4d thunk %d row ops %4d dispatchable %4d mem ops %3d",
				fam, w.Name(), c.Fast, c.Accessor, c.Thunk, c.RowOps, c.Dispatchable, c.MemOps)
		}
		var got []sass.SemKind
		for sem := range reached {
			got = append(got, sem)
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("%v: the accessor tier runs semantics %v, want exactly %v (%s)", fam, got, want, opCounts(accessorOps))
		}
		t.Logf("%-8v accessor tier: %s", fam, opCounts(accessorOps))
	}
}

// censusOf runs w on a fam device and sums the tier census of every kernel
// it loaded, checking each kernel's thunk-free and dispatchable invariants.
func censusOf(t *testing.T, fam sass.Family, w campaign.Workload) (total gpu.TierCounts) {
	t.Helper()
	dev, err := gpu.NewDevice(fam, 8)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := cuda.NewContext(dev)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(ctx); err != nil {
		t.Fatalf("%v %s: %v", fam, w.Name(), err)
	}
	kernels := 0
	total.AccessorOps = make(map[sass.Op]int)
	for _, m := range ctx.Modules() {
		for _, k := range m.Kernels() {
			c, err := gpu.TierCensus(k)
			if err != nil {
				t.Fatalf("%v %s/%s: %v", fam, w.Name(), k.Name, err)
			}
			if c.Thunk != 0 {
				t.Errorf("%v %s/%s: %d of %d instructions run through the interpreter thunk",
					fam, w.Name(), k.Name, c.Thunk, len(k.Instrs))
			}
			if c.Dispatchable != c.RowOps {
				t.Errorf("%v %s/%s: %d of %d row ops are not dispatcher-eligible",
					fam, w.Name(), k.Name, c.RowOps-c.Dispatchable, c.RowOps)
			}
			if c.MemOps != c.GlobalAccesses {
				t.Errorf("%v %s/%s: %d of %d global LDG/STG .32/.64 are not dispatchable row ops",
					fam, w.Name(), k.Name, c.GlobalAccesses-c.MemOps, c.GlobalAccesses)
			}
			kernels++
			total.Fast += c.Fast
			total.Accessor += c.Accessor
			total.Thunk += c.Thunk
			total.RowOps += c.RowOps
			total.Dispatchable += c.Dispatchable
			total.MemOps += c.MemOps
			for op, n := range c.AccessorOps {
				total.AccessorOps[op] += n
			}
		}
	}
	if kernels == 0 {
		t.Errorf("%v %s loaded no kernel", fam, w.Name())
	}
	return total
}

// opCounts formats per-opcode counts, most frequent first.
func opCounts(m map[sass.Op]int) string {
	var ops []sass.Op
	for op := range m {
		ops = append(ops, op)
	}
	slices.SortFunc(ops, func(a, b sass.Op) int {
		if m[a] != m[b] {
			return m[b] - m[a]
		}
		return strings.Compare(a.String(), b.String())
	})
	parts := make([]string, len(ops))
	for i, op := range ops {
		parts[i] = fmt.Sprintf("%v %d", op, m[op])
	}
	return strings.Join(parts, ", ")
}
