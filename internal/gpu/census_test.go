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

// The census's opcode sets, pinned on every architecture family: the control
// kinds shipped kernels run and the row ops without a handler, which run
// through the portable executor one at a time. No shipped instruction runs on
// the interpreter thunk.
var (
	censusControl  = []string{"BAR", "BRA", "EXIT"}
	censusPortable = []string{"F2F", "LDS", "MUFU.LG2", "RED", "STS"}
)

// TestShippedKernelsNeverThunk pins the tier census of the shipped programs:
// on every architecture family, every instruction of every kernel the 15
// SpecACCEL analogs and the AV pipeline load translates to a row op or a
// control kind, and
//   - the control kinds run exactly censusControl;
//   - the interpreter thunk runs nothing: no instruction of any program;
//   - every row op but those of censusPortable is one the dispatcher
//     executes, and censusPortable is exactly the opcodes (MUFU by function)
//     left to the portable executor: MUFU RCP, RSQ, SQRT, SIN and COS, I2F
//     and F2I of both signednesses are dispatchable;
//   - every LDG/STG .32 or .64 with a `[Rx+off]` or `[off]` address is a
//     dispatchable row op.
//
// A shipped kernel that starts to need a thunked or a portable-only
// instruction fails here, not as a silent slowdown; a set no shipped kernel
// reaches in full any more fails here too.
func TestShippedKernelsNeverThunk(t *testing.T) {
	workloads := specaccel.All()
	if len(workloads) != 15 {
		t.Fatalf("%d shipped programs, want 15", len(workloads))
	}
	workloads = append(workloads, av.New(av.Config{Frames: 1}))
	for _, fam := range sass.Families() {
		control, thunk, portable := map[string]int{}, map[string]int{}, map[string]int{}
		var thunked []string
		for _, w := range workloads {
			c := censusOf(t, fam, w)
			addOps(control, c.ControlOps)
			addOps(thunk, c.ThunkOps)
			addOps(portable, c.PortableOps)
			if c.Thunk != 0 {
				thunked = append(thunked, w.Name())
			}
			t.Logf("%-8v %-14s fast %4d control %4d thunk %d row ops %4d dispatchable %4d mem ops %3d",
				fam, w.Name(), c.Fast, c.Control, c.Thunk, c.RowOps, c.Dispatchable, c.MemOps)
		}
		for _, set := range []struct {
			name string
			got  map[string]int
			want []string
		}{{"control kinds", control, censusControl}, {"interpreter thunk", thunk, nil}, {"portable-only row ops", portable, censusPortable}} {
			if got := opNames(set.got); !slices.Equal(got, set.want) {
				t.Errorf("%v: the %s run %v, want exactly %v (%s)", fam, set.name, got, set.want, opCounts(set.got))
			}
			t.Logf("%-8v %s: %s", fam, set.name, opCounts(set.got))
		}
		if len(thunked) != 0 {
			t.Errorf("%v: %v run instructions on the interpreter thunk, want none", fam, thunked)
		}
	}
}

// censusOf runs w on a fam device and sums the tier census of every kernel
// it loaded, checking each kernel's global accesses.
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
	total.ControlOps, total.ThunkOps, total.PortableOps = map[string]int{}, map[string]int{}, map[string]int{}
	for _, m := range ctx.Modules() {
		for _, k := range m.Kernels() {
			c, err := gpu.TierCensus(k)
			if err != nil {
				t.Fatalf("%v %s/%s: %v", fam, w.Name(), k.Name, err)
			}
			if c.MemOps != c.GlobalAccesses {
				t.Errorf("%v %s/%s: %d of %d global LDG/STG .32/.64 are not dispatchable row ops",
					fam, w.Name(), k.Name, c.GlobalAccesses-c.MemOps, c.GlobalAccesses)
			}
			kernels++
			total.Fast += c.Fast
			total.Control += c.Control
			total.Thunk += c.Thunk
			total.RowOps += c.RowOps
			total.Dispatchable += c.Dispatchable
			total.MemOps += c.MemOps
			addOps(total.ControlOps, c.ControlOps)
			addOps(total.ThunkOps, c.ThunkOps)
			addOps(total.PortableOps, c.PortableOps)
		}
	}
	if kernels == 0 {
		t.Errorf("%v %s loaded no kernel", fam, w.Name())
	}
	return total
}

// addOps adds the per-opcode counts of add into sum.
func addOps(sum, add map[string]int) {
	for op, n := range add {
		sum[op] += n
	}
}

// opNames returns the sorted opcode names of m.
func opNames(m map[string]int) []string {
	var names []string
	for op := range m {
		names = append(names, op)
	}
	slices.Sort(names)
	return names
}

// opCounts formats per-opcode counts, most frequent first.
func opCounts(m map[string]int) string {
	ops := opNames(m)
	slices.SortStableFunc(ops, func(a, b string) int { return m[b] - m[a] })
	parts := make([]string, len(ops))
	for i, op := range ops {
		parts[i] = fmt.Sprintf("%v %d", op, m[op])
	}
	return strings.Join(parts, ", ")
}
