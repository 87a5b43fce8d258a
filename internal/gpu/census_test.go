package gpu_test

import (
	"testing"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/sass"
	"repro/internal/specaccel"
)

// TestShippedKernelsNeverThunk pins the tier census of the shipped programs:
// every instruction of every kernel the 15 SpecACCEL analogs load translates
// to the row tier or the accessor tier, none to the interpreter thunk (which
// is left with SHFL, MATCH, BRX, CALL, RET and malformed shapes). It is the
// gate for retiring blockCtx.exec's dispatch to a test-only oracle: a shipped
// kernel that starts to thunk fails here, not as a silent slowdown. Likewise
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
	for _, w := range workloads {
		dev, err := gpu.NewDevice(sass.FamilyVolta, 8)
		if err != nil {
			t.Fatal(err)
		}
		ctx, err := cuda.NewContext(dev)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Run(ctx); err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		kernels, instrs := 0, 0
		var total gpu.TierCounts
		for _, m := range ctx.Modules() {
			for _, k := range m.Kernels() {
				c, err := gpu.TierCensus(k)
				if err != nil {
					t.Fatalf("%s/%s: %v", w.Name(), k.Name, err)
				}
				if c.Thunk != 0 {
					t.Errorf("%s/%s: %d of %d instructions run through the interpreter thunk",
						w.Name(), k.Name, c.Thunk, len(k.Instrs))
				}
				if c.Dispatchable != c.RowOps {
					t.Errorf("%s/%s: %d of %d row ops are not dispatcher-eligible",
						w.Name(), k.Name, c.RowOps-c.Dispatchable, c.RowOps)
				}
				if c.MemOps != c.GlobalAccesses {
					t.Errorf("%s/%s: %d of %d global LDG/STG .32/.64 are not dispatchable row ops",
						w.Name(), k.Name, c.GlobalAccesses-c.MemOps, c.GlobalAccesses)
				}
				kernels++
				instrs += len(k.Instrs)
				total.Fast += c.Fast
				total.RowOps += c.RowOps
				total.Dispatchable += c.Dispatchable
				total.MemOps += c.MemOps
			}
		}
		if kernels == 0 {
			t.Errorf("%s loaded no kernel", w.Name())
		}
		t.Logf("%-14s %3d kernels, %4d instructions, %.2f on the row tier: %4d row ops (%d dispatcher-eligible, %3d global accesses), %3d FP64 closures",
			w.Name(), kernels, instrs, float64(total.Fast)/float64(instrs), total.RowOps, total.Dispatchable, total.MemOps, total.Fast-total.RowOps)
	}
}
