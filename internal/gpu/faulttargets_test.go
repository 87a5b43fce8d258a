package gpu_test

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/sass"
	"repro/internal/sassan"
	"repro/internal/specaccel"
)

// TestFaultTargetsAgree: the fault models' one destination expansion,
// sass.Instr.FaultTargets — what the transient and permanent injectors in
// internal/core corrupt — is the set the engine's in-line Corruption actually
// changes and the set sassan.CorruptTargets hands the pruning analysis, on
// every instruction of every kernel the 15 shipped programs load.
func TestFaultTargetsAgree(t *testing.T) {
	instrs := 0
	for _, w := range specaccel.All() {
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
		for _, m := range ctx.Modules() {
			for _, k := range m.Kernels() {
				for i := range k.Instrs {
					in := &k.Instrs[i]
					var regs []sass.RegID
					var preds []sass.PredID
					var gp sassan.RegSet
					var pr sassan.PredSet
					var buf sass.FaultTargetBuf
					for _, tg := range in.FaultTargets(buf[:0]) {
						if tg.IsPred {
							preds = append(preds, tg.Pred)
							pr.Add(tg.Pred)
						} else {
							regs = append(regs, tg.Reg)
							gp.Add(tg.Reg)
						}
					}
					slices.Sort(regs)
					slices.Sort(preds)
					specRegs, specPreds := gpu.SpecTargets(in)
					if !reflect.DeepEqual(regs, specRegs) || !reflect.DeepEqual(preds, specPreds) {
						t.Errorf("%s/%s %d (%v): targets %v %v, the engine's fault changes %v %v",
							w.Name(), k.Name, i, in, regs, preds, specRegs, specPreds)
					}
					if sgp, spr := sassan.CorruptTargets(in); sgp != gp || spr != pr {
						t.Errorf("%s/%s %d (%v): targets %v %v, sassan.CorruptTargets %v %v",
							w.Name(), k.Name, i, in, gp, pr, sgp, spr)
					}
					instrs++
				}
			}
		}
	}
	if instrs == 0 {
		t.Fatal("no instructions compared")
	}
}
