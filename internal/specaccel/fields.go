package specaccel

import (
	"fmt"

	"repro/internal/cuda"
	"repro/internal/gpu"
)

// The five "many-small-kernels" programs: atmospheric LES (351.palm),
// hydrodynamics (353.clvrleaf), seismic wave modelling (355.seismic),
// finite difference (359.miniGhost) and shallow water (363.swim). Each
// consists of a few hand-written core kernels plus a generated family of
// per-variable field-update kernels, reproducing Table IV's static-kernel
// counts exactly.

// stencil3Kernel emits a[i] = c0*b[i-1] + c1*b[i] + c2*b[i+1] (FP32).
func stencil3Kernel(name string, c0, c1, c2 float32) string {
	return fmt.Sprintf(`
.kernel %s
.param n
.param aptr
.param bptr
    S2R R0, SR_TID.X
    S2R R1, SR_CTAID.X
    MOV R2, c0[NTID_X]
    IMAD R0, R1, R2, R0
    ISETP.LT.AND P0, R0, 0x1, PT
    IADD R3, c0[n], -0x1
    ISETP.GE.OR P0, R0, R3, P0
@P0 EXIT
    SHL R3, R0, 0x2
    IADD R4, R3, c0[aptr]
    IADD R5, R3, c0[bptr]
    LDG.32 R6, [R5-0x4]
    LDG.32 R7, [R5]
    LDG.32 R8, [R5+0x4]
    FMUL R9, R6, 0x%08x
    FFMA R9, R7, 0x%08x, R9
    FFMA R9, R8, 0x%08x, R9
    STG.32 [R4], R9
    EXIT
`, name, f32bitsConst(c0), f32bitsConst(c1), f32bitsConst(c2))
}

// leapfrogKernel emits the wave-equation update
// a[i] = 2*b[i] - a[i] + cfl*(b[i-1] - 2*b[i] + b[i+1]).
func leapfrogKernel(name string, cfl float32) string {
	return fmt.Sprintf(`
.kernel %s
.param n
.param aptr
.param bptr
    S2R R0, SR_TID.X
    S2R R1, SR_CTAID.X
    MOV R2, c0[NTID_X]
    IMAD R0, R1, R2, R0
    ISETP.LT.AND P0, R0, 0x1, PT
    IADD R3, c0[n], -0x1
    ISETP.GE.OR P0, R0, R3, P0
@P0 EXIT
    SHL R3, R0, 0x2
    IADD R4, R3, c0[aptr]
    IADD R5, R3, c0[bptr]
    LDG.32 R6, [R5-0x4]
    LDG.32 R7, [R5]
    LDG.32 R8, [R5+0x4]
    LDG.32 R9, [R4]
    FADD R10, R6, R8
    FFMA R10, R7, 0xc0000000, R10  // laplacian
    FADD R11, R7, R7
    FADD R11, R11, -R9             // 2*b - a
    FFMA R11, R10, 0x%08x, R11
    STG.32 [R4], R11
    EXIT
`, name, f32bitsConst(cfl))
}

// sourceKernel injects a point source at n/2: a[n/2] += amp (one warp).
func sourceKernel(name string, amp float32) string {
	return fmt.Sprintf(`
.kernel %s
.param n
.param aptr
.param bptr
    S2R R0, SR_TID.X
    ISETP.NE.AND P0, R0, 0x0, PT
@P0 EXIT
    SHR.U32 R1, c0[n], 0x1
    SHL R1, R1, 0x2
    IADD R2, R1, c0[aptr]
    LDG.32 R3, [R2]
    FADD R3, R3, 0x%08x
    STG.32 [R2], R3
    EXIT
`, name, f32bitsConst(amp))
}

// shiftCopyKernel copies b shifted by stride elements into a — the
// halo pack/unpack pattern.
func shiftCopyKernel(name string, stride int32) string {
	off := stride * 4
	sign := "+"
	if off < 0 {
		sign = "-"
		off = -off
	}
	margin := stride
	if margin < 0 {
		margin = -margin
	}
	margin++ // symmetric safety margin at both ends
	return fmt.Sprintf(`
.kernel %s
.param n
.param aptr
.param bptr
    S2R R0, SR_TID.X
    S2R R1, SR_CTAID.X
    MOV R2, c0[NTID_X]
    IMAD R0, R1, R2, R0
    ISETP.LT.AND P0, R0, 0x%x, PT
    IADD R3, c0[n], -0x%x
    ISETP.GE.OR P0, R0, R3, P0
@P0 EXIT
    SHL R3, R0, 0x2
    IADD R4, R3, c0[aptr]
    IADD R5, R3, c0[bptr]
    LDG.32 R6, [R5%s0x%x]
    FMUL R6, R6, 0x3f7d70a4        // 0.99 damping
    STG.32 [R4], R6
    EXIT
`, name, margin, margin, sign, off)
}

// initPairKernel initializes both field buffers from the index hash.
func initPairKernel(name string) string {
	return fmt.Sprintf(`
.kernel %s
.param n
.param aptr
.param bptr
    S2R R0, SR_TID.X
    S2R R1, SR_CTAID.X
    MOV R2, c0[NTID_X]
    IMAD R0, R1, R2, R0
    ISETP.GE.AND P0, R0, c0[n], PT
@P0 EXIT
    IMUL R3, R0, 0x9e3779b1
    SHR.U32 R4, R3, 0x8
    I2F R5, R4
    FMUL R5, R5, 0x33800000
    SHL R6, R0, 0x2
    IADD R7, R6, c0[aptr]
    STG.32 [R7], R5
    IADD R8, R6, c0[bptr]
    FMUL R9, R5, 0x3f000000
    STG.32 [R8], R9
    EXIT
`, name)
}

// familyRun builds the shared host driver: init once, then per step the
// hand kernels, with the generated family interleaved so that every family
// kernel launches famRepeat times across the run.
func familyRun(modName, asm, famPrefix string, famCount, famRepeat int,
	handStep []string, steps, n, block int) func(h *host) error {
	return familyRunSized(modName, asm, famPrefix, famCount, famRepeat, handStep, steps, n, block, false)
}

// familyRunSized is familyRun with an FP64 element-size switch.
func familyRunSized(modName, asm, famPrefix string, famCount, famRepeat int,
	handStep []string, steps, n, block int, fp64 bool) func(h *host) error {
	elem := 4
	if fp64 {
		elem = 8
	}
	famNames := familyNames(famPrefix, famCount)
	return func(h *host) error {
		mod, err := h.module(modName, asm)
		if err != nil {
			return err
		}
		initFn, err := mod.Function("init")
		if err != nil {
			return err
		}
		hand := make([]*cuda.Function, len(handStep))
		for i, name := range handStep {
			if hand[i], err = mod.Function(name); err != nil {
				return err
			}
		}
		fam := make([]*cuda.Function, famCount)
		for i := range fam {
			if fam[i], err = mod.Function(famNames[i]); err != nil {
				return err
			}
		}
		a, err := h.alloc(elem * n)
		if err != nil {
			return err
		}
		b, err := h.alloc(elem * n)
		if err != nil {
			return err
		}
		cfg := cuda.LaunchConfig{
			Grid:  gpu.Dim3{X: (n + block - 1) / block, Y: 1, Z: 1},
			Block: gpu.Dim3{X: block, Y: 1, Z: 1},
		}
		h.launch(initFn, cfg, uint32(n), a, b)

		famTotal := famCount * famRepeat
		famIdx := 0
		for s := 0; s < steps; s++ {
			for _, f := range hand {
				h.launch(f, cfg, uint32(n), a, b)
			}
			// Interleave the family evenly across steps.
			want := famTotal * (s + 1) / steps
			for ; famIdx < want; famIdx++ {
				h.launch(fam[famIdx%famCount], cfg, uint32(n), a, b)
			}
		}
		final := h.readBack(a, elem*n)
		h.out.Files["field.dat"] = final
		h.out.Printf("%s n %d steps %d kernels %d\n", modName, n, steps, 1+len(hand)+famCount)
		if fp64 {
			h.out.Printf("norm %s\n", fmtF(checksum64(f64From(final))))
		} else {
			h.out.Printf("norm %s\n", fmtF(checksum32(f32From(final))))
		}
		return nil
	}
}

// Palm builds the 351.palm analog: large-eddy simulation, atmospheric
// turbulence. 100 static kernels (init + 3 core + 96 tendency kernels);
// dynamic 1 + 14x3 + 96 = 139 (paper: 7,050, scaled ~1/50).
func Palm() *Program {
	const famCount, steps, n, block = 96, 14, 1024, 128
	asm := initPairKernel("init") +
		stencil3Kernel("adv_u", 0.24, 0.5, 0.26) +
		stencil3Kernel("adv_v", 0.26, 0.5, 0.24) +
		stencil3Kernel("pressure", 0.25, 0.49, 0.25) +
		genFamily(fieldKernelF32, "tend", famCount)
	return &Program{
		info: Info{
			Name:                 "351.palm",
			Description:          "Large-eddy simulation, atmospheric turbulence",
			PaperStaticKernels:   100,
			PaperDynamicKernels:  7050,
			ScaledDynamicKernels: 1 + steps*3 + famCount,
		},
		policy: Unchecked,
		tol:    1e-4,
		run: familyRun("351.palm", asm, "tend", famCount, 1,
			[]string{"adv_u", "adv_v", "pressure"}, steps, n, block),
	}
}

// Clvrleaf builds the 353.clvrleaf analog: staggered-grid hydrodynamics.
// 116 static kernels (init + 3 core + 112 cell kernels); dynamic
// 1 + 8x3 + 224 = 249 (paper: 12,528, scaled ~1/50).
func Clvrleaf() *Program {
	const famCount, famRepeat, steps, n, block = 112, 2, 8, 1024, 128
	asm := initPairKernel("init") +
		stencil3Kernel("eos", 0.2, 0.6, 0.2) +
		stencil3Kernel("flux", 0.3, 0.4, 0.3) +
		stencil3Kernel("advec", 0.1, 0.8, 0.1) +
		genFamily(fieldKernelF32, "cell", famCount)
	return &Program{
		info: Info{
			Name:                 "353.clvrleaf",
			Description:          "Weather",
			PaperStaticKernels:   116,
			PaperDynamicKernels:  12528,
			ScaledDynamicKernels: 1 + steps*3 + famCount*famRepeat,
		},
		policy: Checked,
		tol:    1e-4,
		run: familyRun("353.clvrleaf", asm, "cell", famCount, famRepeat,
			[]string{"eos", "flux", "advec"}, steps, n, block),
	}
}

// Seismic builds the 355.seismic analog: acoustic wave propagation with a
// point source and damping layers. 16 static kernels (init + 4 core + 11
// damping kernels); dynamic 1 + 26x4 + 11 = 116 (paper: 3,502, ~1/30).
func Seismic() *Program {
	const famCount, steps, n, block = 11, 26, 1024, 128
	asm := initPairKernel("init") +
		leapfrogKernel("update_p", 0.2) +
		stencil3Kernel("update_vx", 0.45, 0.1, 0.45) +
		stencil3Kernel("update_vy", 0.4, 0.2, 0.4) +
		sourceKernel("source", 0.5) +
		genFamily(fieldKernelF32, "damp", famCount)
	return &Program{
		info: Info{
			Name:                 "355.seismic",
			Description:          "Seismic wave modeling",
			PaperStaticKernels:   16,
			PaperDynamicKernels:  3502,
			ScaledDynamicKernels: 1 + steps*4 + famCount,
		},
		policy: Unchecked,
		tol:    1e-4,
		run: familyRun("355.seismic", asm, "damp", famCount, 1,
			[]string{"update_p", "update_vx", "update_vy", "source"}, steps, n, block),
	}
}

// smemStencilY is 359.miniGhost's y-sweep as a shared-memory tiled stencil:
// each block stages its tile (plus halo cells) into shared memory, barriers,
// and computes from the tile — the canonical GPU stencil structure. It is
// numerically identical to stencil3Kernel("stencil_y", 0.35, 0.3, 0.35) but
// exercises STS/LDS/BAR.SYNC, so injection campaigns reach the shared-memory
// and barrier fault paths.
const smemStencilY = `
.kernel stencil_y
.param n
.param aptr
.param bptr
.shared 520
    S2R R0, SR_TID.X
    S2R R1, SR_CTAID.X
    MOV R2, c0[NTID_X]
    IMAD R3, R1, R2, R0            // global index i
    ISETP.GE.AND P0, R3, c0[n], PT
@P0 EXIT
    SHL R4, R3, 0x2
    IADD R5, R4, c0[bptr]
    LDG.32 R6, [R5]
    IADD R7, R0, 0x1               // tile slot = tid + 1 (slot 0 is halo)
    SHL R7, R7, 0x2
    STS.32 [R7], R6
    ISETP.NE.AND P1, R0, 0x0, PT   // first thread loads the left halo
@P1 BRA skiplo
    ISETP.LT.AND P2, R3, 0x1, PT
@P2 BRA skiplo
    LDG.32 R8, [R5-0x4]
    STS.32 [RZ], R8
skiplo:
    IADD R9, R2, -0x1              // last thread loads the right halo
    ISETP.NE.AND P3, R0, R9, PT
@P3 BRA skiphi
    IADD R10, c0[n], -0x1
    ISETP.GE.AND P4, R3, R10, PT
@P4 BRA skiphi
    LDG.32 R8, [R5+0x4]
    IADD R11, R2, 0x1
    SHL R11, R11, 0x2
    STS.32 [R11], R8
skiphi:
    BAR.SYNC
    ISETP.LT.AND P5, R3, 0x1, PT   // interior cells only
    IADD R12, c0[n], -0x1
    ISETP.GE.OR P5, R3, R12, P5
@P5 EXIT
    LDS.32 R13, [R7-0x4]
    LDS.32 R14, [R7]
    LDS.32 R15, [R7+0x4]
    FMUL R16, R13, 0x3eb33333      // 0.35 * left
    FFMA R16, R14, 0x3e99999a, R16 // + 0.30 * center
    FFMA R16, R15, 0x3eb33333, R16 // + 0.35 * right
    IADD R17, R4, c0[aptr]
    STG.32 [R17], R16
    EXIT
`

// MiniGhost builds the 359.miniGhost analog: finite difference with halo
// exchange. 26 static kernels (init + 5 core + 20 variable kernels);
// dynamic 1 + 28x5 + 20 = 161 (paper: 8,010, ~1/50).
func MiniGhost() *Program {
	const famCount, steps, n, block = 20, 28, 1024, 128
	asm := initPairKernel("init") +
		stencil3Kernel("stencil_x", 0.3, 0.4, 0.3) +
		smemStencilY +
		stencil3Kernel("stencil_z", 0.25, 0.5, 0.25) +
		shiftCopyKernel("pack", 4) +
		shiftCopyKernel("unpack", -4) +
		genFamily(fieldKernelF32, "var", famCount)
	return &Program{
		info: Info{
			Name:                 "359.miniGhost",
			Description:          "Finite difference",
			PaperStaticKernels:   26,
			PaperDynamicKernels:  8010,
			ScaledDynamicKernels: 1 + steps*5 + famCount,
		},
		policy: Checked,
		tol:    1e-4,
		run: familyRun("359.miniGhost", asm, "var", famCount, 1,
			[]string{"stencil_x", "stencil_y", "stencil_z", "pack", "unpack"}, steps, n, block),
	}
}

// Swim builds the 363.swim analog: shallow-water weather prediction.
// 22 static kernels (init + 3 core + 18 filter kernels); dynamic
// 1 + 27x3 + 36 = 118 (paper: 11,999, ~1/100).
func Swim() *Program {
	const famCount, famRepeat, steps, n, block = 18, 2, 27, 1024, 128
	asm := initPairKernel("init") +
		stencil3Kernel("calc1", 0.2, 0.55, 0.25) +
		stencil3Kernel("calc2", 0.25, 0.55, 0.2) +
		stencil3Kernel("calc3", 0.3, 0.42, 0.28) +
		genFamily(fieldKernelF32, "filter", famCount)
	return &Program{
		info: Info{
			Name:                 "363.swim",
			Description:          "Weather",
			PaperStaticKernels:   22,
			PaperDynamicKernels:  11999,
			ScaledDynamicKernels: 1 + steps*3 + famCount*famRepeat,
		},
		policy: Unchecked,
		tol:    1e-4,
		run: familyRun("363.swim", asm, "filter", famCount, famRepeat,
			[]string{"calc1", "calc2", "calc3"}, steps, n, block),
	}
}
