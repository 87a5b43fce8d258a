package specaccel

import (
	"repro/internal/cuda"
	"repro/internal/gpu"
)

// 304.olbm: computational fluid dynamics with the Lattice Boltzmann Method.
// A D2Q5 lattice on a 32x32 periodic grid with bounce-back on the bottom
// wall. Three static kernels (init, fused stream+collide, boundary), 1 + 45
// iterations x 2 = 91 dynamic kernels (paper: 900, scaled 1/10).
const olbmASM = `
// 304.olbm device code: D2Q5 LBM. Distribution k lives at fptr + k*0x1000.
.kernel init_dist
.param n
.param fptr
    S2R R0, SR_TID.X
    S2R R1, SR_CTAID.X
    MOV R2, c0[NTID_X]
    IMAD R0, R1, R2, R0
    ISETP.GE.AND P0, R0, c0[n], PT
@P0 EXIT
    IMUL R3, R0, 0x9e3779b1
    SHR.U32 R4, R3, 0x8
    I2F R5, R4
    FMUL R5, R5, 0x33800000        // hash in [0,1)
    FMUL R5, R5, 0x3dcccccd        // * 0.1 perturbation
    FADD R5, R5, 0x3f800000        // 1 + p
    SHL R6, R0, 0x2
    IADD R7, R6, c0[fptr]
    FMUL R8, R5, 0x3eaaaaab        // w0 = 1/3
    STG.32 [R7], R8
    FMUL R8, R5, 0x3e2aaaab        // wi = 1/6
    STG.32 [R7+0x1000], R8
    STG.32 [R7+0x2000], R8
    STG.32 [R7+0x3000], R8
    STG.32 [R7+0x4000], R8
    EXIT

.kernel stream_collide
.param n
.param inptr
.param outptr
.param omega
    S2R R0, SR_TID.X
    S2R R1, SR_CTAID.X
    MOV R2, c0[NTID_X]
    IMAD R0, R1, R2, R0
    ISETP.GE.AND P0, R0, c0[n], PT
@P0 EXIT
    LOP.AND R1, R0, 0x1f           // x
    SHR.U32 R2, R0, 0x5            // y
    SHL R3, R2, 0x5                // row base
    IADD R4, R1, -0x1
    LOP.AND R4, R4, 0x1f           // x-1 mod 32
    IADD R5, R1, 0x1
    LOP.AND R5, R5, 0x1f           // x+1 mod 32
    IADD R6, R2, -0x1
    LOP.AND R6, R6, 0x1f           // y-1 mod 32
    IADD R7, R2, 0x1
    LOP.AND R7, R7, 0x1f           // y+1 mod 32
    IADD R8, R3, R4                // west cell
    IADD R9, R3, R5                // east cell
    SHL R10, R6, 0x5
    IADD R10, R10, R1              // south cell
    SHL R11, R7, 0x5
    IADD R11, R11, R1              // north cell
    SHL R12, R0, 0x2
    IADD R12, R12, c0[inptr]
    SHL R13, R8, 0x2
    IADD R13, R13, c0[inptr]
    SHL R14, R10, 0x2
    IADD R14, R14, c0[inptr]
    SHL R15, R9, 0x2
    IADD R15, R15, c0[inptr]
    SHL R16, R11, 0x2
    IADD R16, R16, c0[inptr]
    LDG.32 R17, [R12]              // f0 stays
    LDG.32 R18, [R13+0x1000]       // f1 arrives from west
    LDG.32 R19, [R14+0x2000]       // f2 arrives from south
    LDG.32 R20, [R15+0x3000]       // f3 arrives from east
    LDG.32 R21, [R16+0x4000]       // f4 arrives from north
    FADD R22, R17, R18
    FADD R22, R22, R19
    FADD R22, R22, R20
    FADD R22, R22, R21             // rho
    FADD R23, R18, -R20            // ux (momentum)
    FADD R24, R19, -R21            // uy
    FMUL R25, R22, 0x3eaaaaab      // rho/3
    FMUL R26, R22, 0x3e2aaaab      // rho/6
    MOV R27, c0[omega]
    SHL R29, R0, 0x2
    IADD R29, R29, c0[outptr]
    FADD R28, R25, -R17
    FFMA R28, R28, R27, R17        // f0' = f0 + w*(feq0-f0)
    STG.32 [R29], R28
    FFMA R28, R23, 0x3f000000, R26 // feq1 = rho/6 + ux/2
    FADD R28, R28, -R18
    FFMA R28, R28, R27, R18
    STG.32 [R29+0x1000], R28
    FFMA R28, R24, 0x3f000000, R26
    FADD R28, R28, -R19
    FFMA R28, R28, R27, R19
    STG.32 [R29+0x2000], R28
    FFMA R28, R23, 0xbf000000, R26 // feq3 = rho/6 - ux/2
    FADD R28, R28, -R20
    FFMA R28, R28, R27, R20
    STG.32 [R29+0x3000], R28
    FFMA R28, R24, 0xbf000000, R26
    FADD R28, R28, -R21
    FFMA R28, R28, R27, R21
    STG.32 [R29+0x4000], R28
    EXIT

.kernel boundary
.param fptr
    S2R R0, SR_TID.X               // x along the bottom wall
    SHL R1, R0, 0x2
    IADD R2, R1, c0[fptr]
    LDG.32 R3, [R2+0x2000]         // bounce-back: swap f2 and f4
    LDG.32 R4, [R2+0x4000]
    STG.32 [R2+0x2000], R4
    STG.32 [R2+0x4000], R3
    EXIT
`

// Olbm builds the 304.olbm analog.
func Olbm() *Program {
	const (
		side  = 32
		n     = side * side
		iters = 45
		block = 128
		omega = float32(0.6)
	)
	return &Program{
		info: Info{
			Name:                 "304.olbm",
			Description:          "Computational fluid dynamics, Lattice Boltzmann Method",
			PaperStaticKernels:   3,
			PaperDynamicKernels:  900,
			ScaledDynamicKernels: 1 + 2*iters,
		},
		policy: Unchecked,
		tol:    1e-4,
		run: func(h *host) error {
			mod, err := h.module("304.olbm", olbmASM)
			if err != nil {
				return err
			}
			initFn, err := mod.Function("init_dist")
			if err != nil {
				return err
			}
			scFn, err := mod.Function("stream_collide")
			if err != nil {
				return err
			}
			bcFn, err := mod.Function("boundary")
			if err != nil {
				return err
			}
			a, err := h.alloc(5 * 4 * n)
			if err != nil {
				return err
			}
			b, err := h.alloc(5 * 4 * n)
			if err != nil {
				return err
			}
			cfg := cuda.LaunchConfig{
				Grid:  gpu.Dim3{X: n / block, Y: 1, Z: 1},
				Block: gpu.Dim3{X: block, Y: 1, Z: 1},
			}
			bcCfg := cuda.LaunchConfig{
				Grid:  gpu.Dim3{X: 1, Y: 1, Z: 1},
				Block: gpu.Dim3{X: side, Y: 1, Z: 1},
			}
			h.launch(initFn, cfg, n, a)
			src, dst := a, b
			for it := 0; it < iters; it++ {
				h.launch(scFn, cfg, n, src, dst, f32bitsConst(omega))
				h.launch(bcFn, bcCfg, dst)
				src, dst = dst, src
			}
			final := h.readBack(src, 5*4*n)
			h.out.Files["lbm.dat"] = final
			h.out.Printf("304.olbm lattice %dx%d iters %d\n", side, side, iters)
			h.out.Printf("mass %s\n", fmtF(checksum32(f32From(final))))
			return nil
		},
	}
}

// 360.ilbdc: fluid mechanics — a single fused FP64 relaxation kernel (the
// benchmark's one static kernel) applied 100 times over a 1D periodic
// lattice (paper: 1000 dynamic kernels, scaled 1/10).
const ilbdcASM = `
// 360.ilbdc device code
.kernel relax_fused
.param n
.param inptr
.param outptr
    S2R R0, SR_TID.X
    S2R R1, SR_CTAID.X
    MOV R2, c0[NTID_X]
    IMAD R0, R1, R2, R0
    ISETP.GE.AND P0, R0, c0[n], PT
@P0 EXIT
    IADD R1, R0, -0x1
    LOP.AND R1, R1, 0x1ff          // left neighbor mod 512
    IADD R2, R0, 0x1
    LOP.AND R2, R2, 0x1ff          // right neighbor mod 512
    SHL R3, R0, 0x3
    IADD R4, R3, c0[inptr]
    SHL R5, R1, 0x3
    IADD R5, R5, c0[inptr]
    SHL R6, R2, 0x3
    IADD R6, R6, c0[inptr]
    LDG.64 R8, [R4]                // self
    LDG.64 R10, [R5]               // left
    LDG.64 R12, [R6]               // right
    DADD R14, R10, R12
    DMUL R14, R14, 0x3d4ccccd      // 0.05 * (left+right)
    DFMA R14, R8, 0x3f666666, R14  // + 0.9 * self
    SHL R16, R0, 0x3
    IADD R16, R16, c0[outptr]
    STG.64 [R16], R14
    EXIT
`

// Ilbdc builds the 360.ilbdc analog.
func Ilbdc() *Program {
	const (
		n     = 512
		iters = 100
		block = 128
	)
	return &Program{
		info: Info{
			Name:                 "360.ilbdc",
			Description:          "Fluid mechanics",
			PaperStaticKernels:   1,
			PaperDynamicKernels:  1000,
			ScaledDynamicKernels: iters,
		},
		policy: Unchecked,
		tol:    1e-6,
		fp64:   true,
		run: func(h *host) error {
			mod, err := h.module("360.ilbdc", ilbdcASM)
			if err != nil {
				return err
			}
			fn, err := mod.Function("relax_fused")
			if err != nil {
				return err
			}
			a, err := h.alloc(8 * n)
			if err != nil {
				return err
			}
			b, err := h.alloc(8 * n)
			if err != nil {
				return err
			}
			h.upload(a, randFloats64(360, n, 0.5, 1.5))
			cfg := cuda.LaunchConfig{
				Grid:  gpu.Dim3{X: n / block, Y: 1, Z: 1},
				Block: gpu.Dim3{X: block, Y: 1, Z: 1},
			}
			src, dst := a, b
			for it := 0; it < iters; it++ {
				h.launch(fn, cfg, n, src, dst)
				src, dst = dst, src
			}
			final := h.readBack(src, 8*n)
			h.out.Files["ilbdc.dat"] = final
			h.out.Printf("360.ilbdc cells %d iters %d\n", n, iters)
			h.out.Printf("sum %s\n", fmtF(checksum64(f64From(final))))
			return nil
		},
	}
}
