package specaccel

import (
	"fmt"
	"math"

	"repro/internal/cuda"
	"repro/internal/gpu"
)

// The solver programs: 354.cg (a real FP64 conjugate-gradient iteration
// with host-side dot-product reductions, as cuBLAS-based CG codes do),
// and the NAS-style penta-/tri-diagonal sweep solvers 356.sp, 357.csp and
// 370.bt, built from generated per-variable sweep-kernel families.

// stencil3Kernel64 is stencil3Kernel in FP64: a[i] = c0*b[i-1] + c1*b[i] +
// c2*b[i+1] on register pairs.
func stencil3Kernel64(name string, c0, c1, c2 float32) string {
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
    SHL R3, R0, 0x3
    IADD R4, R3, c0[aptr]
    IADD R5, R3, c0[bptr]
    LDG.64 R6, [R5-0x8]
    LDG.64 R8, [R5]
    LDG.64 R10, [R5+0x8]
    DMUL R12, R6, 0x%08x
    DFMA R12, R8, 0x%08x, R12
    DFMA R12, R10, 0x%08x, R12
    STG.64 [R4], R12
    EXIT
`, name, f32bitsConst(c0), f32bitsConst(c1), f32bitsConst(c2))
}

// initPairKernel64 initializes two FP64 buffers from the index hash.
func initPairKernel64(name string) string {
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
    F2F.64 R6, R5
    SHL R8, R0, 0x3
    IADD R9, R8, c0[aptr]
    STG.64 [R9], R6
    DMUL R10, R6, 0x3f000000
    IADD R11, R8, c0[bptr]
    STG.64 [R11], R10
    EXIT
`, name)
}

// cgASM holds 354.cg's ten hand-written FP64 kernels. The matrix is the
// SPD tridiagonal A = tridiag(-1, 2.2, -1), applied matrix-free in spmv.
const cgASM = `
// 354.cg device code (FP64)
.kernel init_x
.param n
.param xptr
    S2R R0, SR_TID.X
    S2R R1, SR_CTAID.X
    MOV R2, c0[NTID_X]
    IMAD R0, R1, R2, R0
    ISETP.GE.AND P0, R0, c0[n], PT
@P0 EXIT
    SHL R3, R0, 0x3
    IADD R4, R3, c0[xptr]
    STG.64 [R4], RZ
    EXIT

.kernel init_b
.param n
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
    F2F.64 R6, R5
    SHL R8, R0, 0x3
    IADD R9, R8, c0[bptr]
    STG.64 [R9], R6
    EXIT

.kernel spmv
.param n
.param xptr
.param yptr
    S2R R0, SR_TID.X
    S2R R1, SR_CTAID.X
    MOV R2, c0[NTID_X]
    IMAD R0, R1, R2, R0
    ISETP.GE.AND P0, R0, c0[n], PT
@P0 EXIT
    SHL R3, R0, 0x3
    IADD R4, R3, c0[xptr]
    LDG.64 R6, [R4]
    DMUL R8, R6, 0x400ccccd        // 2.2 * x[i]
    ISETP.GE.AND P1, R0, 0x1, PT
@P1 BRA haslo
    BRA hidone
haslo:
    LDG.64 R10, [R4-0x8]
    DADD R8, R8, -R10
hidone:
    IADD R12, c0[n], -0x1
    ISETP.LT.AND P2, R0, R12, PT
@P2 BRA hashi
    BRA store
hashi:
    LDG.64 R10, [R4+0x8]
    DADD R8, R8, -R10
store:
    IADD R13, R3, c0[yptr]
    STG.64 [R13], R8
    EXIT

.kernel vsub
.param n
.param rptr
.param bptr
.param yptr
    S2R R0, SR_TID.X
    S2R R1, SR_CTAID.X
    MOV R2, c0[NTID_X]
    IMAD R0, R1, R2, R0
    ISETP.GE.AND P0, R0, c0[n], PT
@P0 EXIT
    SHL R3, R0, 0x3
    IADD R4, R3, c0[bptr]
    LDG.64 R6, [R4]
    IADD R5, R3, c0[yptr]
    LDG.64 R8, [R5]
    DADD R10, R6, -R8
    IADD R7, R3, c0[rptr]
    STG.64 [R7], R10
    EXIT

.kernel vcopy
.param n
.param dst
.param src
    S2R R0, SR_TID.X
    S2R R1, SR_CTAID.X
    MOV R2, c0[NTID_X]
    IMAD R0, R1, R2, R0
    ISETP.GE.AND P0, R0, c0[n], PT
@P0 EXIT
    SHL R3, R0, 0x3
    IADD R4, R3, c0[src]
    LDG.64 R6, [R4]
    IADD R5, R3, c0[dst]
    STG.64 [R5], R6
    EXIT

.kernel scale
.param n
.param xptr
.param c_lo
.param c_hi
    S2R R0, SR_TID.X
    S2R R1, SR_CTAID.X
    MOV R2, c0[NTID_X]
    IMAD R0, R1, R2, R0
    ISETP.GE.AND P0, R0, c0[n], PT
@P0 EXIT
    SHL R3, R0, 0x3
    IADD R4, R3, c0[xptr]
    LDG.64 R6, [R4]
    DMUL R6, R6, c0[c_lo]
    STG.64 [R4], R6
    EXIT

.kernel dot_partial
.param n
.param aptr
.param bptr
.param outp
    S2R R0, SR_TID.X
    S2R R1, SR_CTAID.X
    MOV R2, c0[NTID_X]
    IMAD R0, R1, R2, R0
    ISETP.GE.AND P0, R0, c0[n], PT
@P0 EXIT
    SHL R3, R0, 0x3
    IADD R4, R3, c0[aptr]
    LDG.64 R6, [R4]
    IADD R5, R3, c0[bptr]
    LDG.64 R8, [R5]
    DMUL R10, R6, R8
    IADD R7, R3, c0[outp]
    STG.64 [R7], R10
    EXIT

.kernel axpy
.param n
.param yptr
.param xptr
.param a_lo
.param a_hi
    S2R R0, SR_TID.X
    S2R R1, SR_CTAID.X
    MOV R2, c0[NTID_X]
    IMAD R0, R1, R2, R0
    ISETP.GE.AND P0, R0, c0[n], PT
@P0 EXIT
    SHL R3, R0, 0x3
    IADD R4, R3, c0[xptr]
    LDG.64 R6, [R4]
    IADD R5, R3, c0[yptr]
    LDG.64 R8, [R5]
    DFMA R8, R6, c0[a_lo], R8
    STG.64 [R5], R8
    EXIT

.kernel aypx
.param n
.param pptr
.param rptr
.param b_lo
.param b_hi
    S2R R0, SR_TID.X
    S2R R1, SR_CTAID.X
    MOV R2, c0[NTID_X]
    IMAD R0, R1, R2, R0
    ISETP.GE.AND P0, R0, c0[n], PT
@P0 EXIT
    SHL R3, R0, 0x3
    IADD R4, R3, c0[pptr]
    LDG.64 R6, [R4]
    IADD R5, R3, c0[rptr]
    LDG.64 R8, [R5]
    DFMA R6, R6, c0[b_lo], R8
    STG.64 [R4], R6
    EXIT

.kernel norm_partial
.param n
.param xptr
.param outp
    S2R R0, SR_TID.X
    S2R R1, SR_CTAID.X
    MOV R2, c0[NTID_X]
    IMAD R0, R1, R2, R0
    ISETP.GE.AND P0, R0, c0[n], PT
@P0 EXIT
    SHL R3, R0, 0x3
    IADD R4, R3, c0[xptr]
    LDG.64 R6, [R4]
    DMUL R8, R6, R6
    IADD R5, R3, c0[outp]
    STG.64 [R5], R8
    EXIT
`

// CG builds the 354.cg analog: FP64 conjugate gradient on
// A = tridiag(-1, 2.2, -1), with dot products reduced on the host.
// 22 static kernels (10 hand + 12 preconditioner family); dynamic
// 1+1+1+1+1+1 + 12 + 12x6 + 1 = 91 (paper: 2,027, scaled ~1/20).
func CG() *Program {
	const (
		n     = 256
		iters = 12
		block = 64
		fam   = 12
	)
	asm := cgASM + genFamily(fieldKernelF64, "precond", fam)
	famNames := familyNames("precond", fam)
	return &Program{
		info: Info{
			Name:                 "354.cg",
			Description:          "Conjugate gradient",
			PaperStaticKernels:   22,
			PaperDynamicKernels:  2027,
			ScaledDynamicKernels: 6 + fam + 1 + 6*iters + 1,
		},
		policy: Unchecked,
		tol:    1e-6,
		fp64:   true,
		run: func(h *host) error {
			mod, err := h.module("354.cg", asm)
			if err != nil {
				return err
			}
			fn := func(name string) (*cuda.Function, error) { return mod.Function(name) }
			names := []string{"init_x", "init_b", "spmv", "vsub", "vcopy", "scale",
				"dot_partial", "axpy", "aypx", "norm_partial"}
			fns := make(map[string]*cuda.Function, len(names))
			for _, name := range names {
				f, err := fn(name)
				if err != nil {
					return err
				}
				fns[name] = f
			}
			famFns := make([]*cuda.Function, fam)
			for i := range famFns {
				if famFns[i], err = fn(famNames[i]); err != nil {
					return err
				}
			}
			abuf := func() (cuda.DevPtr, error) { return h.alloc(8 * n) }
			x, err := abuf()
			if err != nil {
				return err
			}
			b, err := abuf()
			if err != nil {
				return err
			}
			r, err := abuf()
			if err != nil {
				return err
			}
			p, err := abuf()
			if err != nil {
				return err
			}
			q, err := abuf()
			if err != nil {
				return err
			}
			scratch, err := abuf()
			if err != nil {
				return err
			}
			cfg := cuda.LaunchConfig{
				Grid:  gpu.Dim3{X: n / block, Y: 1, Z: 1},
				Block: gpu.Dim3{X: block, Y: 1, Z: 1},
			}
			dot := func(a, c cuda.DevPtr) float64 {
				h.launch(fns["dot_partial"], cfg, n, a, c, scratch)
				var s float64
				for _, v := range f64From(h.readBack(scratch, 8*n)) {
					s += v
				}
				return s
			}
			oneLo, oneHi := f64Param(1.0)
			h.launch(fns["init_x"], cfg, n, x)
			h.launch(fns["init_b"], cfg, n, b)
			h.launch(fns["scale"], cfg, n, b, oneLo, oneHi)
			h.launch(fns["spmv"], cfg, n, x, q)
			h.launch(fns["vsub"], cfg, n, r, b, q)
			h.launch(fns["vcopy"], cfg, n, p, r)
			for _, f := range famFns {
				h.launch(f, cfg, n, p, r)
			}
			rr := dot(r, r)
			for it := 0; it < iters; it++ {
				h.launch(fns["spmv"], cfg, n, p, q)
				pq := dot(p, q)
				alpha := rr / pq
				aLo, aHi := f64Param(alpha)
				naLo, naHi := f64Param(-alpha)
				h.launch(fns["axpy"], cfg, n, x, p, aLo, aHi)
				h.launch(fns["axpy"], cfg, n, r, q, naLo, naHi)
				rrNew := dot(r, r)
				beta := rrNew / rr
				rr = rrNew
				bLo, bHi := f64Param(beta)
				h.launch(fns["aypx"], cfg, n, p, r, bLo, bHi)
			}
			h.launch(fns["norm_partial"], cfg, n, x, scratch)
			norm := h.readBack(scratch, 8*n)
			sol := h.readBack(x, 8*n)
			h.out.Files["solution.dat"] = sol
			var nsum float64
			for _, v := range f64From(norm) {
				nsum += v
			}
			h.out.Printf("354.cg n %d iters %d\n", n, iters)
			h.out.Printf("residual %s norm %s\n", fmtF(math.Sqrt(math.Abs(rr))), fmtF(nsum))
			return nil
		},
	}
}

// SP builds the 356.sp analog: scalar penta-diagonal solver, FP64.
// 71 static kernels (init + 3 core + 67 sweeps); dynamic
// 1 + 25x3 + 67x3 = 277 (paper: 27,692, scaled ~1/100).
func SP() *Program {
	const famCount, famRepeat, steps, n, block = 67, 3, 25, 512, 128
	asm := initPairKernel64("init") +
		stencil3Kernel64("compute_rhs", 0.22, 0.5, 0.28) +
		stencil3Kernel64("solve_x", 0.28, 0.5, 0.22) +
		stencil3Kernel64("add_u", 0.25, 0.48, 0.27) +
		genFamily(fieldKernelF64, "sweep", famCount)
	return &Program{
		info: Info{
			Name:                 "356.sp",
			Description:          "Scalar Penta-diagonal solver",
			PaperStaticKernels:   71,
			PaperDynamicKernels:  27692,
			ScaledDynamicKernels: 1 + steps*3 + famCount*famRepeat,
		},
		policy: Unchecked,
		tol:    1e-6,
		fp64:   true,
		run: familyRunSized("356.sp", asm, "sweep", famCount, famRepeat,
			[]string{"compute_rhs", "solve_x", "add_u"}, steps, n, block, true),
	}
}

// CSP builds the 357.csp analog: the FP32 variant of the penta-diagonal
// solver. 69 static kernels (init + 3 core + 65 sweeps); dynamic
// 1 + 24x3 + 65x3 = 268 (paper: 26,890, scaled ~1/100).
func CSP() *Program {
	const famCount, famRepeat, steps, n, block = 65, 3, 24, 1024, 128
	asm := initPairKernel("init") +
		stencil3Kernel("compute_rhs", 0.22, 0.5, 0.28) +
		stencil3Kernel("solve_x", 0.28, 0.5, 0.22) +
		stencil3Kernel("add_u", 0.25, 0.48, 0.27) +
		genFamily(fieldKernelF32, "sweep", famCount)
	return &Program{
		info: Info{
			Name:                 "357.csp",
			Description:          "Scalar Penta-diagonal solver",
			PaperStaticKernels:   69,
			PaperDynamicKernels:  26890,
			ScaledDynamicKernels: 1 + steps*3 + famCount*famRepeat,
		},
		policy: Checked,
		tol:    1e-4,
		run: familyRun("357.csp", asm, "sweep", famCount, famRepeat,
			[]string{"compute_rhs", "solve_x", "add_u"}, steps, n, block),
	}
}

// BT builds the 370.bt analog: block tri-diagonal 3D PDE solver, FP64.
// 50 static kernels (init + 3 core + 46 sweeps); dynamic
// 1 + 36x3 + 46x2 = 201 (paper: 10,069, scaled ~1/50).
func BT() *Program {
	const famCount, famRepeat, steps, n, block = 46, 2, 36, 512, 128
	asm := initPairKernel64("init") +
		stencil3Kernel64("x_solve", 0.3, 0.45, 0.25) +
		stencil3Kernel64("y_solve", 0.25, 0.45, 0.3) +
		stencil3Kernel64("z_solve", 0.27, 0.46, 0.27) +
		genFamily(fieldKernelF64, "btsweep", famCount)
	return &Program{
		info: Info{
			Name:                 "370.bt",
			Description:          "Block Tri-diagonal solver for 3D PDE",
			PaperStaticKernels:   50,
			PaperDynamicKernels:  10069,
			ScaledDynamicKernels: 1 + steps*3 + famCount*famRepeat,
		},
		policy: Unchecked,
		tol:    1e-6,
		fp64:   true,
		run: familyRunSized("370.bt", asm, "btsweep", famCount, famRepeat,
			[]string{"x_solve", "y_solve", "z_solve"}, steps, n, block, true),
	}
}
