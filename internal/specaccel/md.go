package specaccel

import (
	"repro/internal/cuda"
	"repro/internal/gpu"
)

// 350.md: molecular dynamics — a softened Lennard-Jones-style N-body force
// loop with velocity integration, all in FP64 register pairs. Three static
// kernels (forces, integrate, kinetic energy); 26 time steps x 2 + 1 final
// energy pass = 53 dynamic kernels, matching Table IV exactly. The FP64
// reciprocal is computed the fast-math way: narrow to FP32, MUFU.RCP, widen.
const mdASM = `
// 350.md device code. Positions/velocities/forces: FP64 arrays per axis.
.kernel compute_forces
.param natoms
.param px
.param py
.param pz
.param fx
.param fy
.param fz
    S2R R0, SR_TID.X
    S2R R1, SR_CTAID.X
    MOV R2, c0[NTID_X]
    IMAD R0, R1, R2, R0
    ISETP.GE.AND P0, R0, c0[natoms], PT
@P0 EXIT
    SHL R3, R0, 0x3
    IADD R4, R3, c0[px]
    LDG.64 R6, [R4]               // xi
    IADD R4, R3, c0[py]
    LDG.64 R8, [R4]               // yi
    IADD R4, R3, c0[pz]
    LDG.64 R10, [R4]              // zi
    MOV R12, RZ                   // fx accumulator (pair R12:R13)
    MOV R13, RZ
    MOV R14, RZ                   // fy
    MOV R15, RZ
    MOV R16, RZ                   // fz
    MOV R17, RZ
    MOV R20, RZ                   // j
jloop:
    ISETP.GE.AND P1, R20, c0[natoms], PT
@P1 BRA done
    SHL R21, R20, 0x3
    IADD R22, R21, c0[px]
    LDG.64 R24, [R22]             // xj
    IADD R22, R21, c0[py]
    LDG.64 R26, [R22]             // yj
    IADD R22, R21, c0[pz]
    LDG.64 R28, [R22]             // zj
    DADD R24, R6, -R24            // dx
    DADD R26, R8, -R26            // dy
    DADD R28, R10, -R28           // dz
    DMUL R30, R24, R24
    DFMA R30, R26, R26, R30
    DFMA R30, R28, R28, R30       // r^2
    DADD R30, R30, 0x3c23d70a     // + 0.01 softening
    F2F.32 R32, R30               // narrow to FP32
    MUFU.RCP R33, R32
    FMUL R33, R33, R33            // 1/r^4 ~ (1/r^2)^2
    F2F.64 R34, R33               // widen back
    DMUL R36, R24, R34
    DADD R12, R12, R36            // fx += dx / r^4
    DMUL R36, R26, R34
    DADD R14, R14, R36
    DMUL R36, R28, R34
    DADD R16, R16, R36
    IADD R20, R20, 0x1
    BRA jloop
done:
    IADD R40, R3, c0[fx]
    STG.64 [R40], R12
    IADD R40, R3, c0[fy]
    STG.64 [R40], R14
    IADD R40, R3, c0[fz]
    STG.64 [R40], R16
    EXIT

.kernel integrate
.param natoms
.param px
.param py
.param pz
.param vx
.param vy
.param vz
.param fx
.param fy
.param fz
.param dt_lo
.param dt_hi
    S2R R0, SR_TID.X
    S2R R1, SR_CTAID.X
    MOV R2, c0[NTID_X]
    IMAD R0, R1, R2, R0
    ISETP.GE.AND P0, R0, c0[natoms], PT
@P0 EXIT
    SHL R3, R0, 0x3
    IADD R4, R3, c0[fx]
    LDG.64 R6, [R4]
    IADD R4, R3, c0[vx]
    LDG.64 R8, [R4]
    DFMA R8, R6, c0[dt_lo], R8    // vx += fx*dt
    STG.64 [R4], R8
    IADD R4, R3, c0[px]
    LDG.64 R10, [R4]
    DFMA R10, R8, c0[dt_lo], R10  // px += vx*dt
    STG.64 [R4], R10
    IADD R4, R3, c0[fy]
    LDG.64 R6, [R4]
    IADD R4, R3, c0[vy]
    LDG.64 R8, [R4]
    DFMA R8, R6, c0[dt_lo], R8
    STG.64 [R4], R8
    IADD R4, R3, c0[py]
    LDG.64 R10, [R4]
    DFMA R10, R8, c0[dt_lo], R10
    STG.64 [R4], R10
    IADD R4, R3, c0[fz]
    LDG.64 R6, [R4]
    IADD R4, R3, c0[vz]
    LDG.64 R8, [R4]
    DFMA R8, R6, c0[dt_lo], R8
    STG.64 [R4], R8
    IADD R4, R3, c0[pz]
    LDG.64 R10, [R4]
    DFMA R10, R8, c0[dt_lo], R10
    STG.64 [R4], R10
    EXIT

.kernel kinetic_energy
.param natoms
.param vx
.param vy
.param vz
.param ke
    S2R R0, SR_TID.X
    S2R R1, SR_CTAID.X
    MOV R2, c0[NTID_X]
    IMAD R0, R1, R2, R0
    ISETP.GE.AND P0, R0, c0[natoms], PT
@P0 EXIT
    SHL R3, R0, 0x3
    IADD R4, R3, c0[vx]
    LDG.64 R6, [R4]
    IADD R4, R3, c0[vy]
    LDG.64 R8, [R4]
    IADD R4, R3, c0[vz]
    LDG.64 R10, [R4]
    DMUL R12, R6, R6
    DFMA R12, R8, R8, R12
    DFMA R12, R10, R10, R12
    DMUL R12, R12, 0x3f000000     // * 0.5
    IADD R4, R3, c0[ke]
    STG.64 [R4], R12
    EXIT
`

// MD builds the 350.md analog.
func MD() *Program {
	const (
		natoms = 64
		steps  = 26
		block  = 64
		dt     = 1.0 / 1024 // exactly representable
	)
	return &Program{
		info: Info{
			Name:                 "350.md",
			Description:          "Molecular dynamics",
			PaperStaticKernels:   3,
			PaperDynamicKernels:  53,
			ScaledDynamicKernels: 2*steps + 1,
		},
		policy: Unchecked,
		tol:    1e-6,
		fp64:   true,
		run: func(h *host) error {
			mod, err := h.module("350.md", mdASM)
			if err != nil {
				return err
			}
			forcesFn, err := mod.Function("compute_forces")
			if err != nil {
				return err
			}
			integrateFn, err := mod.Function("integrate")
			if err != nil {
				return err
			}
			keFn, err := mod.Function("kinetic_energy")
			if err != nil {
				return err
			}
			buf := func(seed int64, lo, hi float64) (cuda.DevPtr, error) {
				p, err := h.alloc(8 * natoms)
				if err != nil {
					return 0, err
				}
				h.upload(p, randFloats64(seed, natoms, lo, hi))
				return p, nil
			}
			px, err := buf(3501, 0, 4)
			if err != nil {
				return err
			}
			py, err := buf(3502, 0, 4)
			if err != nil {
				return err
			}
			pz, err := buf(3503, 0, 4)
			if err != nil {
				return err
			}
			vx, err := buf(3504, -0.1, 0.1)
			if err != nil {
				return err
			}
			vy, err := buf(3505, -0.1, 0.1)
			if err != nil {
				return err
			}
			vz, err := buf(3506, -0.1, 0.1)
			if err != nil {
				return err
			}
			fx, err := h.alloc(8 * natoms)
			if err != nil {
				return err
			}
			fy, err := h.alloc(8 * natoms)
			if err != nil {
				return err
			}
			fz, err := h.alloc(8 * natoms)
			if err != nil {
				return err
			}
			ke, err := h.alloc(8 * natoms)
			if err != nil {
				return err
			}
			cfg := cuda.LaunchConfig{
				Grid:  gpu.Dim3{X: natoms / block, Y: 1, Z: 1},
				Block: gpu.Dim3{X: block, Y: 1, Z: 1},
			}
			dtLo, dtHi := f64Param(dt)
			for s := 0; s < steps; s++ {
				h.launch(forcesFn, cfg, natoms, px, py, pz, fx, fy, fz)
				h.launch(integrateFn, cfg, natoms, px, py, pz, vx, vy, vz, fx, fy, fz, dtLo, dtHi)
			}
			h.launch(keFn, cfg, natoms, vx, vy, vz, ke)

			pos := h.readBack(px, 8*natoms)
			keb := h.readBack(ke, 8*natoms)
			h.out.Files["positions.dat"] = pos
			h.out.Files["energy.dat"] = keb
			h.out.Printf("350.md atoms %d steps %d\n", natoms, steps)
			h.out.Printf("KE %s\n", fmtF(checksum64(f64From(keb))))
			return nil
		},
	}
}
