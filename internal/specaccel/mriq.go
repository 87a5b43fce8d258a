package specaccel

import (
	"repro/internal/cuda"
	"repro/internal/gpu"
)

// 314.omriq: medicine — non-Cartesian MRI reconstruction (MRI-Q). Two
// static kernels and exactly two dynamic kernels, matching Table IV: one
// pass computing |phi|^2 per sample, one pass accumulating the Q matrix
// with a trigonometric inner loop over all k-space samples.
const omriqASM = `
// 314.omriq device code
.kernel compute_phi_mag
.param numk
.param phir
.param phii
.param phimag
    S2R R0, SR_TID.X
    S2R R1, SR_CTAID.X
    MOV R2, c0[NTID_X]
    IMAD R0, R1, R2, R0
    ISETP.GE.AND P0, R0, c0[numk], PT
@P0 EXIT
    SHL R3, R0, 0x2
    IADD R4, R3, c0[phir]
    IADD R5, R3, c0[phii]
    LDG.32 R6, [R4]
    LDG.32 R7, [R5]
    FMUL R8, R6, R6
    FFMA R8, R7, R7, R8
    IADD R9, R3, c0[phimag]
    STG.32 [R9], R8
    EXIT

.kernel compute_q
.param numx
.param numk
.param phimag
.param kvals
.param xcoords
.param qr
.param qi
    S2R R0, SR_TID.X
    S2R R1, SR_CTAID.X
    MOV R2, c0[NTID_X]
    IMAD R0, R1, R2, R0
    ISETP.GE.AND P0, R0, c0[numx], PT
@P0 EXIT
    SHL R3, R0, 0x2
    IADD R4, R3, c0[xcoords]
    LDG.32 R5, [R4]               // x coordinate
    MOV R10, RZ                   // accumulated Qr
    MOV R11, RZ                   // accumulated Qi
    MOV R12, RZ                   // k index
kloop:
    ISETP.GE.AND P1, R12, c0[numk], PT
@P1 BRA done
    SHL R15, R12, 0x2
    IADD R16, R15, c0[phimag]
    LDG.32 R17, [R16]             // |phi[k]|^2
    IADD R18, R15, c0[kvals]
    LDG.32 R19, [R18]             // k value
    FMUL R20, R19, R5
    FMUL R20, R20, 0x40c90fdb     // 2*pi*k*x
    MUFU.COS R21, R20
    MUFU.SIN R22, R20
    FFMA R10, R17, R21, R10
    FFMA R11, R17, R22, R11
    IADD R12, R12, 0x1
    BRA kloop
done:
    IADD R25, R3, c0[qr]
    STG.32 [R25], R10
    IADD R26, R3, c0[qi]
    STG.32 [R26], R11
    EXIT
`

// Omriq builds the 314.omriq analog.
func Omriq() *Program {
	const (
		numK  = 64
		numX  = 256
		block = 64
	)
	return &Program{
		info: Info{
			Name:                 "314.omriq",
			Description:          "Medicine",
			PaperStaticKernels:   2,
			PaperDynamicKernels:  2,
			ScaledDynamicKernels: 2,
		},
		policy: Checked,
		tol:    1e-4,
		run: func(h *host) error {
			mod, err := h.module("314.omriq", omriqASM)
			if err != nil {
				return err
			}
			phiMagFn, err := mod.Function("compute_phi_mag")
			if err != nil {
				return err
			}
			qFn, err := mod.Function("compute_q")
			if err != nil {
				return err
			}
			phiR, err := h.alloc(4 * numK)
			if err != nil {
				return err
			}
			phiI, err := h.alloc(4 * numK)
			if err != nil {
				return err
			}
			phiMag, err := h.alloc(4 * numK)
			if err != nil {
				return err
			}
			kVals, err := h.alloc(4 * numK)
			if err != nil {
				return err
			}
			xCoords, err := h.alloc(4 * numX)
			if err != nil {
				return err
			}
			qr, err := h.alloc(4 * numX)
			if err != nil {
				return err
			}
			qi, err := h.alloc(4 * numX)
			if err != nil {
				return err
			}
			h.upload(phiR, randFloats(3141, numK, -1, 1))
			h.upload(phiI, randFloats(3142, numK, -1, 1))
			h.upload(kVals, randFloats(3143, numK, 0, 1))
			h.upload(xCoords, randFloats(3144, numX, 0, 1))

			h.launch(phiMagFn, cuda.LaunchConfig{
				Grid:  gpu.Dim3{X: numK / block, Y: 1, Z: 1},
				Block: gpu.Dim3{X: block, Y: 1, Z: 1},
			}, numK, phiR, phiI, phiMag)
			h.launch(qFn, cuda.LaunchConfig{
				Grid:  gpu.Dim3{X: numX / block, Y: 1, Z: 1},
				Block: gpu.Dim3{X: block, Y: 1, Z: 1},
			}, numX, numK, phiMag, kVals, xCoords, qr, qi)

			qrb := h.readBack(qr, 4*numX)
			qib := h.readBack(qi, 4*numX)
			h.out.Files["qr.dat"] = qrb
			h.out.Files["qi.dat"] = qib
			h.out.Printf("314.omriq numK %d numX %d\n", numK, numX)
			h.out.Printf("Qr %s Qi %s\n", fmtF(checksum32(f32From(qrb))), fmtF(checksum32(f32From(qib))))
			return nil
		},
	}
}
