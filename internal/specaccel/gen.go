package specaccel

import (
	"fmt"
	"math"
	"strings"
)

// Kernel-family generation. Several SpecACCEL programs (351.palm,
// 353.clvrleaf, 356.sp, 357.csp, 370.bt, ...) consist of dozens to hundreds
// of small, structurally similar field-update kernels — one per physical
// variable per sweep direction, emitted by the OpenACC compiler. The
// generators below stamp out such families: each kernel gets its own name,
// its own baked-in coefficients, and one of several structural variants
// (pointwise, left/right-neighbor, product form), so the generated kernels
// are genuinely distinct static code, as they are in the real benchmarks.

// fieldKernelF32 emits one FP32 field-update kernel. Variants:
//
//	0: a[i] = ca*a[i] + cb*b[i]
//	1: a[i] = ca*a[i] + cb*b[i+1]   (right neighbor)
//	2: a[i] = ca*a[i] + cb*b[i-1]   (left neighbor)
//	3: a[i] = ca*(a[i]*b[i]) + cb   (product form)
func fieldKernelF32(name string, variant int, ca, cb float32) string {
	cab := math.Float32bits(ca)
	cbb := math.Float32bits(cb)
	var body string
	switch variant % 4 {
	case 0:
		body = fmt.Sprintf(`    LDG.32 R6, [R4]
    LDG.32 R7, [R5]
    FMUL R8, R6, 0x%08x
    FFMA R8, R7, 0x%08x, R8
    STG.32 [R4], R8`, cab, cbb)
	case 1:
		body = fmt.Sprintf(`    LDG.32 R6, [R4]
    LDG.32 R7, [R5+0x4]
    FMUL R8, R6, 0x%08x
    FFMA R8, R7, 0x%08x, R8
    STG.32 [R4], R8`, cab, cbb)
	case 2:
		body = fmt.Sprintf(`    LDG.32 R6, [R4]
    LDG.32 R7, [R5-0x4]
    FMUL R8, R6, 0x%08x
    FFMA R8, R7, 0x%08x, R8
    STG.32 [R4], R8`, cab, cbb)
	default:
		body = fmt.Sprintf(`    LDG.32 R6, [R4]
    LDG.32 R7, [R5]
    FMUL R8, R6, R7
    FMUL R8, R8, 0x%08x
    FADD R8, R8, 0x%08x
    STG.32 [R4], R8`, cab, cbb)
	}
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
    ISETP.GE.OR P0, R0, c0[n], P0
@P0 EXIT
    IADD R3, c0[n], -0x1
    ISETP.GE.AND P1, R0, R3, PT
@P1 EXIT
    SHL R3, R0, 0x2
    IADD R4, R3, c0[aptr]
    IADD R5, R3, c0[bptr]
%s
    EXIT
`, name, body)
}

// fieldKernelF64 emits one FP64 field-update kernel with the same variant
// structure as fieldKernelF32. FP64 values live in even/odd register pairs
// and are loaded with LDG.64; float immediates widen from FP32.
func fieldKernelF64(name string, variant int, ca, cb float32) string {
	cab := math.Float32bits(ca)
	cbb := math.Float32bits(cb)
	var body string
	switch variant % 4 {
	case 0:
		body = fmt.Sprintf(`    LDG.64 R6, [R4]
    LDG.64 R8, [R5]
    DMUL R10, R6, 0x%08x
    DFMA R10, R8, 0x%08x, R10
    STG.64 [R4], R10`, cab, cbb)
	case 1:
		body = fmt.Sprintf(`    LDG.64 R6, [R4]
    LDG.64 R8, [R5+0x8]
    DMUL R10, R6, 0x%08x
    DFMA R10, R8, 0x%08x, R10
    STG.64 [R4], R10`, cab, cbb)
	case 2:
		body = fmt.Sprintf(`    LDG.64 R6, [R4]
    LDG.64 R8, [R5-0x8]
    DMUL R10, R6, 0x%08x
    DFMA R10, R8, 0x%08x, R10
    STG.64 [R4], R10`, cab, cbb)
	default:
		body = fmt.Sprintf(`    LDG.64 R6, [R4]
    LDG.64 R8, [R5]
    DMUL R10, R6, R8
    DMUL R10, R10, 0x%08x
    DADD R10, R10, 0x%08x
    STG.64 [R4], R10`, cab, cbb)
	}
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
    ISETP.GE.OR P0, R0, c0[n], P0
@P0 EXIT
    IADD R3, c0[n], -0x1
    ISETP.GE.AND P1, R0, R3, PT
@P1 EXIT
    SHL R3, R0, 0x3
    IADD R4, R3, c0[aptr]
    IADD R5, R3, c0[bptr]
%s
    EXIT
`, name, body)
}

// genFamily stamps out n kernels named <prefix>_000.. with rotating
// variants and per-kernel coefficients derived from the index. gen is
// fieldKernelF32 or fieldKernelF64.
func genFamily(gen func(string, int, float32, float32) string, prefix string, n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		// Coefficients stay near (1, small) so iterated application is
		// numerically stable across the run.
		ca := 1.0 - 0.01*float32(i%7) - 0.001*float32(i%13)
		cb := 0.01 + 0.002*float32(i%5)
		sb.WriteString(gen(familyName(prefix, i), i, ca, cb))
	}
	return sb.String()
}

// familyName is the name of the i-th kernel genFamily stamps out.
func familyName(prefix string, i int) string { return fmt.Sprintf("%s_%03d", prefix, i) }

// familyNames lists a generated family's kernel names. Programs call it when
// they are built, so a run looks its functions up without formatting.
func familyNames(prefix string, n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = familyName(prefix, i)
	}
	return names
}
