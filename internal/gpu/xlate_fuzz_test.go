package gpu

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sass"
)

// fuzzProgram turns fuzzer bytes into a small kernel over a curated
// instruction mix: plain ALU, guarded execution, predicate sets, forward
// branches, global loads and stores (scattered within a 256-byte buffer,
// coalesced by thread id, or through an unconfined "fault-corrupted"
// address), and thunk-dispatched warp intrinsics (SHFL, VOTE). Every byte maps to one
// generation step, so the fuzzer can explore instruction interleavings.
func fuzzProgram(data []byte) string {
	var sb strings.Builder
	sb.WriteString(".kernel fuzz\n.param buf\n")
	sb.WriteString("    S2R R1, SR_TID.X\n")
	sb.WriteString("    MOV R2, 0x9e3779b9\n")
	reg := func(b byte) int { return 1 + int(b)%7 } // R1..R7
	skip := 0
	emitted := 0
	for i := 0; i+2 < len(data) && emitted < 48; i += 3 {
		op, a, b := data[i], data[i+1], data[i+2]
		d, ra, rb := reg(a), reg(b), reg(a^b)
		switch op % 16 {
		case 0:
			fmt.Fprintf(&sb, "    MOV R%d, 0x%x\n", d, uint32(a)<<8|uint32(b))
		case 1:
			fmt.Fprintf(&sb, "    IADD R%d, R%d, R%d\n", d, ra, rb)
		case 2:
			fmt.Fprintf(&sb, "    IMAD R%d, R%d, R%d, 0x%x\n", d, ra, rb, b)
		case 3:
			fmt.Fprintf(&sb, "    LOP.XOR R%d, R%d, R%d\n", d, ra, rb)
		case 4:
			fmt.Fprintf(&sb, "    SHL R%d, R%d, 0x%x\n", d, ra, b%33)
		case 5:
			fmt.Fprintf(&sb, "    FADD R%d, R%d, R%d\n", d, ra, rb)
		case 6:
			fmt.Fprintf(&sb, "    FMUL R%d, R%d, -R%d\n", d, ra, rb)
		case 7:
			fmt.Fprintf(&sb, "    ISETP.LT.U32.AND P1, R%d, R%d, PT\n", ra, rb)
		case 8:
			fmt.Fprintf(&sb, "@P1 IADD R%d, R%d, 0x1\n", d, ra)
		case 9:
			fmt.Fprintf(&sb, "@!P1 MOV R%d, 0x%x\n", d, b)
		case 10:
			fmt.Fprintf(&sb, "    SEL R%d, R%d, R%d, P1\n", d, ra, rb)
		case 11:
			// Guarded forward branch over the next few instructions: the
			// label is emitted by a later step (or the tail fixup).
			fmt.Fprintf(&sb, "@P1 BRA skip%d\n", skip)
			skip++
		case 12, 13:
			switch {
			case b >= 0xe0:
				// A fault-corrupted address: the raw register offsets the
				// buffer base, so lanes land misaligned or out of bounds and
				// the first faulting lane, trap kind, and address must agree.
				fmt.Fprintf(&sb, "    IADD R8, R%d, c0[buf]\n", ra)
			case b >= 0xc0:
				// The coalesced shape: consecutive words by thread id.
				sb.WriteString("    S2R R8, SR_TID.X\n")
				sb.WriteString("    LOP.AND R8, R8, 0x3f\n")
				sb.WriteString("    SHL R8, R8, 0x2\n")
				sb.WriteString("    IADD R8, R8, c0[buf]\n")
			default:
				// Confine addresses to the 64-word buffer so the access
				// always lands in bounds and 4-byte aligned.
				fmt.Fprintf(&sb, "    LOP.AND R8, R%d, 0x3f\n", ra)
				sb.WriteString("    SHL R8, R8, 0x2\n")
				sb.WriteString("    IADD R8, R8, c0[buf]\n")
			}
			if op%16 == 12 {
				fmt.Fprintf(&sb, "    STG.32 [R8], R%d\n", rb)
			} else {
				fmt.Fprintf(&sb, "    LDG.32 R%d, [R8]\n", d)
			}
		case 14:
			// Thunk-dispatched intrinsics: translated execution falls back to
			// the interpreter closure for these, so the fuzz mix proves the
			// two dispatch paths compose.
			fmt.Fprintf(&sb, "    SHFL.BFLY R%d, R%d, 0x%x, 0x1f\n", d, ra, 1+b%8)
		case 15:
			if skip > 0 {
				// Resolve the most recent pending branch target here, so the
				// branch skips a fuzzer-chosen span.
				skip--
				fmt.Fprintf(&sb, "skip%d:\n", skip)
			} else {
				fmt.Fprintf(&sb, "    POPC R%d, R%d\n", d, ra)
			}
		}
		emitted++
	}
	// Resolve any dangling branch labels at the tail.
	for skip > 0 {
		skip--
		fmt.Fprintf(&sb, "skip%d:\n", skip)
	}
	sb.WriteString("    EXIT\n")
	return sb.String()
}

// runFuzzKernel assembles and runs one generated kernel on a fresh device
// with the chosen engine and returns everything observable: final buffer
// bytes, stats, error text, and the device digest (which covers the register
// files of any still-live warps plus all memory).
func runFuzzKernel(tb testing.TB, src string, noXlate bool) (out []byte, stats LaunchStats, errText string, digest uint64) {
	tb.Helper()
	p, err := sass.Assemble("fuzz", src)
	if err != nil {
		tb.Skipf("assemble: %v", err)
	}
	d, err := NewDevice(sass.FamilyVolta, 2)
	if err != nil {
		tb.Fatal(err)
	}
	d.NoXlate = noXlate
	buf, err := d.Mem.Alloc(256)
	if err != nil {
		tb.Fatal(err)
	}
	stats, runErr := d.Run(&Launch{
		Kernel: &ExecKernel{K: p.Kernels[0]},
		Grid:   Dim3{X: 2, Y: 1, Z: 1},
		Block:  Dim3{X: 64, Y: 1, Z: 1},
		Params: []uint32{buf},
		Budget: 1 << 16,
	})
	if runErr != nil {
		errText = runErr.Error()
	} else {
		b, err := d.Mem.ReadBytes(buf, 256)
		if err != nil {
			tb.Fatal(err)
		}
		out = b
	}
	return out, stats, errText, d.Digest()
}

// FuzzXlateDifferential generates random small kernels and requires
// translated and interpreted execution to agree on every observable:
// output memory, LaunchStats, trap text, and the full device digest.
func FuzzXlateDifferential(f *testing.F) {
	f.Add([]byte{0, 1, 2, 7, 8, 11, 3, 15, 9, 12, 0, 1, 13, 2, 3})
	f.Add([]byte{7, 0, 0, 11, 5, 5, 14, 1, 2, 15, 0, 0, 12, 9, 9, 13, 3, 3})
	f.Add(bytes.Repeat([]byte{7, 11, 15}, 12))
	f.Add([]byte{14, 14, 14, 7, 8, 9, 10, 4, 4, 4})
	// Guarded and divergent execution around coalesced accesses: partial
	// exec masks through the row tier's compute-and-merge and the whole-warp
	// memory path.
	f.Add([]byte{7, 1, 5, 8, 2, 3, 9, 4, 1, 13, 2, 0xc5, 11, 0, 0, 5, 1, 2, 12, 3, 0xc1, 6, 2, 4, 15, 0, 0, 12, 1, 0xc9, 10, 3, 3})
	f.Add([]byte{4, 1, 1, 7, 3, 2, 11, 0, 0, 13, 1, 0xd0, 2, 1, 4, 11, 0, 0, 12, 2, 0xc2, 15, 0, 0, 8, 5, 5, 15, 0, 0, 13, 6, 0xc4})
	// Fault-corrupted addresses, unguarded and under divergence.
	f.Add([]byte{13, 1, 0xe0, 1, 2, 3})
	f.Add([]byte{0, 0xff, 0, 12, 0, 0xe3, 1, 1, 1})
	f.Add([]byte{7, 1, 2, 11, 0, 0, 12, 2, 0xf1, 15, 0, 0, 13, 3, 0xe7, 3, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 || len(data) > 256 {
			t.Skip()
		}
		src := fuzzProgram(data)
		refOut, refStats, refErr, refDig := runFuzzKernel(t, src, true)
		gotOut, gotStats, gotErr, gotDig := runFuzzKernel(t, src, false)
		if refErr != gotErr {
			t.Fatalf("error mismatch:\ninterpreted %q\ntranslated  %q\nprogram:\n%s", refErr, gotErr, src)
		}
		if !reflect.DeepEqual(refStats, gotStats) {
			t.Fatalf("stats mismatch:\ninterpreted %+v\ntranslated  %+v\nprogram:\n%s", refStats, gotStats, src)
		}
		if !bytes.Equal(refOut, gotOut) {
			t.Fatalf("output mismatch\nprogram:\n%s", src)
		}
		if refDig != gotDig {
			t.Fatalf("digest mismatch: interpreted %#x translated %#x\nprogram:\n%s", refDig, gotDig, src)
		}
	})
}
