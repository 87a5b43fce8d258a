// Package gpu is an architectural SIMT simulator for the SASS-like ISA in
// internal/sass: streaming multiprocessors, 32-lane warps with divergence
// and reconvergence, global/shared/local memory with alignment and bounds
// checking, kernel launches, and per-instruction instrumentation hooks.
//
// The simulator is deliberately *architectural*, not microarchitectural:
// it models exactly the state the paper's fault model corrupts (destination
// registers of dynamic instructions) and the failure modes its outcome
// taxonomy observes (illegal/misaligned addresses, hangs, breakpoints).
// Execution is fully deterministic so that an injection run replays the
// profiled instruction stream bit-for-bit.
package gpu

import (
	"errors"
	"fmt"
)

// TrapKind classifies a GPU execution trap.
type TrapKind uint8

// Trap kinds. Values start at one.
const (
	TrapInvalidInstruction TrapKind = iota + 1 // opcode not executable / corrupt encoding
	TrapIllegalAddress                         // access to unallocated memory
	TrapMisaligned                             // address not aligned to access width
	TrapBadPC                                  // control transfer outside the kernel
	TrapCallStack                              // RET with empty call stack / overflow
	TrapBreakpoint                             // BPT: device-side assertion
	TrapInstrLimit                             // launch instruction budget exceeded (hang)
	TrapSharedBounds                           // shared-memory access out of window
	TrapLocalBounds                            // local-memory access out of window
	TrapCancelled                              // host context cancelled the launch
)

var trapNames = [...]string{
	TrapInvalidInstruction: "invalid instruction",
	TrapIllegalAddress:     "illegal address",
	TrapMisaligned:         "misaligned address",
	TrapBadPC:              "illegal instruction address",
	TrapCallStack:          "call stack error",
	TrapBreakpoint:         "device breakpoint",
	TrapInstrLimit:         "instruction limit exceeded",
	TrapSharedBounds:       "shared memory out of bounds",
	TrapLocalBounds:        "local memory out of bounds",
	TrapCancelled:          "launch cancelled",
}

func (k TrapKind) String() string {
	if int(k) < len(trapNames) && k >= TrapInvalidInstruction {
		return trapNames[k]
	}
	return fmt.Sprintf("TrapKind(%d)", uint8(k))
}

// Trap is the error returned when a kernel faults. It is the analog of a
// CUDA device exception: sticky on the context, non-fatal to the host
// process unless the host checks for it.
type Trap struct {
	Kind   TrapKind
	Kernel string
	PC     int
	SMID   int
	Addr   uint32 // faulting address, when meaningful
	Detail string
}

// Error implements error.
func (t *Trap) Error() string {
	s := fmt.Sprintf("gpu trap: %s in kernel %q at pc %d (SM %d)", t.Kind, t.Kernel, t.PC, t.SMID)
	if t.Kind == TrapIllegalAddress || t.Kind == TrapMisaligned {
		s += fmt.Sprintf(", address 0x%x", t.Addr)
	}
	if t.Detail != "" {
		s += ": " + t.Detail
	}
	return s
}

// IsHang reports whether the trap indicates a non-terminating kernel.
func (t *Trap) IsHang() bool { return t.Kind == TrapInstrLimit }

// AsTrap extracts a *Trap from an error chain. The engine returns its traps
// unwrapped and most launches return no error at all, so both are answered
// before errors.As (whose target must live on the heap) is involved.
func AsTrap(err error) (*Trap, bool) {
	if err == nil {
		return nil, false
	}
	if t, ok := err.(*Trap); ok {
		return t, true
	}
	var t *Trap
	if errors.As(err, &t) {
		return t, true
	}
	return nil, false
}
