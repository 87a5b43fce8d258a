package sassan

import (
	"fmt"

	"repro/internal/sass"
)

// Severity grades a diagnostic. Errors describe code the simulator would
// trap or panic on (or that makes tooling ambiguous); warnings describe
// legal but suspicious code.
type Severity uint8

// Severities.
const (
	SevWarning Severity = iota + 1
	SevError
)

func (s Severity) String() string {
	switch s {
	case SevWarning:
		return "warning"
	case SevError:
		return "error"
	default:
		return fmt.Sprintf("Severity(%d)", uint8(s))
	}
}

// Code identifies a diagnostic class.
type Code uint8

// Diagnostic classes.
const (
	// CodeBadRegister: a register index outside the architectural file — a
	// predicate beyond P6/PT, or a multi-register destination span that
	// collides with RZ or wraps around the register file.
	CodeBadRegister Code = iota + 1
	// CodeBadBranchTarget: a direct control transfer without a label
	// operand, or whose resolved target lies outside the kernel.
	CodeBadBranchTarget
	// CodeFallOffEnd: a reachable path transfers control past the last
	// instruction without an EXIT (a bad-PC trap at run time).
	CodeFallOffEnd
	// CodeUnreachable: a basic block no path from the entry reaches.
	CodeUnreachable
	// CodeUndefinedRead: a register or predicate read on every path before
	// any instruction may have written it (reads architectural zero).
	CodeUndefinedRead
	// CodeDeadWrite: an instruction whose written registers are all dead —
	// never read again on any path.
	CodeDeadWrite
	// CodeDuplicateKernel: two kernels in one module share a name, making
	// name-based lookups ambiguous.
	CodeDuplicateKernel
)

func (c Code) String() string {
	switch c {
	case CodeBadRegister:
		return "bad-register"
	case CodeBadBranchTarget:
		return "bad-branch-target"
	case CodeFallOffEnd:
		return "fall-off-end"
	case CodeUnreachable:
		return "unreachable"
	case CodeUndefinedRead:
		return "undefined-read"
	case CodeDeadWrite:
		return "dead-write"
	case CodeDuplicateKernel:
		return "duplicate-kernel"
	default:
		return fmt.Sprintf("Code(%d)", uint8(c))
	}
}

// Diagnostic is one verifier finding.
type Diagnostic struct {
	// Kernel names the kernel; empty for module-level findings.
	Kernel string
	// Instr is the instruction index, or -1 for kernel- or module-level
	// findings.
	Instr int
	Sev   Severity
	Code  Code
	Msg   string
}

// String renders e.g. "saxpy:#3: error: bad-branch-target: ...".
func (d Diagnostic) String() string {
	loc := d.Kernel
	if loc == "" {
		loc = "<module>"
	}
	if d.Instr >= 0 {
		loc = fmt.Sprintf("%s:#%d", loc, d.Instr)
	}
	return fmt.Sprintf("%s: %s: %s: %s", loc, d.Sev, d.Code, d.Msg)
}

// HasErrors reports whether any diagnostic is an error.
func HasErrors(diags []Diagnostic) bool {
	for _, d := range diags {
		if d.Sev == SevError {
			return true
		}
	}
	return false
}

// CountWarnings returns the number of warning-severity diagnostics.
func CountWarnings(diags []Diagnostic) int {
	n := 0
	for _, d := range diags {
		if d.Sev == SevWarning {
			n++
		}
	}
	return n
}

// VerifyProgram verifies every kernel of a module and checks module-level
// invariants (unique kernel names).
func VerifyProgram(p *sass.Program) []Diagnostic {
	var diags []Diagnostic
	seen := make(map[string]bool, len(p.Kernels))
	for _, k := range p.Kernels {
		if seen[k.Name] {
			diags = append(diags, Diagnostic{
				Kernel: k.Name, Instr: -1, Sev: SevError, Code: CodeDuplicateKernel,
				Msg: fmt.Sprintf("kernel %q defined more than once in the module", k.Name),
			})
		}
		seen[k.Name] = true
		diags = append(diags, VerifyKernel(k)...)
	}
	return diags
}

// VerifyKernel runs the full static verification of one kernel and returns
// its diagnostics in instruction order.
func VerifyKernel(k *sass.Kernel) []Diagnostic {
	return verifyWith(Analyze(k))
}

// Verify runs the static checks over this prebuilt analysis, so a consumer
// that already paid for Analyze (the campaign's adaptive stratifier) does not
// analyze the kernel a second time.
func (a *Analysis) Verify() []Diagnostic {
	return verifyWith(a)
}

// verifyWith performs the checks over a prebuilt analysis.
func verifyWith(a *Analysis) []Diagnostic {
	k := a.Kernel
	n := len(k.Instrs)
	var diags []Diagnostic
	add := func(i int, sev Severity, code Code, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Kernel: k.Name, Instr: i, Sev: sev, Code: code,
			Msg: fmt.Sprintf(format, args...),
		})
	}

	// Per-instruction shape checks.
	for i := range k.Instrs {
		in := &k.Instrs[i]
		checkPreds(in, func(p sass.PredID, where string) {
			add(i, SevError, CodeBadRegister,
				"%s predicate P%d outside the predicate file (P0..P6, PT)", where, p)
		})
		checkDestSpan(in, func(base sass.RegID, span int) {
			add(i, SevError, CodeBadRegister,
				"destination span %s..+%d overflows the register file", base, span-1)
		})
		switch in.Op.Info().Sem {
		case sass.SemBra, sass.SemJmp, sass.SemCall:
			t := branchTarget(in)
			switch {
			case t < 0:
				add(i, SevError, CodeBadBranchTarget,
					"%s target is not a resolved label", in.Op)
			case t >= n:
				add(i, SevError, CodeBadBranchTarget,
					"%s target %d outside instructions 0..%d", in.Op, t, n-1)
			}
		}
	}

	// Control-flow checks.
	if i, ok := a.CFG.FallsOffEnd(); ok {
		add(i, SevError, CodeFallOffEnd,
			"execution can fall past the last instruction without EXIT")
	}
	for _, b := range a.CFG.Blocks {
		if !a.CFG.Reachable[b.Start] {
			add(b.Start, SevWarning, CodeUnreachable,
				"block #%d..#%d is unreachable from the kernel entry", b.Start, b.End-1)
		}
	}

	// Dataflow checks over reachable instructions only.
	mayGP, mayPR := a.mayWritten()
	for i := range k.Instrs {
		if !a.CFG.Reachable[i] {
			continue
		}
		du := &a.DU[i]
		if miss := du.GPReads.Minus(mayGP[i]); !miss.Empty() {
			add(i, SevWarning, CodeUndefinedRead,
				"reads %s before any write reaches it (value is zero)", miss)
		}
		if miss := du.PRReads.Minus(mayPR[i]); !miss.Empty() {
			add(i, SevWarning, CodeUndefinedRead,
				"reads %s before any write reaches it (value is false)", miss)
		}
		if du.GPWrites.Empty() && du.PRWrites.Empty() {
			continue
		}
		if !du.GPWrites.Intersects(a.LiveOutGP[i]) && !du.PRWrites.Intersects(a.LiveOutPR[i]) {
			add(i, SevWarning, CodeDeadWrite,
				"destination%s %s never read on any path", plural(du),
				writesString(du))
		}
	}
	return diags
}

func plural(du *DefUse) string {
	n := len(du.GPWrites.Regs()) + len(du.PRWrites.Preds())
	if n > 1 {
		return "s"
	}
	return ""
}

func writesString(du *DefUse) string {
	switch {
	case du.GPWrites.Empty():
		return du.PRWrites.String()
	case du.PRWrites.Empty():
		return du.GPWrites.String()
	default:
		return du.GPWrites.String() + du.PRWrites.String()
	}
}

// checkPreds reports predicate indexes outside the architectural file,
// which the executor would index out of bounds.
func checkPreds(in *sass.Instr, report func(p sass.PredID, where string)) {
	if in.Guard.Pred >= sass.NumPreds {
		report(in.Guard.Pred, "guard")
	}
	for i := range in.Dst {
		if in.Dst[i].Kind == sass.OpdPred && in.Dst[i].Pred.Pred >= sass.NumPreds {
			report(in.Dst[i].Pred.Pred, "destination")
		}
	}
	for i := range in.Src {
		if in.Src[i].Kind == sass.OpdPred && in.Src[i].Pred.Pred >= sass.NumPreds {
			report(in.Src[i].Pred.Pred, "source")
		}
	}
}

// checkDestSpan reports multi-register destinations whose span collides
// with RZ or wraps around the register file: the executor would silently
// skip or wrap those writes, and the injector's fault-target expansion
// wraps the same way.
func checkDestSpan(in *sass.Instr, report func(base sass.RegID, span int)) {
	for i := range in.Dst {
		d := &in.Dst[i]
		if d.Kind != sass.OpdReg || d.Reg == sass.RZ {
			continue
		}
		span := destSpan(in)
		// The injector's fault-target expansion can be wider than the
		// execution write span (LDC's width modifier); check the maximum.
		if in.Op.Info().Sem == sass.SemLdc {
			switch in.Mods.MemWidth() {
			case 8:
				span = max(span, 2)
			case 16:
				span = max(span, 4)
			}
		}
		if span > 1 && int(d.Reg)+span-1 >= int(sass.RZ) {
			report(d.Reg, span)
		}
		break // only Dst[0] carries a span
	}
}

// mayWritten computes, per instruction, the registers some path from the
// entry may have written before it executes — the forward may-write
// analysis behind the undefined-read diagnostic. Guarded writes count:
// "may" is the conservative direction for suppressing false positives.
func (a *Analysis) mayWritten() ([]RegSet, []PredSet) {
	n := a.CFG.N
	mayGP := make([]RegSet, n)
	mayPR := make([]PredSet, n)
	for changed := true; changed; {
		changed = false
		for i := 0; i < n; i++ {
			if !a.CFG.Reachable[i] {
				continue
			}
			outGP := mayGP[i]
			outGP.Union(a.DU[i].GPWrites)
			outPR := mayPR[i] | a.DU[i].PRWrites
			propagate := func(s int) {
				if s >= n {
					return
				}
				ng := mayGP[s]
				ng.Union(outGP)
				np := mayPR[s] | outPR
				if ng != mayGP[s] || np != mayPR[s] {
					mayGP[s] = ng
					mayPR[s] = np
					changed = true
				}
			}
			if a.CFG.Indirect[i] {
				for s := 0; s < n; s++ {
					propagate(s)
				}
				continue
			}
			for _, s := range a.CFG.Succs[i] {
				propagate(s)
			}
		}
	}
	return mayGP, mayPR
}
