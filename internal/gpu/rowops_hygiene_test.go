package gpu

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestRowAsmHygiene reads rowops_amd64.s and rowprog_amd64.s as text — on
// every platform, the files need not be built — and enforces the rules their
// headers state. For the kernels:
//
//   - no legacy-SSE (non-VEX) instruction names an X or Y register — with
//     dirty upper halves one such instruction costs a state transition on
//     every call — including through a macro parameter used as a mnemonic;
//   - in a function that uses a Y register, directly or through a macro,
//     every RET directly follows VZEROUPPER;
//   - no macro produces a TEXT symbol or a RET, no macro reads an argument
//     off the frame, so go vet's asmdecl sees every declaration and every
//     argument access;
//   - every TEXT symbol has a body-less Go declaration in rowops_amd64.go
//     carrying //go:noescape, and the other way round.
//
// For the dispatcher, see checkDispatcherAsm.
func TestRowAsmHygiene(t *testing.T) {
	src, err := os.ReadFile("rowops_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	stubs, err := os.ReadFile("rowops_amd64.go")
	if err != nil {
		t.Fatal(err)
	}

	var (
		vecReg    = regexp.MustCompile(`\b[XY]([0-9]|1[0-5])\b`)
		yReg      = regexp.MustCompile(`\bY([0-9]|1[0-5])\b`)
		defineRE  = regexp.MustCompile(`^#define\s+(\w+)(\(([^)]*)\))?`)
		headRE    = regexp.MustCompile(`^\w+`)
		textRE    = regexp.MustCompile(`^TEXT\s+·(\w+)\(SB\)`)
		invokeRE  = regexp.MustCompile(`^(\w+)(\(|$)`)
		frameRE   = regexp.MustCompile(`\w\+\d+\(FP\)`)
		stubRE    = regexp.MustCompile(`(?m)^(//go:noescape\n)?func (\w+)\([^)]*\)[^{\n]*$`)
		macroUseY = map[string]bool{}
		macroBody = map[string][]string{}
		// macroOps[m] lists the positions of m's parameters that stand where
		// a mnemonic does in its body.
		macroParams = map[string][]string{}
		macroOps    = map[string][]int{}
	)

	// Split into logical statements: comments stripped, continuation lines of
	// a #define attributed to it, ';' separating statements.
	type stmt struct {
		line  int
		text  string
		macro string // the #define this statement is part of, if any
	}
	var stmts []stmt
	inDefine := ""
	for i, raw := range strings.Split(string(src), "\n") {
		line := raw
		if j := strings.Index(line, "//"); j >= 0 {
			line = line[:j]
		}
		cont := strings.HasSuffix(strings.TrimSpace(line), `\`)
		line = strings.TrimSuffix(strings.TrimSpace(line), `\`)
		macro := inDefine
		if m := defineRE.FindStringSubmatch(line); m != nil {
			macro, line = m[1], line[len(m[0]):]
			for _, p := range strings.Split(m[3], ",") {
				macroParams[macro] = append(macroParams[macro], strings.TrimSpace(p))
			}
		}
		for _, s := range strings.Split(line, ";") {
			if s = strings.TrimSpace(s); s != "" {
				stmts = append(stmts, stmt{i + 1, s, macro})
				if macro != "" {
					macroBody[macro] = append(macroBody[macro], s)
				}
			}
		}
		if inDefine = ""; cont {
			inDefine = macro
		}
	}

	var usesY func(s string, depth int) bool
	usesY = func(s string, depth int) bool {
		if yReg.MatchString(s) {
			return true
		}
		m := invokeRE.FindStringSubmatch(s)
		if m == nil || depth > 8 {
			return false
		}
		if v, ok := macroUseY[m[1]]; ok {
			return v
		}
		for _, b := range macroBody[m[1]] {
			if usesY(b, depth+1) {
				macroUseY[m[1]] = true
				return true
			}
		}
		return false
	}

	texts := map[string]bool{}
	fn, fnUsesY, prev := "", false, ""
	var rets []stmt // the current function's RETs not preceded by VZEROUPPER
	flush := func() {
		if fnUsesY {
			for _, r := range rets {
				t.Errorf("line %d: %s uses Y registers and returns without VZEROUPPER", r.line, fn)
			}
		}
		rets, fnUsesY = nil, false
	}
	for _, s := range stmts {
		mnemonic := headRE.FindString(s.text)
		if i := slices.Index(macroParams[s.macro], mnemonic); s.macro != "" && i >= 0 && !slices.Contains(macroOps[s.macro], i) {
			macroOps[s.macro] = append(macroOps[s.macro], i)
		}
	}
	for _, s := range stmts {
		mnemonic := headRE.FindString(s.text)
		if ops := macroOps[mnemonic]; ops != nil {
			// An invocation: the arguments standing for mnemonics are checked
			// here, the rest of the body where it is defined.
			args := strings.Split(strings.TrimSuffix(s.text[strings.Index(s.text, "(")+1:], ")"), ",")
			for _, i := range ops {
				arg := strings.TrimSpace(args[i])
				if !strings.HasPrefix(arg, "V") && !slices.Contains(macroParams[s.macro], arg) {
					t.Errorf("line %d: %s applies the legacy-SSE instruction %s to vector registers", s.line, mnemonic, arg)
				}
			}
		}
		if s.macro != "" {
			if mnemonic == "TEXT" || mnemonic == "RET" {
				t.Errorf("line %d: macro %s produces a %s", s.line, s.macro, mnemonic)
			}
			if frameRE.MatchString(s.text) {
				t.Errorf("line %d: macro %s reads the frame; asmdecl cannot check it", s.line, s.macro)
			}
		}
		if vecReg.MatchString(s.text) && !strings.HasPrefix(mnemonic, "V") && macroBody[mnemonic] == nil &&
			!slices.Contains(macroParams[s.macro], mnemonic) {
			t.Errorf("line %d: legacy-SSE instruction on a vector register: %s", s.line, s.text)
		}
		if s.macro != "" {
			continue
		}
		if m := textRE.FindStringSubmatch(s.text); m != nil {
			flush()
			fn, prev = m[1], ""
			texts[fn] = true
			continue
		}
		if mnemonic == "TEXT" {
			t.Errorf("line %d: TEXT symbol not written out: %s", s.line, s.text)
		}
		if fn == "" {
			continue
		}
		if usesY(s.text, 0) {
			fnUsesY = true
		}
		if mnemonic == "RET" && prev != "VZEROUPPER" {
			rets = append(rets, s)
		}
		prev = mnemonic
	}
	flush()
	if len(texts) < 30 {
		t.Fatalf("parsed only %d TEXT symbols", len(texts))
	}

	declared := map[string]bool{}
	for _, m := range stubRE.FindAllStringSubmatch(string(stubs), -1) {
		declared[m[2]] = true
		if m[1] == "" {
			t.Errorf("assembly stub %s lacks //go:noescape", m[2])
		}
		if !texts[m[2]] {
			t.Errorf("stub %s has no TEXT symbol in rowops_amd64.s", m[2])
		}
	}
	for name := range texts {
		if !declared[name] {
			t.Errorf("TEXT ·%s has no body-less declaration in rowops_amd64.go", name)
		}
	}
	checkDispatcherAsm(t, string(src), declared)
}

// kernelRegs is the clobber set of the row kernels: the only general
// registers rowops_amd64.s may name (beside the X/Y vectors and the SP / FP /
// SB pseudo-registers). The row-program dispatcher keeps its state across a
// kernel CALL in dispatcherRegs, so the two sets must stay disjoint.
var (
	kernelRegs     = []string{"AX", "BX", "CX", "DX", "SI", "DI", "R8"}
	dispatcherRegs = []string{"R9", "R10", "R11", "R12", "R13"}
)

// dispatcherTypes are the types whose go_asm.h field offsets the dispatcher
// may read: its ops, the warp and block slot they execute on, the plan, the
// tally, and the allocation table of a global access's fast path.
var dispatcherTypes = []string{"rowOp", "rowOperand", "rowPred", "warp", "blockCtx", "xplan", "SiteTally", "alloc"}

// checkDispatcherAsm reads rowprog_amd64.s as text and enforces the rules its
// header states, against the kernels' source and their Go declarations:
//
//   - a kernel names no general register outside kernelRegs; the dispatcher
//     none outside kernelRegs and dispatcherRegs (so never BP, R14 or R15) and
//     no X or Y register at all — it owes no VZEROUPPER;
//   - the dispatcher takes struct layout from go_asm.h: no displacement off a
//     general register is a bare number, and every name in one is a field of
//     a type in dispatcherTypes, a const_ name, or one of the file's own
//     #defines and macro parameters;
//   - every symbol it CALLs or lists in a DATA table is declared in
//     rowops_amd64.go, its own TEXT symbol in rowprog_amd64.go, and the
//     rowKernels table covers exactly the ops of rowVectorOps.
func checkDispatcherAsm(t *testing.T, kernels string, declared map[string]bool) {
	t.Helper()
	raw, err := os.ReadFile("rowprog_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	var (
		commentRE = regexp.MustCompile(`//.*`)
		regRE     = regexp.MustCompile(`\b(AX|BX|CX|DX|SI|DI|BP|R8|R9|R1[0-5])\b`)
		vecRE     = regexp.MustCompile(`\b[XY]([0-9]|1[0-5])\b`)
		dispRE    = regexp.MustCompile(`([^\s,;(]*)\((AX|BX|CX|DX|SI|DI|BP|R8|R9|R1[0-5])\)`)
		numRE     = regexp.MustCompile(`^-?[0-9]+$`)
		identRE   = regexp.MustCompile(`[A-Za-z_]\w*`)
		symRE     = regexp.MustCompile(`(?:CALL\s+|\$)·(\w+)\(SB\)`)
		textRE    = regexp.MustCompile(`(?m)^TEXT\s+·(\w+)\(SB\)`)
		kernRE    = regexp.MustCompile(`(?m)^DATA rowKernels<>\+\(const_(fop\w+)\*8\)\(SB\)/8, \$·(\w+)\(SB\)`)
	)
	dispatcher := commentRE.ReplaceAllString(string(raw), "")
	kernels = commentRE.ReplaceAllString(kernels, "")

	for _, r := range regRE.FindAllString(kernels, -1) {
		if !slices.Contains(kernelRegs, r) {
			t.Errorf("rowops_amd64.s names %s: the dispatcher may hold state there across a CALL (kernels may name only %v)", r, kernelRegs)
		}
	}
	for _, r := range regRE.FindAllString(dispatcher, -1) {
		if !slices.Contains(kernelRegs, r) && !slices.Contains(dispatcherRegs, r) {
			t.Errorf("rowprog_amd64.s names %s: outside the kernels' clobber set %v and its own registers %v", r, kernelRegs, dispatcherRegs)
		}
	}
	if v := vecRE.FindString(dispatcher); v != "" {
		t.Errorf("rowprog_amd64.s names the vector register %s: the dispatcher has no VZEROUPPER", v)
	}
	local := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^#define\s+(\w+)(?:\(([^)]*)\))?`).FindAllStringSubmatch(dispatcher, -1) {
		local[m[1]] = true
		for _, p := range strings.Split(m[2], ",") {
			local[strings.TrimSpace(p)] = true
		}
	}
	for _, m := range dispRE.FindAllStringSubmatch(dispatcher, -1) {
		if numRE.MatchString(m[1]) {
			t.Errorf("rowprog_amd64.s: %s is a numeric displacement off %s; struct layout comes from go_asm.h names", m[0], m[2])
		}
		for _, name := range identRE.FindAllString(m[1], -1) {
			typ, _, field := strings.Cut(name, "_")
			if !local[name] && typ != "const" && !(field && slices.Contains(dispatcherTypes, typ)) {
				t.Errorf("rowprog_amd64.s: %s reads %s, not a field of %v from go_asm.h", m[0], name, dispatcherTypes)
			}
		}
	}

	for _, m := range symRE.FindAllStringSubmatch(dispatcher, -1) {
		if !declared[m[1]] {
			t.Errorf("rowprog_amd64.s refers to ·%s, which rowops_amd64.go does not declare", m[1])
		}
	}
	stubs, err := os.ReadFile("rowprog_amd64.go")
	if err != nil {
		t.Fatal(err)
	}
	texts := textRE.FindAllStringSubmatch(dispatcher, -1)
	if len(texts) != 1 {
		t.Fatalf("rowprog_amd64.s defines %d TEXT symbols, want the dispatcher alone", len(texts))
	}
	if !regexp.MustCompile(`(?m)^//go:noescape\nfunc ` + texts[0][1] + `\(`).Match(stubs) {
		t.Errorf("TEXT ·%s has no //go:noescape declaration in rowprog_amd64.go", texts[0][1])
	}

	// fastOp values by name, read off the const block: the table is indexed by
	// go_asm.h's const_fop* names.
	fast, err := os.ReadFile("xlate_fast.go")
	if err != nil {
		t.Fatal(err)
	}
	block := regexp.MustCompile(`(?s)fopAdd fastOp = iota.*?numFastOps`).FindString(commentRE.ReplaceAllString(string(fast), ""))
	names := regexp.MustCompile(`\bfop\w+`).FindAllString(block, -1)
	if len(names) != int(numFastOps) {
		t.Fatalf("read %d fastOp names off xlate_fast.go, want %d", len(names), numFastOps)
	}
	inTable := make([]bool, numFastOps)
	for _, m := range kernRE.FindAllStringSubmatch(string(raw), -1) {
		i := slices.Index(names, m[1])
		if i < 0 {
			t.Fatalf("rowKernels entry for unknown op %s", m[1])
		}
		inTable[i] = true
	}
	for i, name := range names {
		if inTable[i] != rowVectorOps[i] {
			t.Errorf("%s: in the dispatcher's kernel table: %v, in rowVectorOps: %v", name, inTable[i], rowVectorOps[i])
		}
	}
}
