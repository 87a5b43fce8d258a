package gpu

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestRowAsmHygiene reads rowops_amd64.s as text — on every platform, the
// file need not be built — and enforces the rules its header states:
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
}
