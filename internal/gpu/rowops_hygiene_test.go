package gpu

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/sass"
)

// asmStmt is one statement of an assembly file: comments stripped, the
// continuation lines of a #define attributed to it, ';' separating statements.
type asmStmt struct {
	file  string
	line  int
	text  string
	macro string // the #define this statement is part of, if any
}

// asmMacros collects the #defines of every file parsed into it: their bodies,
// and the names of their parameters.
type asmMacros struct {
	body   map[string][]string
	params map[string][]string
}

var (
	asmDefineRE = regexp.MustCompile(`^#define\s+(\w+)(\(([^)]*)\))?`)
	asmWordRE   = regexp.MustCompile(`^\w+`)
	asmTextRE   = regexp.MustCompile(`^TEXT\s+(·\w+|\w+<>)\(SB\)`)
	asmRegRE    = regexp.MustCompile(`\b(AX|BX|CX|DX|SI|DI|BP|R8|R9|R1[0-5])\b`)
	asmYRegRE   = regexp.MustCompile(`\bY([0-9]|1[0-5])\b`)
	asmVecRE    = regexp.MustCompile(`\b[XY]([0-9]|1[0-5])\b`)
)

func parseAsm(t *testing.T, name string, m *asmMacros) []asmStmt {
	t.Helper()
	src, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	var stmts []asmStmt
	inDefine := ""
	for i, raw := range strings.Split(string(src), "\n") {
		line := raw
		if j := strings.Index(line, "//"); j >= 0 {
			line = line[:j]
		}
		cont := strings.HasSuffix(strings.TrimSpace(line), `\`)
		line = strings.TrimSuffix(strings.TrimSpace(line), `\`)
		macro := inDefine
		if d := asmDefineRE.FindStringSubmatch(line); d != nil {
			macro, line = d[1], line[len(d[0]):]
			m.body[macro] = nil
			for _, p := range strings.Split(d[3], ",") {
				if p = strings.TrimSpace(p); p != "" {
					m.params[macro] = append(m.params[macro], p)
				}
			}
		}
		for _, s := range strings.Split(line, ";") {
			if s = strings.TrimSpace(s); s != "" {
				stmts = append(stmts, asmStmt{name, i + 1, s, macro})
				if macro != "" {
					m.body[macro] = append(m.body[macro], s)
				}
			}
		}
		if inDefine = ""; cont {
			inDefine = macro
		}
	}
	return stmts
}

// asmMnemonic returns a statement's first word — its mnemonic, or the macro
// it invokes — or "" for a label.
func asmMnemonic(s string) string {
	w := asmWordRE.FindString(s)
	if strings.HasPrefix(s[len(w):], ":") {
		return ""
	}
	return w
}

// expand returns s and the bodies of the macros it invokes, recursively (the
// parameters left unsubstituted: the arguments are in s itself).
func (m *asmMacros) expand(s string) []string {
	out := []string{s}
	for depth, todo := 0, []string{s}; len(todo) > 0 && depth < 8; depth++ {
		var next []string
		for _, s := range todo {
			if body, ok := m.body[asmMnemonic(s)]; ok {
				out = append(out, body...)
				next = append(next, body...)
			}
		}
		todo = next
	}
	return out
}

// asmFuncs groups the statements outside macros by the TEXT symbol they
// belong to, in file order.
type asmFunc struct {
	name  string
	stmts []asmStmt
}

func asmFuncs(stmts []asmStmt) []asmFunc {
	var fns []asmFunc
	for _, s := range stmts {
		if s.macro != "" {
			continue
		}
		if m := asmTextRE.FindStringSubmatch(s.text); m != nil {
			fns = append(fns, asmFunc{name: strings.TrimPrefix(m[1], "·")})
			continue
		}
		if len(fns) > 0 {
			fns[len(fns)-1].stmts = append(fns[len(fns)-1].stmts, s)
		}
	}
	return fns
}

// TestRowAsmHygiene reads the row kernels' header (rowops_amd64.h), the
// Go-callable kernels (rowops_amd64.s) and the dispatcher with its handlers
// (rowprog_amd64.s) as text — on every platform, the files need not be built
// — and enforces the rules their headers state. Everywhere:
//
//   - no legacy-SSE (non-VEX) instruction names an X or Y register — with
//     dirty upper halves one such instruction costs a state transition on
//     every call — including through a macro parameter used as a mnemonic;
//   - no macro produces a TEXT symbol, a RET or a VZEROUPPER, and none reads
//     an argument off the frame, so go vet's asmdecl sees every declaration
//     and every argument access;
//   - the kernel bodies and the Go-callable kernels name no general register
//     outside kernelRegs, the registers of the convention.
//
// A macro may be passed as an argument standing for a mnemonic (the MUFU
// handlers' MUFUROW(SIN4)); expand follows it like any invocation.
//
// For the Go-callable kernels: in a function that uses a Y register,
// directly or through a macro, every RET directly follows VZEROUPPER; every
// TEXT symbol has a body-less Go declaration in rowops_amd64.go carrying
// //go:noescape, and the other way round; the file defines exactly the
// kernels Go runs outside the dispatcher (the CPU probes, broadcast, mask
// expansion, merge, the two negations, the stride test and the four masked
// moves); and none of them expands an ALU or compare body, which only the
// dispatcher's handlers enter. For the dispatcher, see checkDispatcherAsm.
func TestRowAsmHygiene(t *testing.T) {
	macros := &asmMacros{body: map[string][]string{}, params: map[string][]string{}}
	header := parseAsm(t, "rowops_amd64.h", macros)
	kernels := parseAsm(t, "rowops_amd64.s", macros)
	dispatcher := parseAsm(t, "rowprog_amd64.s", macros)
	stubs, err := os.ReadFile("rowops_amd64.go")
	if err != nil {
		t.Fatal(err)
	}

	// macroOps[m] lists the positions of m's parameters that stand where a
	// mnemonic does in its body.
	macroOps := map[string][]int{}
	all := slices.Concat(header, kernels, dispatcher)
	for _, s := range all {
		mnemonic := asmMnemonic(s.text)
		if i := slices.Index(macros.params[s.macro], mnemonic); s.macro != "" && i >= 0 && !slices.Contains(macroOps[s.macro], i) {
			macroOps[s.macro] = append(macroOps[s.macro], i)
		}
	}
	frameRE := regexp.MustCompile(`\w\+\d+\(FP\)`)
	for _, s := range all {
		mnemonic := asmMnemonic(s.text)
		if ops := macroOps[mnemonic]; ops != nil {
			// An invocation: the arguments standing for mnemonics are checked
			// here, the rest of the body where it is defined. An argument may
			// name a macro, whose body is checked where it is defined.
			args := strings.Split(strings.TrimSuffix(s.text[strings.Index(s.text, "(")+1:], ")"), ",")
			for _, i := range ops {
				arg := strings.TrimSpace(args[i])
				_, isMacro := macros.body[arg]
				if !strings.HasPrefix(arg, "V") && !isMacro && !slices.Contains(macros.params[s.macro], arg) {
					t.Errorf("%s:%d: %s applies the legacy-SSE instruction %s to vector registers", s.file, s.line, mnemonic, arg)
				}
			}
		}
		if s.macro != "" {
			if mnemonic == "TEXT" || mnemonic == "RET" || mnemonic == "VZEROUPPER" {
				t.Errorf("%s:%d: macro %s produces a %s", s.file, s.line, s.macro, mnemonic)
			}
			if frameRE.MatchString(s.text) {
				t.Errorf("%s:%d: macro %s reads the frame; asmdecl cannot check it", s.file, s.line, s.macro)
			}
		}
		_, isMacro := macros.body[mnemonic]
		if asmVecRE.MatchString(s.text) && !strings.HasPrefix(mnemonic, "V") && !isMacro &&
			!slices.Contains(macros.params[s.macro], mnemonic) {
			t.Errorf("%s:%d: legacy-SSE instruction on a vector register: %s", s.file, s.line, s.text)
		}
		if mnemonic == "TEXT" && asmTextRE.FindString(s.text) == "" {
			t.Errorf("%s:%d: TEXT symbol not written out: %s", s.file, s.line, s.text)
		}
	}
	for _, s := range slices.Concat(header, kernels) {
		for _, r := range asmRegRE.FindAllString(s.text, -1) {
			if !slices.Contains(kernelRegs, r) {
				t.Errorf("%s:%d names %s: the dispatcher holds state there across a handler (kernels may name only %v)", s.file, s.line, r, kernelRegs)
			}
		}
	}

	usesY := func(s string) bool {
		return slices.ContainsFunc(macros.expand(s), asmYRegRE.MatchString)
	}
	texts := map[string]bool{}
	for _, fn := range asmFuncs(kernels) {
		texts[fn.name] = true
		fnUsesY, prev := false, ""
		var rets []asmStmt // RETs not preceded by VZEROUPPER
		for _, s := range fn.stmts {
			mnemonic := asmMnemonic(s.text)
			fnUsesY = fnUsesY || usesY(s.text)
			if mnemonic == "RET" && prev != "VZEROUPPER" {
				rets = append(rets, s)
			}
			prev = mnemonic
		}
		for _, r := range rets {
			if fnUsesY {
				t.Errorf("%s:%d: %s uses Y registers and returns without VZEROUPPER", r.file, r.line, fn.name)
			}
		}
	}
	want := []string{"cpuHasAVX2", "ymmUpperInUse", "rowBroadcastAVX2", "rowExpandMaskAVX2", "rowMergeAVX2",
		"rowNegIntAVX2", "rowNegFloatAVX2", "rowStrideDiffAVX2", "rowLoad32AVX2", "rowStore32AVX2",
		"rowLoad64AVX2", "rowStore64AVX2"}
	for _, name := range want {
		if !texts[name] {
			t.Errorf("rowops_amd64.s lacks TEXT ·%s", name)
		}
	}
	for name := range texts {
		if !slices.Contains(want, name) {
			t.Errorf("rowops_amd64.s defines TEXT ·%s: Go calls no row kernel but %v, the ALU and compare kernels run only inside the dispatcher", name, want)
		}
	}

	declared := map[string]bool{}
	stubRE := regexp.MustCompile(`(?m)^(//go:noescape\n)?func (\w+)\([^)]*\)[^{\n]*$`)
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
	// The ALU and compare bodies are entered only by the dispatcher's
	// handlers: no Go-callable twin expands one.
	inHeader := map[string]bool{}
	for _, s := range header {
		inHeader[s.macro] = true
	}
	bodies := checkDispatcherAsm(t, dispatcher, macros, inHeader)
	if len(bodies) < 11 {
		t.Fatalf("found only %d ALU and compare body macros in the handlers: %v", len(bodies), bodies)
	}
	for _, s := range kernels {
		for _, e := range macros.expand(s.text) {
			if m := asmMnemonic(e); bodies[m] {
				t.Errorf("%s:%d: expands the ALU/compare body %s outside the dispatcher's handlers", s.file, s.line, m)
			}
		}
	}
}

// kernelRegs is the register convention of the row kernels (rowops_amd64.h):
// the only general registers a kernel body names (beside the X/Y vectors and
// the SP / FP / SB pseudo-registers). The row-program dispatcher keeps its
// state across a handler CALL in dispatcherRegs, so the two sets must stay
// disjoint; a handler may read R10 (the warp) and R12 (the op).
var (
	kernelRegs     = []string{"AX", "BX", "CX", "DX", "SI", "DI", "R8"}
	dispatcherRegs = []string{"R9", "R10", "R11", "R12", "R13"}
	handlerReads   = []string{"R10", "R12"}
)

// dispatcherTypes are the types whose go_asm.h field offsets the dispatcher
// may read: its ops, the warp and block slot they execute on, the plan, the
// tally, and the allocation table of a global access's fast path.
var dispatcherTypes = []string{"rowOp", "rowOperand", "rowPred", "warp", "blockCtx", "xplan", "SiteTally", "alloc"}

// checkDispatcherAsm enforces the rules rowprog_amd64.s's header states:
//
//   - the file defines one Go-callable TEXT symbol, the dispatcher, declared
//     with //go:noescape in rowprog_amd64.go; every other one is a file-local
//     handler, reached only from assembly — through the handler table or a
//     handler's tail JMP — and every one is reached;
//   - the handler table covers exactly the shape × kernel (× MUFU function)
//     triples rowOp.handler gives a handler, the trig pairs
//     rowOp.pairHandler gives one, and the two broadcast loads the
//     dispatcher picks at run time, one entry each;
//   - the dispatcher CALLs only through a register, passes nothing on the
//     stack (its outgoing-argument area, 0-39(SP), is never named) and never
//     names rowMergeAVX2;
//   - VZEROUPPER directly precedes every RET of the dispatcher, which has no
//     other exit; no handler has a VZEROUPPER or a CALL, and each ends in a
//     RET or a tail JMP to another handler;
//   - the dispatcher names no general register outside kernelRegs and
//     dispatcherRegs (so never BP, R14 or R15); a handler, its macros
//     included, none outside kernelRegs but a read of R10 or R12 — a memory
//     operand's base, never a destination;
//   - struct layout comes from go_asm.h: no displacement off a general
//     register is a bare number, and every name in one is a field of a type
//     in dispatcherTypes, a const_ name, or one of the file's own #defines
//     and macro parameters.
//
// It returns the ALU and compare body macros: the rowops_amd64.h macros the
// kernel and compare handlers (table entries from rhKern up to rhLd32)
// invoke, less those the move and global-access handlers invoke too.
func checkDispatcherAsm(t *testing.T, stmts []asmStmt, macros *asmMacros, inHeader map[string]bool) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile("rowprog_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	src := regexp.MustCompile(`//.*`).ReplaceAllString(string(raw), "")

	fns := asmFuncs(stmts)
	var entry *asmFunc
	handlers := map[string]*asmFunc{}
	for i := range fns {
		if name, local := strings.CutSuffix(fns[i].name, "<>"); local {
			handlers[name] = &fns[i]
		} else if entry != nil {
			t.Errorf("rowprog_amd64.s defines the Go-callable %s beside %s: a handler must be file-local", fns[i].name, entry.name)
		} else {
			entry = &fns[i]
		}
	}
	if entry == nil {
		t.Fatal("rowprog_amd64.s defines no dispatcher")
	}
	stubs, err := os.ReadFile("rowprog_amd64.go")
	if err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`(?m)^//go:noescape\nfunc ` + entry.name + `\(`).Match(stubs) {
		t.Errorf("TEXT ·%s has no //go:noescape declaration in rowprog_amd64.go", entry.name)
	}

	// The handler table, evaluated against the Go constants.
	consts := map[string]int{
		"rhMov": int(rhMov), "rhKern": int(rhKern), "rhCmp": int(rhCmp),
		"rhRcp": int(rhRcp), "rhRsq": int(rhRsq), "rhSqrt": int(rhSqrt),
		"rhI2F": int(rhI2F), "rhI2FU": int(rhI2FU), "rhF2I": int(rhF2I), "rhF2IU": int(rhF2IU),
		"rhSin": int(rhSin), "rhCos": int(rhCos), "rhSinCos": int(rhSinCos), "rhCosSin": int(rhCosSin),
		"rhLd32": int(rhLd32), "rhSt32": int(rhSt32), "rhLd64": int(rhLd64), "rhSt64": int(rhSt64),
		"rhLd32U": int(rhLd32U), "rhLd64U": int(rhLd64U),
	}
	fast, err := os.ReadFile("xlate_fast.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []struct {
		first, last string
		n           int
	}{{"fopAdd fastOp = iota", "numFastOps", int(numFastOps)}, {"fcF  fastCmp = iota", "numFastCmps", int(numFastCmps)}} {
		block := regexp.MustCompile(`(?s)` + regexp.QuoteMeta(b.first) + `.*?` + b.last).FindString(regexp.MustCompile(`//.*`).ReplaceAllString(string(fast), ""))
		names := regexp.MustCompile(`\b(fop|fc)\w+`).FindAllString(block, -1)
		if len(names) != b.n {
			t.Fatalf("read %d names off xlate_fast.go's %s block, want %d", len(names), b.last, b.n)
		}
		for i, name := range names {
			consts[name] = i
		}
	}
	entryRE := regexp.MustCompile(`(?m)^DATA rowHandlers<>\+\((.*)\*8\)\(SB\)/8, \$(\w+)<>\(SB\)$`)
	table := map[int]string{}
	reached := map[string]bool{}
	for _, m := range entryRE.FindAllStringSubmatch(src, -1) {
		at := 0
		for _, term := range strings.Split(strings.Trim(m[1], "()"), "+") {
			v, ok := consts[strings.TrimPrefix(term, "const_")]
			if !ok {
				t.Fatalf("handler table index %s: unknown term %s", m[1], term)
			}
			at += v
		}
		if prev, dup := table[at]; dup {
			t.Errorf("handler table index %d holds %s and %s", at, prev, m[2])
		}
		table[at] = m[2]
		reached[m[2]] = true
		if handlers[m[2]] == nil {
			t.Errorf("handler table index %s names %s<>, not a handler of the file", m[1], m[2])
		}
	}
	// The broadcast loads are the dispatcher's choice at run time, no op's.
	want := map[int]bool{int(rhLd32U): true, int(rhLd64U): true}
	var trig []rowOp
	for shape := rsMov; shape <= rsAtom; shape++ {
		kerns := uint8(numFastOps)
		if shape == rsSetP {
			kerns = uint8(numFastCmps)
		}
		for kern := range kerns {
			for fn := sass.MufuNone; fn <= sass.MufuCos; fn++ {
				op := rowOp{shape: shape, kern: kern, lut: uint8(fn)}
				if op.hand = op.handler(); op.hand != rhNone {
					want[int(op.hand)] = true
					if table[int(op.hand)] == "" {
						t.Errorf("shape %d kernel %d lut %d has handler %d, which the table lacks", shape, kern, fn, op.hand)
					}
				}
				if op.hand == rhSin || op.hand == rhCos {
					op.src[0] = rowOperand{base: rbArena}
					trig = append(trig, op)
				}
			}
		}
	}
	// A trig pair's handler is its first op's, given for the op beside its
	// successor.
	for i := range trig {
		for j := range trig {
			if h := trig[i].pairHandler(&trig[j]); h != rhNone {
				want[int(h)] = true
				if table[int(h)] == "" {
					t.Errorf("the pair of handlers %d and %d has handler %d, which the table lacks", trig[i].hand, trig[j].hand, h)
				}
			}
		}
	}
	for at, name := range table {
		if !want[at] {
			t.Errorf("handler table index %d (%s<>) is no op's handler", at, name)
		}
	}
	if len(want) < 40 {
		t.Fatalf("only %d handlers expected: rowOp.handler changed shape", len(want))
	}

	// The dispatcher: its calls, its exits, its registers.
	callRE := regexp.MustCompile(`^CALL\s+(\S+)$`)
	argRE := regexp.MustCompile(`(^|[^\w+])([0-9]|[1-3][0-9])\(SP\)`)
	prev := ""
	rets := 0
	for _, s := range entry.stmts {
		for _, e := range macros.expand(s.text) {
			mnemonic := asmMnemonic(e)
			if m := callRE.FindStringSubmatch(e); mnemonic == "CALL" && (m == nil || !slices.Contains(kernelRegs, m[1])) {
				t.Errorf("%s:%d: the dispatcher CALLs other than through a register: %s", s.file, s.line, e)
			}
			if argRE.MatchString(e) {
				t.Errorf("%s:%d: the dispatcher names its outgoing-argument area: %s", s.file, s.line, e)
			}
			if strings.HasPrefix(mnemonic, "J") && strings.Contains(e, "(SB)") {
				t.Errorf("%s:%d: the dispatcher leaves by a jump: %s", s.file, s.line, e)
			}
			for _, r := range asmRegRE.FindAllString(e, -1) {
				if !slices.Contains(kernelRegs, r) && !slices.Contains(dispatcherRegs, r) {
					t.Errorf("%s:%d: the dispatcher names %s: outside the kernels' registers %v and its own %v", s.file, s.line, r, kernelRegs, dispatcherRegs)
				}
			}
		}
		mnemonic := asmMnemonic(s.text)
		if mnemonic == "RET" {
			rets++
			if prev != "VZEROUPPER" {
				t.Errorf("%s:%d: the dispatcher returns without VZEROUPPER", s.file, s.line)
			}
		}
		prev = mnemonic
	}
	if rets == 0 {
		t.Errorf("the dispatcher has no RET")
	}
	if strings.Contains(src, "rowMergeAVX2") {
		t.Errorf("rowprog_amd64.s names rowMergeAVX2: a handler blends its own result")
	}

	// The handlers.
	jmpRE := regexp.MustCompile(`^JMP\s+(\w+)<>\(SB\)$`)
	readRE := regexp.MustCompile(`\((R10|R12)\)`)
	for name, fn := range handlers {
		if len(fn.stmts) == 0 {
			t.Errorf("handler %s<> is empty", name)
			continue
		}
		last := fn.stmts[len(fn.stmts)-1].text
		if m := jmpRE.FindStringSubmatch(last); m != nil {
			reached[m[1]] = true
			if handlers[m[1]] == nil {
				t.Errorf("handler %s<> jumps to %s<>, not a handler of the file", name, m[1])
			}
		} else if last != "RET" {
			t.Errorf("handler %s<> ends in %q, not a RET or a tail JMP", name, last)
		}
		for _, s := range fn.stmts {
			for _, e := range macros.expand(s.text) {
				switch mnemonic := asmMnemonic(e); {
				case mnemonic == "VZEROUPPER":
					t.Errorf("%s:%d: handler %s<> clears the upper halves: the dispatcher's exit does", s.file, s.line, name)
				case mnemonic == "CALL":
					t.Errorf("%s:%d: handler %s<> CALLs: %s", s.file, s.line, name, e)
				case mnemonic == "JMP" && strings.Contains(e, "(SB)") && jmpRE.FindString(e) == "":
					t.Errorf("%s:%d: handler %s<> jumps out of the file: %s", s.file, s.line, name, e)
				}
				for _, r := range asmRegRE.FindAllString(readRE.ReplaceAllString(e, ""), -1) {
					if !slices.Contains(kernelRegs, r) {
						t.Errorf("%s:%d: handler %s<> names %s other than as a base it reads (may name %v, and read %v)", s.file, s.line, name, r, kernelRegs, handlerReads)
					}
				}
			}
		}
	}
	for name := range handlers {
		if !reached[name] {
			t.Errorf("handler %s<> is reached neither through the table nor by a tail JMP", name)
		}
	}

	// Struct layout.
	var (
		dispRE  = regexp.MustCompile(`([^\s,;(]*)\((AX|BX|CX|DX|SI|DI|BP|R8|R9|R1[0-5])\)`)
		numRE   = regexp.MustCompile(`^-?[0-9]+$`)
		identRE = regexp.MustCompile(`[A-Za-z_]\w*`)
	)
	local := map[string]bool{}
	for name, params := range macros.params {
		local[name] = true
		for _, p := range params {
			local[p] = true
		}
	}
	for _, m := range dispRE.FindAllStringSubmatch(src, -1) {
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

	bodies, shared := map[string]bool{}, map[string]bool{}
	for at, name := range table {
		fn := handlers[name]
		if fn == nil {
			continue
		}
		into := shared
		if at >= int(rhKern) && at < int(rhLd32) {
			into = bodies
		}
		for _, s := range fn.stmts {
			if m := asmMnemonic(s.text); inHeader[m] {
				into[m] = true
			}
		}
	}
	for m := range shared {
		delete(bodies, m)
	}
	return bodies
}
