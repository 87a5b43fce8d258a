package nvbitfi_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro"
)

// TestShippedWorkloadsLintClean pins the static cleanliness of every
// embedded workload: the SpecACCEL suite and the AV pipeline must produce
// zero verifier diagnostics — no errors, and no warnings either (dead
// writes, unreachable code, undefined reads). This is the same gate
// `sasslint -workloads` enforces in CI; a kernel edit that introduces a
// diagnostic fails here first.
func TestShippedWorkloadsLintClean(t *testing.T) {
	works := nvbitfi.SpecACCEL()
	works = append(works, nvbitfi.NewAVPipeline(nvbitfi.AVConfig{}))
	r := nvbitfi.Runner{}
	for _, w := range works {
		diags, err := r.LintWorkload(w)
		if err != nil {
			t.Errorf("%s: lint run failed: %v", w.Name(), err)
			continue
		}
		for _, d := range diags {
			t.Errorf("%s: %s", w.Name(), d)
		}
	}
}

// oracleSwitches are gpu.Device's reference-engine selectors. The product
// runs one engine configuration; only the differential tests pick an oracle.
var oracleSwitches = []string{"NoXlate", "LegacySched"}

// TestOraclesStayInTests keeps the engine's oracles out of product code:
// outside internal/gpu, no non-test Go file in the repository mentions an
// oracle switch, in code or in a comment, and no non-test Go file anywhere
// holds an NVBITFI_ string literal — the name an environment read would need.
func TestOraclesStayInTests(t *testing.T) {
	fset := token.NewFileSet()
	parsed := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		parsed++
		inGPU := filepath.Dir(path) == filepath.Join("internal", "gpu")
		mentions := func(pos token.Pos, text string) {
			for _, name := range oracleSwitches {
				if !inGPU && strings.Contains(text, name) {
					t.Errorf("%s: names the oracle switch %s outside internal/gpu", fset.Position(pos), name)
				}
			}
		}
		for _, cg := range f.Comments {
			mentions(cg.Pos(), cg.Text())
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				mentions(n.Pos(), n.Name)
			case *ast.BasicLit:
				if s, err := strconv.Unquote(n.Value); n.Kind == token.STRING && err == nil {
					mentions(n.Pos(), s)
					if strings.HasPrefix(s, "NVBITFI_") {
						t.Errorf("%s: %q reads like an environment variable; product code takes no NVBITFI_ environment", fset.Position(n.Pos()), s)
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if parsed < 100 {
		t.Fatalf("parsed %d non-test Go files; the walk missed the repository", parsed)
	}
}

// TestEngineIsSingleGoroutine keeps the engine on the goroutine that calls
// it: no non-test file in internal/gpu starts a goroutine or imports
// sync/atomic. A device runs one launch at a time, in one block order, and
// that is what lets its budget counter and Memory's lookup memo be plain
// fields. Concurrency lives above the engine, one device per experiment.
func TestEngineIsSingleGoroutine(t *testing.T) {
	dir := filepath.Join("internal", "gpu")
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	parsed := 0
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		parsed++
		for _, imp := range f.Imports {
			if imp.Path.Value == `"sync/atomic"` {
				t.Errorf("%s: imports sync/atomic", fset.Position(imp.Pos()))
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				t.Errorf("%s: starts a goroutine", fset.Position(g.Pos()))
			}
			return true
		})
	}
	if parsed < 10 {
		t.Fatalf("parsed %d non-test Go files in %s; the glob missed the package", parsed, dir)
	}
}

// TestNoUnreferencedFunctions finds dead code the compiler does not: an
// unexported function or method that no Go file of the module (test files
// included) and no assembly file names anywhere but in its own declaration.
// Names are matched as identifiers, not resolved to objects, so a dead
// function that shares its name with a live one goes unreported; what it
// does report is dead for certain. The bench/ module is not walked: it can
// name nothing unexported of this one.
func TestNoUnreferencedFunctions(t *testing.T) {
	fset := token.NewFileSet()
	declared := make(map[string][]token.Pos) // unexported name -> its declarations
	named := make(map[string]bool)           // every identifier used other than as a declared name
	asmIdent := regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*`)
	parsed := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || path == "bench") {
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(path) {
		case ".s":
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, id := range asmIdent.FindAllString(string(src), -1) {
				named[id] = true
			}
		case ".go":
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			parsed++
			decls := make(map[*ast.Ident]bool)
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Name.IsExported() || fn.Name.Name == "init" || fn.Name.Name == "main" || fn.Name.Name == "_" {
					continue
				}
				decls[fn.Name] = true
				declared[fn.Name.Name] = append(declared[fn.Name.Name], fn.Name.Pos())
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !decls[id] {
					named[id.Name] = true
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if parsed < 150 {
		t.Fatalf("parsed %d Go files; the walk missed the repository", parsed)
	}
	for name, positions := range declared {
		if named[name] {
			continue
		}
		for _, pos := range positions {
			t.Errorf("%s: %s is declared but named nowhere else", fset.Position(pos), name)
		}
	}
}
