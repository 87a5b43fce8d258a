package specaccel

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/campaign"
)

func f32buf(vals ...float32) []byte {
	b := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
	}
	return b
}

func f64buf(vals ...float64) []byte {
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return b
}

func outputWith(stdout string, file []byte) *campaign.Output {
	o := campaign.NewOutput()
	o.Stdout = stdout
	o.Files["out"] = file
	return o
}

// TestToleranceCheck: the SpecACCEL-style checker accepts deviations within
// relative tolerance and rejects ones beyond it.
func TestToleranceCheck(t *testing.T) {
	p := &Program{tol: 1e-4}
	golden := outputWith("checksum 1.000000e+00\n", f32buf(1, 2, 3))

	within := outputWith("checksum 1.000050e+00\n", f32buf(1.00005, 2, 3))
	if !p.Check(golden, within) {
		t.Error("within-tolerance output rejected")
	}
	beyond := outputWith("checksum 1.100000e+00\n", f32buf(1.1, 2, 3))
	if p.Check(golden, beyond) {
		t.Error("beyond-tolerance output accepted")
	}
	missingFile := campaign.NewOutput()
	missingFile.Stdout = golden.Stdout
	if p.Check(golden, missingFile) {
		t.Error("missing file accepted")
	}
	shorter := outputWith(golden.Stdout, f32buf(1, 2))
	if p.Check(golden, shorter) {
		t.Error("truncated file accepted")
	}
	wrongText := outputWith("CHECKSUM 1.000000e+00\n", f32buf(1, 2, 3))
	if p.Check(golden, wrongText) {
		t.Error("non-numeric stdout change accepted")
	}
	extraTokens := outputWith("checksum 1.000000e+00 extra\n", f32buf(1, 2, 3))
	if p.Check(golden, extraTokens) {
		t.Error("extra stdout tokens accepted")
	}
}

// TestToleranceCheckFP64: fp64 programs compare files as float64 arrays.
func TestToleranceCheckFP64(t *testing.T) {
	p := &Program{tol: 1e-6, fp64: true}
	golden := outputWith("sum 2.000000e+00\n", f64buf(2, 4))
	within := outputWith("sum 2.000000e+00\n", f64buf(2+1e-7, 4))
	if !p.Check(golden, within) {
		t.Error("within-tolerance fp64 output rejected")
	}
	beyond := outputWith("sum 2.000000e+00\n", f64buf(2.1, 4))
	if p.Check(golden, beyond) {
		t.Error("beyond-tolerance fp64 output accepted")
	}
}

// TestNaNHandling: NaN against NaN is equal (deterministic NaN output);
// NaN against a number is an SDC.
func TestNaNHandling(t *testing.T) {
	p := &Program{tol: 1e-4}
	nan := float32(math.NaN())
	golden := outputWith("x\n", f32buf(nan, 1))
	same := outputWith("x\n", f32buf(nan, 1))
	if !p.Check(golden, same) {
		t.Error("NaN vs NaN rejected")
	}
	differ := outputWith("x\n", f32buf(1, 1))
	if p.Check(golden, differ) {
		t.Error("number vs NaN accepted")
	}
}

func TestByNameAndNames(t *testing.T) {
	names := Names()
	if len(names) != 15 {
		t.Fatalf("%d programs, want 15 (Table IV)", len(names))
	}
	for _, name := range names {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if w.Name() != name {
			t.Fatalf("ByName(%q).Name() = %q", name, w.Name())
		}
	}
	if _, err := ByName("999.nope"); err == nil ||
		!strings.Contains(err.Error(), "unknown program") {
		t.Fatalf("unknown program lookup: %v", err)
	}
}

// TestTableIVReference: the catalog reproduces the paper's Table IV rows.
func TestTableIVReference(t *testing.T) {
	want := map[string][2]int{ // name -> {static, paper dynamic}
		"303.ostencil":  {2, 101},
		"304.olbm":      {3, 900},
		"314.omriq":     {2, 2},
		"350.md":        {3, 53},
		"351.palm":      {100, 7050},
		"352.ep":        {7, 187},
		"353.clvrleaf":  {116, 12528},
		"354.cg":        {22, 2027},
		"355.seismic":   {16, 3502},
		"356.sp":        {71, 27692},
		"357.csp":       {69, 26890},
		"359.miniGhost": {26, 8010},
		"360.ilbdc":     {1, 1000},
		"363.swim":      {22, 11999},
		"370.bt":        {50, 10069},
	}
	infos := Infos()
	if len(infos) != len(want) {
		t.Fatalf("%d infos", len(infos))
	}
	for _, info := range infos {
		w, ok := want[info.Name]
		if !ok {
			t.Fatalf("unexpected program %q", info.Name)
		}
		if info.PaperStaticKernels != w[0] || info.PaperDynamicKernels != w[1] {
			t.Errorf("%s: table IV row = %d/%d, want %d/%d",
				info.Name, info.PaperStaticKernels, info.PaperDynamicKernels, w[0], w[1])
		}
		if info.ScaledDynamicKernels <= 0 {
			t.Errorf("%s: no scaled dynamic kernel count", info.Name)
		}
	}
}

func TestStdoutClose(t *testing.T) {
	if !stdoutClose("a 1.5 b", "a 1.5000001 b", 1e-4) {
		t.Error("near-equal numeric tokens rejected")
	}
	if stdoutClose("a 1.5", "a 2.5", 1e-4) {
		t.Error("different numbers accepted")
	}
	if stdoutClose("a 1.5", "b 1.5", 1e-4) {
		t.Error("different words accepted")
	}
	if stdoutClose("a 1.5", "a x", 1e-4) {
		t.Error("number replaced by word accepted")
	}
	if stdoutClose("1", "1 2", 1e-4) {
		t.Error("different token counts accepted")
	}
}

// TestInputImagesMemoized: a generated input vector is encoded once per
// (seed, n, lo, hi), holds the bytes a fresh generator produces, and comes
// through runs of the programs that upload it unmodified: MemcpyHtoD copies
// out of the image.
func TestInputImagesMemoized(t *testing.T) {
	fresh32 := func(seed int64, n int, lo, hi float32) []byte {
		rng := rand.New(rand.NewSource(seed))
		vals := make([]float32, n)
		for i := range vals {
			vals[i] = lo + (hi-lo)*rng.Float32()
		}
		return f32buf(vals...)
	}
	fresh64 := func(seed int64, n int, lo, hi float64) []byte {
		rng := rand.New(rand.NewSource(seed))
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = lo + (hi-lo)*rng.Float64()
		}
		return f64buf(vals...)
	}
	a, b := randFloats(3141, 64, -1, 1), randFloats(3141, 64, -1, 1)
	if &a[0] != &b[0] {
		t.Error("the same vector was generated twice")
	}
	if !bytes.Equal(a, fresh32(3141, 64, -1, 1)) {
		t.Error("memoized float32 image differs from a fresh generation")
	}
	if c := randFloats(3141, 64, 0, 1); &c[0] == &a[0] || !bytes.Equal(c, fresh32(3141, 64, 0, 1)) {
		t.Error("a different range shares the image")
	}
	if d := randFloats64(3141, 64, -1, 1); &d[0] == &a[0] || !bytes.Equal(d, fresh64(3141, 64, -1, 1)) {
		t.Error("the float64 vector of the same key shares the float32 image")
	}

	for _, name := range []string{"314.omriq", "304.olbm", "350.md"} {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := (campaign.Runner{}).Golden(w); err != nil {
			t.Fatal(err)
		}
	}
	inputImages.Range(func(k, v any) bool {
		key := k.(inputKey)
		want := fresh32(key.seed, key.n, float32(key.lo), float32(key.hi))
		if key.wide {
			want = fresh64(key.seed, key.n, key.lo, key.hi)
		}
		if !bytes.Equal(v.([]byte), want) {
			t.Errorf("input image %+v changed after the programs ran", key)
		}
		return true
	})
}
