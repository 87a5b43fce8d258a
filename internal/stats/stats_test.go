package stats

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestPaperMargins pins the paper's statistics: "100 injections provide
// results with 90% confidence intervals and ±8% error margins ... 1000
// injections are necessary to obtain results with 95% confidence intervals
// and ±3% error margins".
func TestPaperMargins(t *testing.T) {
	m100, err := MarginOfError(100, 0.90)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m100-0.08) > 0.003 {
		t.Errorf("margin(100, 90%%) = %.4f, want ~0.08", m100)
	}
	m1000, err := MarginOfError(1000, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m1000-0.031) > 0.002 {
		t.Errorf("margin(1000, 95%%) = %.4f, want ~0.031", m1000)
	}
}

func TestRequiredSamplesInverse(t *testing.T) {
	for _, conf := range []float64{0.90, 0.95, 0.99} {
		for _, margin := range []float64{0.08, 0.03, 0.01} {
			n, err := RequiredSamples(margin, conf)
			if err != nil {
				t.Fatal(err)
			}
			// The margin at the required count must be at most the target...
			got, err := MarginOfError(n, conf)
			if err != nil {
				t.Fatal(err)
			}
			if got > margin*1.0001 {
				t.Errorf("RequiredSamples(%v, %v) = %d gives margin %.5f", margin, conf, n, got)
			}
			// ...and one fewer sample must not suffice.
			if n > 1 {
				prev, err := MarginOfError(n-1, conf)
				if err != nil {
					t.Fatal(err)
				}
				if prev <= margin {
					t.Errorf("RequiredSamples(%v, %v) = %d not minimal", margin, conf, n)
				}
			}
		}
	}
}

func TestInvNormCDFQuantiles(t *testing.T) {
	known := map[float64]float64{
		0.5:    0,
		0.8413: 1.0,
		0.975:  1.95996,
		0.995:  2.57583,
		0.9987: 3.01145,
		0.0228: -1.9991,
	}
	for p, want := range known {
		if got := invNormCDF(p); math.Abs(got-want) > 0.002 {
			t.Errorf("invNormCDF(%v) = %.5f, want %.5f", p, got, want)
		}
	}
}

func TestInvNormCDFSymmetry(t *testing.T) {
	f := func(raw float64) bool {
		p := math.Mod(math.Abs(raw), 0.49)
		if math.IsNaN(p) || p == 0 {
			return true
		}
		lo, hi := invNormCDF(0.5-p), invNormCDF(0.5+p)
		return math.Abs(lo+hi) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestErrorsOnBadInputs(t *testing.T) {
	if _, err := MarginOfError(0, 0.9); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := MarginOfError(100, 0); err == nil {
		t.Error("confidence 0 accepted")
	}
	if _, err := MarginOfError(100, 1); err == nil {
		t.Error("confidence 1 accepted")
	}
	if _, err := RequiredSamples(0, 0.9); err == nil {
		t.Error("margin 0 accepted")
	}
	if _, err := RequiredSamples(1.5, 0.9); err == nil {
		t.Error("margin > 1 accepted")
	}
	if _, err := ProportionCI(5, 4, 0.9); err == nil {
		t.Error("k > n accepted")
	}
	if _, err := ProportionCI(-1, 4, 0.9); err == nil {
		t.Error("k < 0 accepted")
	}
}

func TestProportionCI(t *testing.T) {
	iv, err := ProportionCI(30, 100, 0.90)
	if err != nil {
		t.Fatal(err)
	}
	if iv.P != 0.30 {
		t.Errorf("P = %v", iv.P)
	}
	if iv.Lo >= iv.P || iv.Hi <= iv.P {
		t.Errorf("interval %+v does not bracket the estimate", iv)
	}
	// Degenerate proportions clamp to [0,1].
	zero, err := ProportionCI(0, 50, 0.95)
	if err != nil || zero.Lo != 0 {
		t.Errorf("zero-proportion CI: %+v, %v", zero, err)
	}
	one, err := ProportionCI(50, 50, 0.95)
	if err != nil || one.Hi != 1 {
		t.Errorf("full-proportion CI: %+v, %v", one, err)
	}
}

// TestProportionCIQuick: the interval always brackets the point estimate
// and stays in [0,1].
func TestProportionCIQuick(t *testing.T) {
	f := func(k8 uint8, extra uint8) bool {
		n := int(k8) + int(extra) + 1
		k := int(k8)
		iv, err := ProportionCI(k, n, 0.95)
		if err != nil {
			return false
		}
		return iv.Lo >= 0 && iv.Hi <= 1 && iv.Lo <= iv.P && iv.P <= iv.Hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestWilsonEdgeCases: the Wilson interval keeps nonzero width at the
// degenerate proportions where the Wald interval collapsed to a point —
// the property the campaign stopping rule leans on.
func TestWilsonEdgeCases(t *testing.T) {
	cases := []struct{ k, n int }{
		{0, 1}, {1, 1}, // n = 1
		{0, 50},    // k = 0
		{50, 50},   // k = n
		{0, 10000}, // large n, still nonzero width
	}
	for _, c := range cases {
		iv, err := ProportionCI(c.k, c.n, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if iv.Hi-iv.Lo <= 0 {
			t.Errorf("ProportionCI(%d, %d) has zero width: %+v", c.k, c.n, iv)
		}
		if c.k == 0 && iv.Lo != 0 {
			t.Errorf("k=0 interval should touch 0: %+v", iv)
		}
		if c.k == c.n && iv.Hi != 1 {
			t.Errorf("k=n interval should touch 1: %+v", iv)
		}
	}
	// Width shrinks with n at a fixed proportion.
	small, _ := ProportionCI(0, 10, 0.95)
	large, _ := ProportionCI(0, 1000, 0.95)
	if large.Hi >= small.Hi {
		t.Errorf("k=0 width not shrinking with n: n=10 %+v, n=1000 %+v", small, large)
	}
}

func TestStratifiedFullRunEqualsPooled(t *testing.T) {
	// When every stratum is fully sampled (n == weight), the stratified
	// share must equal the exhaustive pooled fraction bit-for-bit.
	st := NewStratified()
	st.AddStratum("a", 7, false)
	st.AddStratum("b", 13, true)
	st.AddStratum("c", 5, false)
	st.Observe("a", "SDC", 3)
	st.Observe("a", "Masked", 4)
	st.Observe("b", "Masked", 13)
	st.Observe("c", "SDC", 1)
	st.Observe("c", "DUE", 4)
	if got, want := st.Share("SDC"), float64(4)/float64(25); got != want {
		t.Errorf("full-run SDC share = %v, want exactly %v", got, want)
	}
	if got, want := st.Share("Masked"), float64(17)/float64(25); got != want {
		t.Errorf("full-run Masked share = %v, want exactly %v", got, want)
	}
	if got, want := st.Share("DUE"), float64(4)/float64(25); got != want {
		t.Errorf("full-run DUE share = %v, want exactly %v", got, want)
	}
}

func TestStratifiedExpansion(t *testing.T) {
	// Partial sampling: stratum proportions expand by population weight.
	st := NewStratified()
	st.AddStratum("big", 80, false)
	st.AddStratum("small", 20, false)
	st.Observe("big", "Masked", 10) // p=1 in a stratum worth 80%
	st.Observe("small", "SDC", 5)   // p=1 in a stratum worth 20%
	if got := st.Share("SDC"); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("expanded SDC share = %v, want 0.2", got)
	}
	if st.SampledN() != 15 {
		t.Errorf("SampledN = %v, want 15", st.SampledN())
	}
	// An unsampled stratum is excluded and the rest renormalize.
	st.AddStratum("silent", 100, false)
	if got := st.Share("SDC"); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("unsampled stratum changed share: %v", got)
	}
}

func TestStratifiedCertainStrataShrinkCI(t *testing.T) {
	// Same observations, but one heavy stratum's outcome is statically
	// proven: marking it certain must remove its variance contribution and
	// tighten the interval.
	build := func(certain bool) *StratifiedTally {
		st := NewStratified()
		st.AddStratum("proven", 80, certain)
		st.AddStratum("live", 20, false)
		st.Observe("proven", "Masked", 40)
		st.Observe("live", "SDC", 10)
		st.Observe("live", "Masked", 10)
		return st
	}
	uncertain := build(false)
	certain := build(true)
	if certain.Share("SDC") != uncertain.Share("SDC") {
		t.Fatal("certainty must not move the point estimate")
	}
	if cv, uv := certain.Variance("SDC"), uncertain.Variance("SDC"); cv >= uv {
		t.Errorf("certain variance %v not below uncertain %v", cv, uv)
	}
	ci, err := certain.ShareCI("SDC", 0.95)
	if err != nil {
		t.Fatal(err)
	}
	ui, err := uncertain.ShareCI("SDC", 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if (ci.Hi - ci.Lo) >= (ui.Hi - ui.Lo) {
		t.Errorf("certain interval %+v not tighter than %+v", ci, ui)
	}
	if neff := certain.EffectiveSampleSize("SDC"); neff <= certain.SampledN() {
		t.Errorf("informative stratification should raise neff above n: %v <= %v",
			neff, certain.SampledN())
	}
}

func TestStratifiedDegenerateFallbacks(t *testing.T) {
	var empty StratifiedTally
	if empty.SampledN() != 0 || empty.Share("SDC") != 0 {
		t.Error("zero-value tally should be empty")
	}
	st := NewStratified()
	if _, err := st.ShareCI("SDC", 0.95); err == nil {
		t.Error("empty stratified ShareCI should error")
	}
	// Only certain strata sampled: variance is zero, pooled p is 0, and the
	// fallback keeps neff at the raw count instead of claiming infinite
	// precision — the Wilson interval still has width.
	st.AddStratum("proven", 50, true)
	st.Observe("proven", "Masked", 25)
	if neff := st.EffectiveSampleSize("SDC"); neff != 25 {
		t.Errorf("degenerate neff = %v, want raw n 25", neff)
	}
	iv, err := st.ShareCI("SDC", 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Hi-iv.Lo <= 0 {
		t.Errorf("degenerate interval has zero width: %+v", iv)
	}
	if _, err := st.ShareCI("SDC", 1.5); err == nil {
		t.Error("bad confidence should error")
	}
	// Observations in an undeclared stratum self-weight.
	st.Observe("surprise", "SDC", 4)
	if st.SampledN() != 29 {
		t.Errorf("SampledN = %v, want 29", st.SampledN())
	}
}

func TestWeightedTally(t *testing.T) {
	var w WeightedTally
	w.Add("SDC", 10)
	w.Add("Masked", 20)
	w.Add("SDC", 10)
	if w.Total() != 40 {
		t.Fatalf("total = %v", w.Total())
	}
	if w.Share("SDC") != 0.5 || w.Share("Masked") != 0.5 {
		t.Fatalf("shares wrong: %v %v", w.Share("SDC"), w.Share("Masked"))
	}
	if w.Share("DUE") != 0 {
		t.Error("missing category share should be 0")
	}
	cats := w.Categories()
	if len(cats) != 2 || cats[0] != "Masked" || cats[1] != "SDC" {
		t.Fatalf("categories = %v", cats)
	}
	var empty WeightedTally
	if empty.Share("x") != 0 {
		t.Error("empty tally share should be 0")
	}
}

func TestWeight(t *testing.T) {
	var w WeightedTally
	w.Add("SDC", 3)
	w.Add("SDC", 4)
	if w.Weight("SDC") != 7 {
		t.Errorf("Weight = %v, want 7", w.Weight("SDC"))
	}
	if w.Weight("none") != 0 {
		t.Error("absent category weight should be 0")
	}
}

// TestStratifiedDeterministic: 40 strata whose weights span sixteen orders
// of magnitude, so that a floating-point sum over them depends on the order
// it adds them in, give bit-identical Share, Variance and interval bounds on
// every one of 200 calls, and whatever order the strata were declared and
// observed in.
func TestStratifiedDeterministic(t *testing.T) {
	const strata = 40
	build := func(order []int) *StratifiedTally {
		st := NewStratified()
		for _, i := range order {
			st.AddStratum(fmt.Sprintf("s%02d", i), math.Pow(10, float64(i%17))*(1+float64(i)/7), i%9 == 0)
		}
		for _, i := range order {
			st.Observe(fmt.Sprintf("s%02d", i), "sdc", 1+i%5)
			st.Observe(fmt.Sprintf("s%02d", i), "masked", 3+i%7)
		}
		return st
	}
	type bitsOf struct{ share, variance, lo, hi uint64 }
	read := func(st *StratifiedTally) bitsOf {
		ci, err := st.ShareCI("sdc", 0.95)
		if err != nil {
			t.Fatal(err)
		}
		return bitsOf{math.Float64bits(st.Share("sdc")), math.Float64bits(st.Variance("sdc")),
			math.Float64bits(ci.Lo), math.Float64bits(ci.Hi)}
	}
	order := make([]int, strata)
	for i := range order {
		order[i] = i
	}
	ref := build(order)
	want := read(ref)
	for call := 0; call < 200; call++ {
		if got := read(ref); got != want {
			t.Fatalf("call %d: %+v, first call %+v", call, got, want)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for perm := 0; perm < 20; perm++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		if got := read(build(order)); got != want {
			t.Fatalf("declared in order %v: %+v, in key order %+v", order, got, want)
		}
	}
}
