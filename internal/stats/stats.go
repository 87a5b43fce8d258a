// Package stats provides the statistical machinery fault-injection
// campaigns report with: binomial confidence intervals over outcome
// proportions (the paper: "100 injections provide results with 90%
// confidence intervals and ±8% error margins; 1000 injections are necessary
// for 95% confidence and ±3%"), sample-size planning, and weighted outcome
// aggregation for permanent-fault campaigns.
package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// zValue returns the two-sided standard-normal critical value for the given
// confidence level, via the Acklam rational approximation of the inverse
// normal CDF (max relative error ~1.15e-9).
func zValue(confidence float64) (float64, error) {
	if confidence <= 0 || confidence >= 1 {
		return 0, fmt.Errorf("stats: confidence %v outside (0,1)", confidence)
	}
	p := 1 - (1-confidence)/2
	return invNormCDF(p), nil
}

// invNormCDF is Acklam's inverse normal CDF approximation.
func invNormCDF(p float64) float64 {
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const plow, phigh = 0.02425, 1 - 0.02425
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > phigh:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
}

// MarginOfError returns the worst-case (p = 0.5) two-sided error margin of
// an outcome proportion estimated from n injections at the given confidence
// level.
func MarginOfError(n int, confidence float64) (float64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("stats: sample size %d must be positive", n)
	}
	z, err := zValue(confidence)
	if err != nil {
		return 0, err
	}
	return z * 0.5 / math.Sqrt(float64(n)), nil
}

// RequiredSamples returns the number of injections needed for the given
// worst-case margin at the given confidence level.
func RequiredSamples(margin, confidence float64) (int, error) {
	if margin <= 0 || margin >= 1 {
		return 0, fmt.Errorf("stats: margin %v outside (0,1)", margin)
	}
	z, err := zValue(confidence)
	if err != nil {
		return 0, err
	}
	return int(math.Ceil(z * z * 0.25 / (margin * margin))), nil
}

// Interval is a proportion estimate with its confidence bounds.
type Interval struct {
	P, Lo, Hi float64
}

// ProportionCI returns the Wilson score confidence interval of a proportion
// with k successes out of n trials, clamped to [0,1]. Unlike the Wald
// (normal-approximation) interval, the Wilson interval never degenerates to
// zero width at k=0 or k=n — a property the campaign stopping rule depends
// on: early all-Masked shards must not look infinitely precise.
func ProportionCI(k, n int, confidence float64) (Interval, error) {
	if n <= 0 || k < 0 || k > n {
		return Interval{}, fmt.Errorf("stats: invalid counts k=%d n=%d", k, n)
	}
	z, err := zValue(confidence)
	if err != nil {
		return Interval{}, err
	}
	return wilsonInterval(float64(k)/float64(n), float64(n), z), nil
}

// wilsonInterval computes the Wilson score interval for an observed
// proportion p over (possibly fractional) sample size n. Interval.P stays
// the raw estimate; Lo/Hi come from the score-test inversion, so Lo is
// exactly 0 when p=0 and Hi exactly 1 when p=1, with nonzero width for any
// finite n.
func wilsonInterval(p, n, z float64) Interval {
	d := 1 + z*z/n
	center := (p + z*z/(2*n)) / d
	half := z / d * math.Sqrt(p*(1-p)/n+z*z/(4*n*n))
	iv := Interval{P: p, Lo: math.Max(0, center-half), Hi: math.Min(1, center+half)}
	// The score inversion touches the boundary exactly at degenerate
	// proportions; pin it there so rounding residue can't leak in.
	if p == 0 {
		iv.Lo = 0
	}
	if p == 1 {
		iv.Hi = 1
	}
	return iv
}

// WeightedTally accumulates category shares with per-observation weights —
// the aggregation the paper uses for permanent faults, where "the outcome of
// each run is weighted based on the relative number of dynamic instructions
// for that opcode".
type WeightedTally struct {
	weights map[string]float64
	total   float64
}

// Add records an observation of category cat with the given weight.
func (t *WeightedTally) Add(cat string, weight float64) {
	if t.weights == nil {
		t.weights = make(map[string]float64)
	}
	t.weights[cat] += weight
	t.total += weight
}

// Share returns the weighted share of a category in [0,1].
func (t *WeightedTally) Share(cat string) float64 {
	if t.total == 0 {
		return 0
	}
	return t.weights[cat] / t.total
}

// Total returns the total accumulated weight.
func (t *WeightedTally) Total() float64 { return t.total }

// Categories returns the recorded categories, sorted.
func (t *WeightedTally) Categories() []string {
	cats := make([]string, 0, len(t.weights))
	for c := range t.weights {
		cats = append(cats, c)
	}
	sort.Strings(cats)
	return cats
}

// Weight returns the accumulated weight of a category.
func (t *WeightedTally) Weight(cat string) float64 { return t.weights[cat] }

// StratifiedTally pools per-stratum category counts into a
// post-stratification estimator. Each stratum carries a population weight
// (its share of the full selection); sampled strata contribute their
// observed category proportions expanded by weight. Strata whose outcome is
// statically proven (provably-masked equivalence classes) are marked
// certain and legitimately contribute zero sampling variance — the main
// savings lever of the adaptive campaign.
//
// The strata are kept in key order, so every sum over them adds its terms in
// one fixed order: the estimates are the same bits on every call, whatever
// order the strata were declared or observed in — the adaptive stop rule
// compares them with a target.
type StratifiedTally struct {
	strata []*stratum          // sorted by key
	index  map[string]*stratum // by key
}

type stratum struct {
	key     string
	weight  float64 // population weight (unnormalized; campaign uses selection counts)
	certain bool
	n       float64
	counts  map[string]float64
}

// NewStratified returns an empty stratified tally.
func NewStratified() *StratifiedTally {
	return &StratifiedTally{index: make(map[string]*stratum)}
}

// AddStratum declares a stratum with its population weight. Certain strata
// have statically-proven outcomes and contribute no sampling variance.
func (t *StratifiedTally) AddStratum(key string, weight float64, certain bool) {
	t.put(&stratum{key: key, weight: weight, certain: certain, counts: make(map[string]float64)})
}

// put files s under its key, in key order, replacing a stratum of that key.
func (t *StratifiedTally) put(s *stratum) {
	i, found := slices.BinarySearchFunc(t.strata, s.key, func(h *stratum, key string) int {
		return strings.Compare(h.key, key)
	})
	if found {
		t.strata[i] = s
	} else {
		t.strata = slices.Insert(t.strata, i, s)
	}
	t.index[s.key] = s
}

// Observe records count observations of category cat in stratum key. An
// undeclared stratum is created with weight equal to its observation count
// (self-weighting), so partially-specified tallies degrade gracefully.
func (t *StratifiedTally) Observe(key, cat string, count int) {
	if count == 0 {
		return
	}
	s := t.index[key]
	if s == nil {
		s = &stratum{key: key, counts: make(map[string]float64)}
		t.put(s)
	}
	s.n += float64(count)
	s.counts[cat] += float64(count)
	if s.weight < s.n {
		s.weight = s.n
	}
}

// SampledN returns the total number of observations across sampled strata.
func (t *StratifiedTally) SampledN() float64 {
	var n float64
	for _, s := range t.strata {
		n += s.n
	}
	return n
}

// sampledWeight is the weight sum over strata with at least one
// observation; unsampled strata are excluded and the estimator renormalizes
// over the sampled ones.
func (t *StratifiedTally) sampledWeight() float64 {
	var w float64
	for _, s := range t.strata {
		if s.n > 0 {
			w += s.weight
		}
	}
	return w
}

// Share returns the stratified pooled share of a category: each sampled
// stratum's observed proportion expanded by its weight, normalized over the
// sampled weight. Terms are computed as count·(weight/n) so that a full run
// (n == weight in every stratum) collapses term-by-term to exact integer
// counts and the pooled share equals the exhaustive unstratified fraction
// bit-for-bit.
func (t *StratifiedTally) Share(cat string) float64 {
	w := t.sampledWeight()
	if w == 0 {
		return 0
	}
	var num float64
	for _, s := range t.strata {
		if s.n > 0 {
			num += s.counts[cat] * (s.weight / s.n)
		}
	}
	return num / w
}

// Variance returns the sampling variance of the stratified share estimate:
// Σ ŵ_h² · p̃_h(1−p̃_h)/n_h over uncertain sampled strata, with ŵ_h the
// weight normalized over sampled strata. The per-stratum proportion is
// Jeffreys-smoothed (p̃ = (k+½)/(n+1)) for the variance only, so a small
// pure stratum never claims exact-zero uncertainty; the point estimate in
// Share stays unsmoothed.
func (t *StratifiedTally) Variance(cat string) float64 {
	w := t.sampledWeight()
	if w == 0 {
		return 0
	}
	var v float64
	for _, s := range t.strata {
		if s.n == 0 || s.certain {
			continue
		}
		wh := s.weight / w
		pt := (s.counts[cat] + 0.5) / (s.n + 1)
		v += wh * wh * pt * (1 - pt) / s.n
	}
	return v
}

// EffectiveSampleSize converts the stratified variance into an effective
// simple-random-sample size via the design effect: deff = Var/VarSRS,
// neff = n/deff. Informative stratification (deff < 1) yields neff above
// the raw count; when either variance degenerates (pooled share at 0 or 1,
// or all sampled strata certain) it falls back to the raw observation count
// rather than claiming unbounded precision.
func (t *StratifiedTally) EffectiveSampleSize(cat string) float64 {
	n := t.SampledN()
	if n == 0 {
		return 0
	}
	p := t.Share(cat)
	varSRS := p * (1 - p) / n
	varStrat := t.Variance(cat)
	if varStrat <= 0 || varSRS <= 0 {
		return n
	}
	return n * varSRS / varStrat
}

// ShareCI returns the Wilson score interval of the stratified pooled share,
// evaluated at the effective sample size.
func (t *StratifiedTally) ShareCI(cat string, confidence float64) (Interval, error) {
	n := t.SampledN()
	if n == 0 {
		return Interval{}, fmt.Errorf("stats: stratified tally is empty")
	}
	z, err := zValue(confidence)
	if err != nil {
		return Interval{}, err
	}
	neff := math.Max(1, t.EffectiveSampleSize(cat))
	return wilsonInterval(t.Share(cat), neff, z), nil
}
