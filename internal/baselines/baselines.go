// Package baselines implements the competitor methods of the paper's
// evaluation (§5): Brute-Force (the Def. 2.3 optimum by exhaustive subset
// search), Top-K (max-relevance only), Linear Regression (OLS coefficients),
// a HypDB-style causal-analysis method, and MESA- (MCIMR without pruning).
// All of them produce a uniform Result so the user-study and explainability
// harnesses can compare methods directly.
package baselines

import (
	"context"
	"math"
	"sort"
	"time"

	"nexus/internal/bins"
	"nexus/internal/core"
	"nexus/internal/infotheory"
	"nexus/internal/stats"
)

// Method names as reported in Tables 2–3.
const (
	MethodBruteForce = "Brute-Force"
	MethodMESA       = "MESA"
	MethodMESAMinus  = "MESA-"
	MethodTopK       = "Top-K"
	MethodLR         = "LR"
	MethodHypDB      = "HypDB"
)

// Result is a method's explanation for one query.
type Result struct {
	Method  string
	Attrs   []string
	Score   float64 // explainability score I(O;T|E); lower is better
	Elapsed time.Duration
	Failed  bool // method produced no explanation (LR can fail; paper §5.1)
}

// MESA runs the full system (pruning + MCIMR).
func MESA(t, o *bins.Encoded, cands []*core.Candidate, opts core.Options) (*Result, error) {
	ex, err := core.Explain(context.Background(), t, o, cands, opts)
	if err != nil {
		return nil, err
	}
	return &Result{Method: MethodMESA, Attrs: ex.Names(), Score: ex.Score, Elapsed: ex.Elapsed, Failed: len(ex.Attrs) == 0}, nil
}

// MESAMinus runs MCIMR without the query-specific (online) pruning
// optimizations. The across-queries preprocessing filters stay on: they run
// at ingestion time in the paper's system (§4.2), so even the paper's
// "MESA-" rows in Table 2 never contain raw identifiers like wikiID.
func MESAMinus(t, o *bins.Encoded, cands []*core.Candidate, opts core.Options) (*Result, error) {
	opts.DisableOnlinePrune = true
	ex, err := core.Explain(context.Background(), t, o, cands, opts)
	if err != nil {
		return nil, err
	}
	return &Result{Method: MethodMESAMinus, Attrs: ex.Names(), Score: ex.Score, Elapsed: ex.Elapsed, Failed: len(ex.Attrs) == 0}, nil
}

// bruteForceMaxCandidates is how many of the most relevant candidates are kept
// before enumerating subsets. Without a cap the search is 2^|A| (the reason
// the paper could not run Brute-Force on SO or Flights).
const bruteForceMaxCandidates = 18

// bruteForceMinSupport is the minimum average complete-case rows per
// occupied conditioning stratum for a subset to be considered estimable.
// Without it the Def. 2.3 objective degenerates: joint conditioning on
// enough attributes shatters every stratum to a single row and the plug-in
// CMI reads an artificial 0. Support shrinks monotonically as sets grow, so
// infeasible branches are pruned.
const bruteForceMinSupport = 4

// BruteForce computes the Def. 2.3 optimum argmin I(O;T|E)·|E| by exhaustive
// enumeration of attribute subsets (after relevance capping). Ties prefer
// smaller then lexicographically-earlier sets. maxSize bounds subset
// cardinality (the paper's k; ≤ 0 means 5).
func BruteForce(t, o *bins.Encoded, cands []*core.Candidate, maxSize int) (*Result, error) {
	start := time.Now()
	if maxSize <= 0 {
		maxSize = 5
	}
	ranked, err := rankByRelevance(t, o, cands)
	if err != nil {
		return nil, err
	}
	if len(ranked) > bruteForceMaxCandidates {
		ranked = ranked[:bruteForceMaxCandidates]
	}
	n := len(ranked)
	bestObj := math.Inf(1)
	var bestSet []int
	var bestScore float64

	var cur []int
	// joint[d] is the first d attributes of cur as one column, its parent's
	// joined with one attribute (a two-column pass); joint[0] is all rows.
	joint := []*bins.Encoded{{Name: "subset", Codes: make([]int32, t.Len()), Card: 1}}
	var recur func(next int)
	recur = func(next int) {
		if d := len(cur); d > 0 {
			joint = append(joint[:d], infotheory.JoinVars("subset", joint[d-1], ranked[cur[d-1]].enc))
			// Feasibility: enough complete cases per occupied stratum.
			// Support only shrinks as the set grows, so an infeasible set
			// prunes its whole branch.
			if !supported(joint[d:], bruteForceMinSupport) {
				return
			}
			sel := make([]*bins.Encoded, d)
			ws := make([][]float64, d)
			for i, idx := range cur {
				sel[i], ws[i] = ranked[idx].enc, ranked[idx].weights
			}
			score := core.SetScore(t, o, sel, ws)
			obj := score * float64(len(cur))
			if obj < bestObj-1e-12 {
				bestObj = obj
				bestScore = score
				bestSet = append(bestSet[:0], cur...)
			}
		}
		if len(cur) == maxSize {
			return
		}
		for i := next; i < n; i++ {
			cur = append(cur, i)
			recur(i + 1)
			cur = cur[:len(cur)-1]
		}
	}
	recur(0)

	res := &Result{Method: MethodBruteForce, Score: bestScore, Elapsed: time.Since(start)}
	for _, idx := range bestSet {
		res.Attrs = append(res.Attrs, ranked[idx].cand.Name)
	}
	res.Failed = len(res.Attrs) == 0
	return res, nil
}

// TopK ranks candidates by individual explanation power (minimal
// I(O;T|C,E), i.e. max-relevance with no redundancy term) and returns the
// best k — the paper's Top-K baseline.
func TopK(t, o *bins.Encoded, cands []*core.Candidate, k int) (*Result, error) {
	start := time.Now()
	if k <= 0 {
		k = 5
	}
	ranked, err := rankByRelevance(t, o, cands)
	if err != nil {
		return nil, err
	}
	if len(ranked) > k {
		ranked = ranked[:k]
	}
	res := &Result{Method: MethodTopK, Elapsed: time.Since(start)}
	sel := make([]*bins.Encoded, len(ranked))
	ws := make([][]float64, len(ranked))
	for i, r := range ranked {
		res.Attrs = append(res.Attrs, r.cand.Name)
		sel[i], ws[i] = r.enc, r.weights
	}
	res.Score = core.SetScore(t, o, sel, ws)
	res.Failed = len(res.Attrs) == 0
	res.Elapsed = time.Since(start)
	return res, nil
}

type rankedCand struct {
	cand      *core.Candidate
	enc       *bins.Encoded
	weights   []float64
	relevance float64
}

// rankByRelevance computes the individual relevance of every candidate, read
// and scored as the pipeline reads and scores it (core.Candidate.Vectors,
// core.SetScore), and sorts ascending (lower CMI explains more).
func rankByRelevance(t, o *bins.Encoded, cands []*core.Candidate) ([]rankedCand, error) {
	out := make([]rankedCand, 0, len(cands))
	for _, c := range cands {
		enc, w, err := c.Vectors()
		if err != nil {
			return nil, err
		}
		rel := core.SetScore(t, o, []*bins.Encoded{enc}, [][]float64{w})
		out = append(out, rankedCand{cand: c, enc: enc, weights: w, relevance: rel})
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].relevance < out[b].relevance })
	return out, nil
}

// supported reports whether the joint conditioning set leaves at least
// minSupport complete rows per occupied stratum on average.
func supported(sel []*bins.Encoded, minSupport float64) bool {
	if len(sel) == 0 {
		return true
	}
	n := sel[0].Len()
	ids, _ := infotheory.DenseIDs(sel, n)
	seen := make(map[int32]struct{})
	complete := 0
	for _, id := range ids {
		if id >= 0 {
			complete++
			seen[id] = struct{}{}
		}
	}
	if len(seen) == 0 {
		return false
	}
	return float64(complete)/float64(len(seen)) >= minSupport
}

// NamedSeries is a raw numeric candidate column for the LR baseline.
type NamedSeries struct {
	Name   string
	Values []float64 // NaN = missing
}

const (
	lrMaxPredictors = 40   // cap on jointly-fitted predictors
	lrMaxMissing    = 0.5  // series with a larger missing fraction are dropped
	lrPValue        = 0.05 // significance cutoff (paper: 0.05)
)

// LinearRegression implements the paper's LR baseline: fit OLS of the
// outcome on (standardized) candidate attributes and return the top-k
// attributes (k; ≤ 0 means 5) by absolute coefficient among those with
// p < lrPValue. It can fail (Failed=true) when no coefficient is
// significant — the behaviour the paper reports for several queries.
func LinearRegression(outcome []float64, series []NamedSeries, t, o *bins.Encoded, encOf func(name string) *bins.Encoded, k int) *Result {
	start := time.Now()
	if k <= 0 {
		k = 5
	}
	res := &Result{Method: MethodLR, Failed: true, Score: math.NaN()}

	// Filter sparse series, mean-impute, standardize; pre-rank by |corr| to
	// respect the predictor cap.
	type prepared struct {
		name string
		vals []float64
		corr float64
	}
	var preps []prepared
	for _, s := range series {
		miss := 0
		for _, v := range s.Values {
			if math.IsNaN(v) {
				miss++
			}
		}
		if len(s.Values) == 0 || float64(miss)/float64(len(s.Values)) > lrMaxMissing {
			continue
		}
		m := stats.Mean(s.Values)
		sd := stats.StdDev(s.Values)
		if sd == 0 || math.IsNaN(sd) || math.IsNaN(m) {
			continue
		}
		vals := make([]float64, len(s.Values))
		for i, v := range s.Values {
			if math.IsNaN(v) {
				vals[i] = 0 // standardized mean
			} else {
				vals[i] = (v - m) / sd
			}
		}
		c := stats.Pearson(vals, outcome)
		if math.IsNaN(c) {
			continue
		}
		preps = append(preps, prepared{s.Name, vals, math.Abs(c)})
	}
	sort.SliceStable(preps, func(a, b int) bool { return preps[a].corr > preps[b].corr })
	if len(preps) > lrMaxPredictors {
		preps = preps[:lrMaxPredictors]
	}
	if len(preps) == 0 {
		res.Elapsed = time.Since(start)
		return res
	}
	xs := make([][]float64, len(preps))
	for i, p := range preps {
		xs[i] = p.vals
	}
	fit, err := stats.OLS(outcome, xs...)
	if err != nil {
		res.Elapsed = time.Since(start)
		return res
	}
	type scored struct {
		name string
		coef float64
	}
	var sig []scored
	for i, p := range preps {
		if fit.PValue[i+1] < lrPValue {
			sig = append(sig, scored{p.name, math.Abs(fit.Coef[i+1])})
		}
	}
	sort.SliceStable(sig, func(a, b int) bool { return sig[a].coef > sig[b].coef })
	if len(sig) > k {
		sig = sig[:k]
	}
	if len(sig) == 0 {
		res.Elapsed = time.Since(start)
		return res
	}
	res.Failed = false
	var sel []*bins.Encoded
	for _, s := range sig {
		res.Attrs = append(res.Attrs, s.name)
		if encOf != nil {
			if e := encOf(s.name); e != nil {
				sel = append(sel, e)
			}
		}
	}
	if len(sel) > 0 {
		res.Score = core.SetScore(t, o, sel, nil)
	}
	res.Elapsed = time.Since(start)
	return res
}
