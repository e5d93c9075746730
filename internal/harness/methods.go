package harness

import (
	"context"
	"math"
	"sort"

	"nexus"
	"nexus/internal/baselines"
	"nexus/internal/bins"
	"nexus/internal/core"
	"nexus/internal/stats"
	"nexus/internal/table"
)

// Methods in the canonical reporting order of Tables 2–3.
var Methods = []string{
	baselines.MethodBruteForce,
	baselines.MethodMESAMinus,
	baselines.MethodMESA,
	baselines.MethodTopK,
	baselines.MethodLR,
	baselines.MethodHypDB,
}

// MethodRun is one method's output for one query.
type MethodRun struct {
	*baselines.Result
	Skipped bool // method not run for this query (Brute-Force on large data)
}

// RunAll executes every method on a prepared analysis. Following §5
// ("for a fair comparison, we run all baselines (except for MESA-) after
// employing our pruning optimizations"), Brute-Force, Top-K, LR and HypDB
// operate on the pruned candidate set; MESA prunes internally and MESA-
// keeps only the offline filters. Brute-Force runs only when
// spec.BruteForce is set (the paper's feasibility constraint).
func RunAll(a *nexus.Analysis, spec QuerySpec, coreOpts core.Options) (map[string]MethodRun, error) {
	out := make(map[string]MethodRun, len(Methods))

	offline, _, err := core.OfflinePruneCtx(context.Background(), nil, a.Candidates, coreOpts.Prune)
	if err != nil {
		return nil, err
	}
	pruned, _, err := core.OnlinePruneCtx(context.Background(), nil, a.T, a.O, offline, coreOpts.Prune)
	if err != nil {
		return nil, err
	}
	prunedNames := make(map[string]bool, len(pruned))
	for _, c := range pruned {
		prunedNames[c.Name] = true
	}

	if spec.BruteForce {
		bf, err := baselines.BruteForce(a.T, a.O, pruned, coreOpts.K)
		if err != nil {
			return nil, err
		}
		out[baselines.MethodBruteForce] = MethodRun{Result: bf}
	} else {
		out[baselines.MethodBruteForce] = MethodRun{Skipped: true}
	}

	minus, err := baselines.MESAMinus(a.T, a.O, a.Candidates, coreOpts)
	if err != nil {
		return nil, err
	}
	out[baselines.MethodMESAMinus] = MethodRun{Result: minus}

	mesa, err := baselines.MESA(a.T, a.O, a.Candidates, coreOpts)
	if err != nil {
		return nil, err
	}
	out[baselines.MethodMESA] = MethodRun{Result: mesa}

	topk, err := baselines.TopK(a.T, a.O, pruned, coreOpts.K)
	if err != nil {
		return nil, err
	}
	out[baselines.MethodTopK] = MethodRun{Result: topk}

	lr := runLR(a, coreOpts.K, prunedNames)
	out[baselines.MethodLR] = MethodRun{Result: lr}

	hyp, err := baselines.HypDB(a.T, a.O, pruned, coreOpts.K)
	if err != nil {
		return nil, err
	}
	out[baselines.MethodHypDB] = MethodRun{Result: hyp}
	return out, nil
}

// runLR assembles the raw numeric series for the LR baseline. To bound
// memory on wide candidate sets it streams every candidate once, keeps the
// 40 with the highest |Pearson| against the outcome, and fits the joint OLS
// on those.
func runLR(a *nexus.Analysis, k int, allowed map[string]bool) *baselines.Result {
	outcome := a.View.MustColumn(a.Result.Outcome).Floats()

	type scored struct {
		name string
		vals []float64
		corr float64
	}
	var top []scored
	consider := func(name string, vals []float64) {
		if allowed != nil && !allowed[name] {
			return
		}
		c := math.Abs(stats.Pearson(vals, outcome))
		if math.IsNaN(c) {
			return
		}
		top = append(top, scored{name, vals, c})
		if len(top) > 80 {
			sort.SliceStable(top, func(i, j int) bool { return top[i].corr > top[j].corr })
			for i := 40; i < len(top); i++ {
				top[i].vals = nil
			}
			top = top[:40]
		}
	}
	// Input numeric columns.
	skip := map[string]bool{a.Result.Outcome: true}
	for _, g := range a.Result.Exposure {
		skip[g] = true
	}
	for _, col := range a.View.Columns() {
		if skip[col.Name] || (col.Typ != table.Float && col.Typ != table.Int) {
			continue
		}
		consider(col.Name, col.Floats())
	}
	// Extracted numeric attributes, materialized one at a time.
	if a.Extraction != nil {
		for _, attr := range a.Extraction.Attrs {
			if attr.Col.Typ != table.Float && attr.Col.Typ != table.Int {
				continue
			}
			consider(attr.Name, attr.Materialize().Floats())
		}
	}
	sort.SliceStable(top, func(i, j int) bool { return top[i].corr > top[j].corr })
	if len(top) > 40 {
		top = top[:40]
	}
	series := make([]baselines.NamedSeries, 0, len(top))
	for _, s := range top {
		series = append(series, baselines.NamedSeries{Name: s.name, Values: s.vals})
	}
	encOf := func(name string) *bins.Encoded {
		c := a.Candidate(name)
		if c == nil {
			return nil
		}
		e, _, err := c.Vectors()
		if err != nil {
			return nil
		}
		return e
	}
	return baselines.LinearRegression(outcome, series, a.T, a.O, encOf, k)
}
