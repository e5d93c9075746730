package baselines

import (
	"sort"
	"time"

	"nexus/internal/bins"
	"nexus/internal/core"
	"nexus/internal/infotheory"
	"nexus/internal/stats"
)

const (
	// hypDBMaxAttrs caps the candidate set by uniform random sampling,
	// exactly as the paper had to do (|A| ≤ 50) to make HypDB terminate.
	hypDBMaxAttrs = 50
	// hypDBSeed drives the random candidate capping.
	hypDBSeed = 7
	// hypDBMaxParentSet bounds the exponential covariate-set search: its cost
	// is Σ C(n, i) for i ≤ hypDBMaxParentSet — the blow-up that makes HypDB
	// unable to scale (§5.1).
	hypDBMaxParentSet = 3
	// hypDBCIThreshold is the conditional-independence threshold of the
	// covariate-detection tests.
	hypDBCIThreshold = 0.02
)

// capCandidates caps the candidates uniformly at random (paper §5.1): at most
// hypDBMaxAttrs of them, the same ones on every call.
func capCandidates(cands []*core.Candidate) []*core.Candidate {
	if len(cands) <= hypDBMaxAttrs {
		return cands
	}
	perm := stats.NewRNG(hypDBSeed).Perm(len(cands))
	capped := make([]*core.Candidate, hypDBMaxAttrs)
	for i := range capped {
		capped[i] = cands[perm[i]]
	}
	return capped
}

// HypDB implements the relevant behaviour of the HypDB comparator (Salimi et
// al. 2018): detect covariates by conditional-independence tests (an
// attribute is a potential confounder when it is dependent on both T and O), search covariate subsets exhaustively for the set that most
// reduces I(O;T|·), and rank the attributes of the best set (plus remaining
// covariates) by individual responsibility. Its cost is exponential in the
// number of covariates, which is why the candidate set must be capped. k is
// the explanation size (top-k covariates by responsibility; ≤ 0 means 5).
func HypDB(t, o *bins.Encoded, cands []*core.Candidate, k int) (*Result, error) {
	start := time.Now()
	if k <= 0 {
		k = 5
	}

	working := capCandidates(cands)

	// Covariate detection: dependent on T, and on O given T.
	type covariate struct {
		cand *core.Candidate
		enc  *bins.Encoded
		drop float64 // I(O;T) - I(O;T|E)
	}
	base := infotheory.MutualInfo(o, t, nil)
	var covs []covariate
	for _, c := range working {
		enc, err := c.Enc()
		if err != nil {
			return nil, err
		}
		if infotheory.CondIndependent(enc, t, nil, infotheory.Weights{}, hypDBCIThreshold) {
			continue
		}
		// Marginal dependence on the outcome. (Testing O given T is
		// degenerate for entity-level attributes: T determines the entity,
		// so I(E;O|T) is exactly 0 even for true confounders.)
		if infotheory.CondIndependent(enc, o, nil, infotheory.Weights{}, hypDBCIThreshold) {
			continue
		}
		drop := base - infotheory.CondMutualInfo(o, t, []infotheory.Var{enc}, infotheory.Weights{})
		covs = append(covs, covariate{cand: c, enc: enc, drop: drop})
	}
	sort.SliceStable(covs, func(a, b int) bool { return covs[a].drop > covs[b].drop })

	// Exponential parent-set search over the covariates (bounded): find the
	// subset that minimizes I(O;T|S).
	searchPool := covs
	if len(searchPool) > 20 {
		searchPool = searchPool[:20] // keep the demo tractable; cost is still Σ C(20,≤3)
	}
	bestScore := base
	var bestSet []int
	var cur []int
	var recur func(next int)
	recur = func(next int) {
		if len(cur) > 0 {
			sel := make([]*bins.Encoded, len(cur))
			for i, idx := range cur {
				sel[i] = searchPool[idx].enc
			}
			if s := infotheory.CondMutualInfo(o, t, sel, infotheory.Weights{}); s < bestScore {
				bestScore = s
				bestSet = append(bestSet[:0], cur...)
			}
		}
		if len(cur) == hypDBMaxParentSet {
			return
		}
		for i := next; i < len(searchPool); i++ {
			cur = append(cur, i)
			recur(i + 1)
			cur = cur[:len(cur)-1]
		}
	}
	recur(0)

	res := &Result{Method: MethodHypDB, Elapsed: time.Since(start), Score: bestScore}
	seen := map[string]bool{}
	for _, idx := range bestSet {
		name := searchPool[idx].cand.Name
		res.Attrs = append(res.Attrs, name)
		seen[name] = true
	}
	// Fill to K with the highest-responsibility remaining covariates.
	for _, cv := range covs {
		if len(res.Attrs) >= k {
			break
		}
		if !seen[cv.cand.Name] && cv.drop > 0 {
			res.Attrs = append(res.Attrs, cv.cand.Name)
			seen[cv.cand.Name] = true
		}
	}
	if len(res.Attrs) > k {
		res.Attrs = res.Attrs[:k]
	}
	res.Failed = len(res.Attrs) == 0
	if res.Failed {
		res.Score = base
	}
	return res, nil
}
