package infotheory

import (
	"nexus/internal/bins"
	"nexus/internal/counting"
)

// References the tests compare the fused estimators against
// (TestChainRuleProperty, TestJointEntropyMatchesOracleBitwise,
// TestScreenMatchesComponents, TestScreenAllMatchesUnfused); nothing outside
// the tests calls them.

// Screen returns, from one counting pass, the relevance I(O;T|E) and the
// conditional entropies H(O|E) and H(T|E) over the joint complete cases.
func Screen(o, t, e Var, w []float64) (rel, hOgivenE, hTgivenE float64) {
	s := cmi(o, t, []Var{e}, Weights{W: w})
	return s.mi, s.hx, s.hy
}

// JointEntropy returns H(X1, ..., Xk) in bits over rows where every variable
// is present.
func JointEntropy(xs []Var, w []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := xs[0].Len()
	ids, card := DenseIDs(xs, n)
	v := counting.CountVecOf(counting.Dim{Codes: ids, Card: card}, Weights{W: w})
	h := entropyOf(v.Counts, v.Total)
	v.Release()
	return h
}

// maskedWeights zeroes the weight of any row where one of the variables is
// missing so that joint and marginal entropies are computed over the same
// complete-case population.
func maskedWeights(vars []Var, w []float64) []float64 {
	if len(vars) == 0 {
		return w
	}
	n := vars[0].Len()
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		miss := false
		for _, v := range vars {
			if v.Codes[i] == bins.Missing {
				miss = true
				break
			}
		}
		if miss {
			continue
		}
		out[i] = weightAt(w, i)
	}
	return out
}

func weightAt(w []float64, i int) float64 {
	if w == nil {
		return 1
	}
	return w[i]
}
