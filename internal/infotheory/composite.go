package infotheory

import "nexus/internal/bins"

// JoinVars folds a conditioning set into a single composite variable whose
// codes are the DenseIDs of the set: each distinct combination of the input
// codes becomes one code, and a row where any input is missing becomes
// Missing. Conditioning on the composite is exactly conditioning on the set
// (the row partition is identical), so
//
//	CondMutualInfo(x, y, []Var{JoinVars("", vars)}, w)
//	  == CondMutualInfo(x, y, vars, w)
//
// but every subsequent estimator call pays one pass over a single
// pre-joined column instead of re-deriving the joint id of k columns. This
// is the paper's (k+2)-variable contingency pass collapsed to a 3-variable
// one — the trick MCIMR's consider loop, the responsibility test, the
// calibrated gain test and the subgroup lattice search all share, because
// each of them evaluates many candidates (or lattice nodes) against the
// same selected prefix.
//
// The code assignment matches DenseIDs' product indexing, so joining
// incrementally — JoinVars("E", JoinVars("E", e1, e2), e3) — yields the
// same codes as JoinVars("E", e1, e2, e3) whenever the running cardinality
// product stays within the dense bound; beyond it the ids fall back to
// first-seen numbering (the partition, and hence every estimate, is
// unaffected).
//
// With zero variables JoinVars returns nil (the empty conditioning set);
// with one direct variable it returns that variable unchanged, and one
// indirect variable (bins.Encoded.Slots) it reads into rows once, so every
// later pass conditions on a plain column.
func JoinVars(name string, vars ...Var) Var {
	switch {
	case len(vars) == 0:
		return nil
	case len(vars) == 1 && vars[0].Slots == nil:
		return vars[0]
	}
	n := vars[0].Len()
	ids, card := DenseIDs(vars, n)
	return &bins.Encoded{Name: name, Codes: ids, Card: card}
}
