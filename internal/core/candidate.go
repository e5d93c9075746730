// Package core implements the paper's primary contribution: the
// Correlation-Explanation problem (Def. 2.3), the MCIMR algorithm (Alg. 1)
// with its responsibility-test stopping criterion (Lemma 4.2), degree-of-
// responsibility ranking (Def. 2.5), and the offline/online pruning
// optimizations (§4.2).
//
// The algorithms operate on an analysis view: the context-filtered relation
// produced by the query executor, with the exposure T and outcome O encoded
// by package bins. Candidate attributes are supplied lazily so that
// million-row datasets never materialize the full candidate matrix.
package core

import (
	"fmt"

	"nexus/internal/bins"
	"nexus/internal/stats"
	"nexus/internal/table"
)

// Origin records where a candidate attribute came from.
type Origin string

// Candidate origins.
const (
	OriginInput Origin = "input" // a column of the input dataset 𝒟
	OriginKG    Origin = "kg"    // extracted from the knowledge source ℰ
)

// Candidate is one candidate confounding attribute.
type Candidate struct {
	// Name identifies the attribute in explanations.
	Name string
	// Origin distinguishes input-table columns from extracted attributes.
	Origin Origin
	// Hops is the extraction depth for KG attributes (0 for input columns).
	Hops int

	// Enc produces the row-level encoding aligned with the analysis view.
	// It may be called multiple times; implementations decide whether to
	// cache. It must be safe for concurrent use. For a candidate with an
	// entity form it is the slot-level encoding broadcast to rows.
	Enc func() (*bins.Encoded, error)

	// Weights optionally produces IPW weights (package missing) for the
	// candidate's complete cases when selection bias was detected; nil
	// disables weighting for this candidate. Must be safe for concurrent
	// use.
	Weights func(enc *bins.Encoded) []float64

	// Permute returns an encoding whose values are randomly permuted at the
	// candidate's source granularity — across entities for KG attributes
	// (then broadcast to rows), across rows for input columns. It powers
	// the permutation-based responsibility test: entity-level attributes
	// can correlate with the outcome by chance at entity granularity, a
	// signal row-level χ² corrections cannot calibrate away. Nil falls back
	// to the analytic debiased-CMI test.
	Permute func(rng *stats.RNG) (*bins.Encoded, error)

	// WirePerm marks Permute as the canonical row-level shuffle
	// (ShuffleObserved of Enc's encoding): a permuted copy is a pure
	// function of the encoding and an RNG seed, so a remote Scorer can
	// reproduce it from the registered dataset. Candidates with a custom
	// source-granularity Permute (KG attributes permute at entity level
	// through their own closures) leave it false and keep the in-process
	// permutation-test path.
	WirePerm bool

	// Entity, when non-nil, is the candidate's entity form: the candidate is
	// a function of a linked entity, so one code per entity slot plus the
	// row→slot map say everything Enc's n-long vector does. Both prunes work
	// from it (offline from slot codes × rows per slot, online by folding
	// the run's (slot, T, O) cube), and Enc is only called for what survives
	// them, for candidates that carry IPW weights — weighted tallies are not
	// folded, see counting.SlotCube — and past counting.MaxDense. Stripping
	// the field selects the row path, which gives the same verdicts.
	Entity *Entity

	// EntityCard/EntityComplete are source-granularity statistics used by
	// offline pruning (a wikiID is unique per *entity*, not per row). Zero
	// means "use row-level statistics".
	EntityCard     int
	EntityComplete int
}

// Entity is the entity form of a candidate (see Candidate.Entity). Enc and
// Weights must be safe for concurrent use and are expected to memoise.
type Entity struct {
	// Slots maps each view row to its entity slot, -1 for an unresolved row.
	// Candidates extracted through one link column share one map (the same
	// backing array); a prune run tallies each distinct map once.
	Slots []int32
	// Enc returns the slot-level encoding: one code per slot.
	Enc func() (*bins.Encoded, error)
	// Weights returns per-slot IPW weights, nil when no selection bias was
	// detected. A nil func means the candidate is never weighted.
	// Candidate.Weights is this vector broadcast through Slots.
	Weights func() []float64
}

// FromEncoded wraps a pre-computed encoding as a candidate.
func FromEncoded(enc *bins.Encoded, origin Origin) *Candidate {
	return &Candidate{
		Name:   enc.Name,
		Origin: origin,
		Enc:    func() (*bins.Encoded, error) { return enc, nil },
	}
}

// FromColumn encodes a table column eagerly and wraps it as an input-origin
// candidate with a row-level permutation for the responsibility test.
func FromColumn(col *table.Column, opts bins.Options) (*Candidate, error) {
	enc, err := bins.Encode(col, opts)
	if err != nil {
		return nil, fmt.Errorf("core: encoding column %q: %w", col.Name, err)
	}
	c := FromEncoded(enc, OriginInput)
	// Row-level shuffle of observed codes among observed positions,
	// preserving the missingness pattern (the valid null under biased
	// missingness). ShuffleObserved is shared with the Scorer seam, so a
	// worker reproduces the same permuted copy from the same seed.
	c.Permute = func(rng *stats.RNG) (*bins.Encoded, error) {
		return ShuffleObserved(enc, rng), nil
	}
	c.WirePerm = true
	// Raw-value uniqueness only matters for categorical columns (see the
	// high-entropy prune); numeric columns are binned.
	if col.Typ == table.String {
		c.EntityCard = col.DistinctCount()
		c.EntityComplete = col.Len() - col.NullCount()
	}
	return c, nil
}

// CandidatesFromTable builds input-origin candidates for every column of t
// except those named in exclude (typically T, O and join keys).
func CandidatesFromTable(t *table.Table, exclude []string, opts bins.Options) ([]*Candidate, error) {
	skip := make(map[string]bool, len(exclude))
	for _, e := range exclude {
		skip[e] = true
	}
	var out []*Candidate
	for _, col := range t.Columns() {
		if skip[col.Name] {
			continue
		}
		c, err := FromColumn(col, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// CombineExposure merges multiple grouping attributes into a single encoded
// exposure variable (the paper's "multiple grouping attributes"
// generalization): each distinct combination becomes one code.
func CombineExposure(parts []*bins.Encoded) *bins.Encoded {
	if len(parts) == 1 {
		return parts[0]
	}
	n := parts[0].Len()
	out := &bins.Encoded{Name: "exposure", Codes: make([]int32, n)}
	seen := make(map[uint64]int32)
	for i := 0; i < n; i++ {
		var key uint64
		miss := false
		for _, p := range parts {
			c := p.Codes[i]
			if c == bins.Missing {
				miss = true
				break
			}
			key = key*1000003 + uint64(c) + 1
		}
		if miss {
			out.Codes[i] = bins.Missing
			continue
		}
		code, ok := seen[key]
		if !ok {
			code = int32(len(seen))
			seen[key] = code
		}
		out.Codes[i] = code
	}
	out.Card = len(seen)
	return out
}

// combineWeights multiplies weight vectors elementwise, treating nil as
// all-ones. Returns nil when every input is nil.
func combineWeights(ws ...[]float64) []float64 {
	var out []float64
	for _, w := range ws {
		if w == nil {
			continue
		}
		if out == nil {
			out = append([]float64(nil), w...)
			continue
		}
		for i := range out {
			out[i] *= w[i]
		}
	}
	return out
}
