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
	"sync"

	"nexus/internal/bins"
	"nexus/internal/obs"
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

// Candidate is one candidate confounding attribute. It owns every vector
// derived from it: the three constructors below (FromEncoded, FromColumn,
// FromEntity) build candidates whose Enc and Weights compute once and are
// shared by every phase and every run that touches the candidate, so the
// pipeline calls them freely and keeps no memo of its own.
type Candidate struct {
	// Name identifies the attribute in explanations.
	Name string
	// Origin distinguishes input-table columns from extracted attributes.
	Origin Origin
	// Hops is the extraction depth for KG attributes (0 for input columns).
	Hops int

	// Enc produces the row-level encoding aligned with the analysis view. It
	// is called by every phase that needs the vector and must be safe for
	// concurrent use. For a candidate with an entity form it is the slot-level
	// encoding broadcast to rows.
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
	// reproduce it from the registered dataset. Entity-form candidates
	// permute at entity level, leave it false and keep the in-process
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

// vectors returns the candidate's row-level encoding and its IPW weights
// (nil when it has none).
func (c *Candidate) vectors() (*bins.Encoded, []float64, error) {
	enc, err := c.Enc()
	if err != nil || c.Weights == nil {
		return enc, nil, err
	}
	return enc, c.Weights(enc), nil
}

// Entity is the entity form of a candidate (see Candidate.Entity and
// FromEntity). On a built candidate Enc and Weights are safe for concurrent
// use and compute once.
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

// FromEntity builds a KG-origin candidate from its entity form and derives
// everything row-level from it: Enc is the slot encoding broadcast through
// ent.Slots (each broadcast counted as obs.KGRowEncodings in counters, nil =
// uncounted), Weights the slot weights broadcast the same way (0 for an
// unresolved row), and Permute the null model of an extracted attribute —
// the slot codes shuffled among the observed slots (ShuffleObserved), then
// broadcast. Each vector is computed on first use and kept for the life of
// the candidate; the suppliers ent.Enc and ent.Weights are called at most once
// and need not memoise or be safe for concurrent use.
func FromEntity(name string, hops int, ent *Entity, counters *obs.Counters) *Candidate {
	slots := ent.Slots
	form := &Entity{Slots: slots, Enc: sync.OnceValues(ent.Enc)}
	broadcast := func(slotEnc *bins.Encoded) *bins.Encoded {
		out := slotEnc.Broadcast(slots)
		out.Name = name
		return out
	}
	c := &Candidate{Name: name, Origin: OriginKG, Hops: hops, Entity: form}
	c.Enc = sync.OnceValues(func() (*bins.Encoded, error) {
		counters.Add(obs.KGRowEncodings, 1)
		slotEnc, err := form.Enc()
		if err != nil {
			return nil, err
		}
		return broadcast(slotEnc), nil
	})
	c.Permute = func(rng *stats.RNG) (*bins.Encoded, error) {
		slotEnc, err := form.Enc()
		if err != nil {
			return nil, err
		}
		return broadcast(ShuffleObserved(slotEnc, rng)), nil
	}
	if ent.Weights == nil {
		return c
	}
	form.Weights = sync.OnceValue(ent.Weights)
	rowWeights := sync.OnceValue(func() []float64 {
		sw := form.Weights()
		if sw == nil {
			return nil
		}
		w := make([]float64, len(slots))
		for i, s := range slots {
			if s >= 0 {
				w[i] = sw[s]
			}
		}
		return w
	})
	c.Weights = func(*bins.Encoded) []float64 { return rowWeights() }
	return c
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
