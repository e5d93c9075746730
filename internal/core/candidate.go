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
	"nexus/internal/infotheory"
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
// FromEntity) build candidates whose vectors compute once and are shared by
// every phase and every run that touches the candidate, so the pipeline
// calls them freely and keeps no memo of its own. Whoever scores a candidate
// — the pipeline, the baselines, the experiments — reads it through Vectors.
type Candidate struct {
	// Name identifies the attribute in explanations.
	Name string
	// Origin distinguishes input-table columns from extracted attributes.
	Origin Origin
	// Hops is the extraction depth for KG attributes (0 for input columns).
	Hops int

	// Enc produces the encoding aligned with the analysis view. It must be
	// safe for concurrent use. For a candidate with an entity form it is the
	// slot-level encoding broadcast to rows — n codes that no scorer reads
	// (Vectors reads the entity form); only the benchmark's staged screen
	// pass and the tests' broadcast oracles ask for them.
	Enc func() (*bins.Encoded, error)

	// Weights optionally produces IPW weights (package missing) for the
	// candidate's complete cases when selection bias was detected, one per
	// row of enc; nil disables weighting for this candidate. Must be safe
	// for concurrent use. Like Enc, an entity form's row weights are read
	// only by the benchmark and the tests' oracles.
	Weights func(enc *bins.Encoded) []float64

	// Permute returns an encoding whose values are randomly permuted at the
	// candidate's source granularity — across entities for KG attributes
	// (the slot codes shuffled, read through the same row→slot map), across
	// rows for input columns. It powers the permutation-based
	// responsibility test: entity-level attributes can correlate with the
	// outcome by chance at entity granularity, a signal row-level χ²
	// corrections cannot calibrate away. Nil falls back to the analytic
	// debiased-CMI test.
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
	// row→slot map say everything Enc's n-long vector does. The scoring core
	// works from it alone: the offline prune from slot codes × rows per
	// slot; the online prune and MCIMR by folding the link column's slot
	// cubes (counting.SlotCube) — the screen, and MCIMR's relevance,
	// responsibility and gain statistics of the candidate and of its
	// permuted draws, its gain guard and its redundancy pass — wherever the
	// statistic is unweighted and its row pass dense; otherwise, and for the
	// final score, by a row pass that reads the slot codes and slot weights
	// through the map (Vectors). Either way the bits are the same. Stripping
	// the field selects the row path, which gives the same verdicts.
	Entity *Entity

	// EntityCard/EntityComplete are source-granularity statistics used by
	// offline pruning (a wikiID is unique per *entity*, not per row). Zero
	// means "use row-level statistics".
	EntityCard     int
	EntityComplete int
}

// Vectors returns what a scorer reads of the candidate: its encoding and its
// IPW weights (nil when it has none), the weights in the encoding's form. An
// entity form gives its slot encoding read through the row→slot map
// (bins.Encoded.Slots) and its slot weights, so nothing n-long is built;
// every other candidate gives Enc and Weights. It is the one reading of a
// candidate: the scoring core, the baselines and the experiments all score
// what it returns (see SetScore).
func (c *Candidate) Vectors() (*bins.Encoded, []float64, error) {
	if e := c.Entity; e != nil {
		enc, err := e.Encoding(c.Name)
		if err != nil || e.Weights == nil {
			return enc, nil, err
		}
		return enc, e.Weights(), nil
	}
	enc, err := c.Enc()
	if err != nil || c.Weights == nil {
		return enc, nil, err
	}
	return enc, c.Weights(enc), nil
}

// weightsOf pairs a candidate's weights with its encoding's row→slot map.
func weightsOf(enc *bins.Encoded, w []float64) infotheory.Weights {
	return infotheory.Weights{W: w, Slots: enc.Slots}
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

// Encoding is the entity form as one indirect column named name: the slot
// codes read through Slots. It shares the slot encoding's codes.
func (e *Entity) Encoding(name string) (*bins.Encoded, error) {
	slotEnc, err := e.Enc()
	if err != nil {
		return nil, err
	}
	return &bins.Encoded{Name: name, Codes: slotEnc.Codes, Card: slotEnc.Card, Labels: slotEnc.Labels, Slots: e.Slots}, nil
}

// FromEntity builds a KG-origin candidate from its entity form. Every scorer
// reads the form itself (Vectors); Permute is the null model of an extracted
// attribute — the slot codes shuffled among the observed slots
// (ShuffleObserved), under the same map, so a draw costs the slots, not the
// rows. Enc and Weights broadcast the slot encoding and slot weights through
// ent.Slots (0 for an unresolved row's weight), each computed on first use
// and kept for the life of the candidate, for the benchmark's staged screen
// pass and the tests' broadcast oracles; every broadcast encoding is counted
// as obs.KGRowEncodings in counters (nil = uncounted). The suppliers ent.Enc
// and ent.Weights are called at most once and need not memoise or be safe
// for concurrent use.
func FromEntity(name string, hops int, ent *Entity, counters *obs.Counters) *Candidate {
	slots := ent.Slots
	if slots == nil {
		slots = []int32{} // a zero-row view: the indirect form still has no rows
	}
	form := &Entity{Slots: slots, Enc: sync.OnceValues(ent.Enc)}
	c := &Candidate{Name: name, Origin: OriginKG, Hops: hops, Entity: form}
	c.Enc = sync.OnceValues(func() (*bins.Encoded, error) {
		counters.Add(obs.KGRowEncodings, 1)
		enc, err := form.Encoding(name)
		if err != nil {
			return nil, err
		}
		return enc.Broadcast(slots), nil
	})
	c.Permute = func(rng *stats.RNG) (*bins.Encoded, error) {
		enc, err := form.Encoding(name)
		if err != nil {
			return nil, err
		}
		return ShuffleObserved(enc, rng), nil
	}
	if ent.Weights == nil {
		return c
	}
	form.Weights = sync.OnceValue(ent.Weights)
	rowWeights := sync.OnceValue(func() []float64 {
		return infotheory.Weights{W: form.Weights(), Slots: slots}.Rows()
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
// candidate with a row-level permutation for the responsibility test. Its
// row statistics are its source statistics, so it sets no EntityCard: a
// string column's Card is its count of distinct values, and its Missing codes
// are its nulls.
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

// weightProduct multiplies weight vectors elementwise, each read in its own
// form, treating a nil W as all ones. With no weighted input the result is
// unweighted; with one it is that input as it is, so a candidate's slot
// weights stay slot weights. Only a product of two or more builds a row
// vector: the first input broadcast to rows, then multiplied by the others
// left to right — the float operations of multiplying their broadcasts, an
// unresolved row's weight 0 included.
func weightProduct(ws ...infotheory.Weights) infotheory.Weights {
	var first infotheory.Weights
	var out []float64
	for _, w := range ws {
		switch {
		case w.W == nil:
			continue
		case first.W == nil:
			first = w
			continue
		case out == nil:
			out = first.Rows()
		}
		if w.Slots == nil {
			for r := range out {
				out[r] *= w.W[r]
			}
			continue
		}
		for r, s := range w.Slots {
			wt := 0.0
			if s >= 0 {
				wt = w.W[s]
			}
			out[r] *= wt
		}
	}
	if out == nil {
		return first
	}
	return infotheory.Weights{W: out}
}
