// Package distwire defines the JSON-over-HTTP protocol between an
// explanation coordinator and its stateless scoring workers
// (internal/distworker) — the wire half of the distributed scoring fleet, in the same idiom as
// internal/kgwire.
//
//	POST /dist/v1/dataset   register an encoded dataset under its fingerprint
//	POST /dist/v1/score     execute a batch of work units against a dataset
//	GET  /dist/v1/stats     per-endpoint request counters, faults, cache size
//	GET  /healthz           liveness (never fault-injected)
//
// The protocol is stateless by construction: a dataset is the full encoded
// input of one scoring context (columns, weights), registered once under a
// content fingerprint; every score request names the fingerprint and carries
// self-contained work units. A worker that restarts (or evicts the dataset
// from its LRU) answers 404 "unknown dataset", and the coordinator simply
// re-registers and retries — no session state, no affinity.
//
// Work units come in two kinds, mirroring the core.Scorer seam:
//
//   - "relevance": score I(O;T|E_i) for a batch of candidate columns.
//   - "perm": evaluate a permutation-test block with explicit seeds. The
//     permuted copies are core.ShuffleObserved of the candidate column, so
//     permutation i depends only on Seeds[i] — any worker reproduces it.
//
// Any other kind, such as the "subgroup" units of older coordinators, is
// rejected with 400.
//
// Replies are index-aligned with their requests. The coordinator merges
// them in serial argument order, so the assembled result is byte-identical
// to single-process scoring. Integers and floats survive the JSON round
// trip exactly: codes are int32, seeds decode into uint64 fields without a
// float detour, and Go marshals float64 in shortest round-trip form.
//
// Convention: HTTP 400 marks a permanently broken request (malformed JSON,
// bounds violation) — clients must not retry it. 404 marks an unknown
// dataset (re-register, then retry). 5xx and transport errors are
// transient.
package distwire

import (
	"fmt"

	"nexus/internal/bins"
	"nexus/internal/core"
	"nexus/internal/counting"
)

// Endpoint paths.
const (
	PathDataset = "/dist/v1/dataset"
	PathScore   = "/dist/v1/score"
	PathStats   = "/dist/v1/stats"
	PathHealthz = "/healthz"
)

// Work-unit kinds.
const (
	KindRelevance = "relevance"
	KindPerm      = "perm"
)

// Permutation-test operations (string forms of core.PermResp / core.PermGain).
const (
	OpResp = string(core.PermResp)
	OpGain = string(core.PermGain)
)

// ColPayload is the index of the first payload column in Dataset.Cols:
// column 0 is always the exposure T and column 1 the outcome O.
const ColPayload = 2

// Column is the wire form of a bins.Encoded (labels are presentation-only
// and never shipped; scoring depends only on codes and cardinality).
type Column struct {
	Name  string  `json:"name"`
	Card  int     `json:"card"`
	Codes []int32 `json:"codes"`
}

// FromEncoded converts an encoded column to its wire form, aliasing the
// codes slice (the caller must not mutate it while a request is in flight).
// Wire columns are row-level: an indirect column (a KG candidate, or a
// selected prefix that is one, see bins.Encoded.Slots) is broadcast to rows
// here, the one place the fleet's columns are built from the slot form.
func FromEncoded(e *bins.Encoded) Column {
	if e.Slots != nil {
		e = e.Broadcast(e.Slots)
	}
	return Column{Name: e.Name, Card: e.Card, Codes: e.Codes}
}

// ToEncoded converts a wire column back to the encoding the scoring kernels
// consume.
func (c Column) ToEncoded() *bins.Encoded {
	return &bins.Encoded{Name: c.Name, Card: c.Card, Codes: c.Codes}
}

// Dataset is one registered scoring context. Cols[0] is the exposure T,
// Cols[1] the outcome O; the payload columns from ColPayload on are the
// MCIMR candidates. Weights is index-aligned with Cols (nil entries =
// unweighted).
type Dataset struct {
	Fingerprint string      `json:"fingerprint"`
	Cols        []Column    `json:"cols"`
	Weights     [][]float64 `json:"weights,omitempty"`
}

// Validate checks structural invariants shared by client and server.
func (d *Dataset) Validate() error {
	if d.Fingerprint == "" {
		return fmt.Errorf("distwire: dataset without fingerprint")
	}
	if len(d.Cols) < ColPayload {
		return fmt.Errorf("distwire: dataset %s has %d columns, need at least %d (T, O)", d.Fingerprint, len(d.Cols), ColPayload)
	}
	n := len(d.Cols[0].Codes)
	for i, c := range d.Cols {
		if len(c.Codes) != n {
			return fmt.Errorf("distwire: dataset %s column %d (%s) has %d rows, want %d", d.Fingerprint, i, c.Name, len(c.Codes), n)
		}
	}
	if d.Weights != nil && len(d.Weights) != len(d.Cols) {
		return fmt.Errorf("distwire: dataset %s has %d weight vectors for %d columns", d.Fingerprint, len(d.Weights), len(d.Cols))
	}
	for i, w := range d.Weights {
		if w != nil && len(w) != n {
			return fmt.Errorf("distwire: dataset %s weight vector %d covers %d rows, want %d", d.Fingerprint, i, len(w), n)
		}
	}
	return nil
}

// Rows returns the dataset's row count.
func (d *Dataset) Rows() int {
	if len(d.Cols) == 0 {
		return 0
	}
	return len(d.Cols[0].Codes)
}

// FromScoreContext builds the wire dataset of an MCIMR scoring context.
// Slices of row-level columns and weights are aliased, not copied; an
// indirect candidate and its per-slot weights are broadcast to rows.
func FromScoreContext(sc *core.ScoreContext) Dataset {
	d := Dataset{
		Fingerprint: sc.Fingerprint(),
		Cols:        make([]Column, 0, ColPayload+len(sc.Cands)),
		Weights:     make([][]float64, ColPayload, ColPayload+len(sc.Cands)),
	}
	d.Cols = append(d.Cols, FromEncoded(sc.T), FromEncoded(sc.O))
	for i, c := range sc.Cands {
		d.Cols = append(d.Cols, FromEncoded(c))
		w := sc.Weights[i]
		if c.Slots != nil {
			w = counting.Weights{W: w, Slots: c.Slots}.Rows()
		}
		d.Weights = append(d.Weights, w)
	}
	return d
}

// Context rebuilds the core scoring context from a registered dataset. The
// returned context aliases the dataset's slices.
func (d *Dataset) Context() *core.ScoreContext {
	sc := &core.ScoreContext{T: d.Cols[0].ToEncoded(), O: d.Cols[1].ToEncoded(),
		Cands:   make([]*bins.Encoded, len(d.Cols)-ColPayload),
		Weights: make([][]float64, len(d.Cols)-ColPayload)}
	for i := ColPayload; i < len(d.Cols); i++ {
		sc.Cands[i-ColPayload] = d.Cols[i].ToEncoded()
		if d.Weights != nil {
			sc.Weights[i-ColPayload] = d.Weights[i]
		}
	}
	return sc
}

// Unit is one self-contained work unit. Kind selects which fields apply:
//
//   - KindRelevance: Cands (candidate indices, relative to the payload
//     columns) → UnitResult.Values.
//   - KindPerm: Cand, Op, Observed, Seeds, Allow and the optional inline
//     Given composite → UnitResult.Exceed + Ran.
type Unit struct {
	Kind string `json:"kind"`

	Cands []int `json:"cands,omitempty"`

	Cand     int      `json:"cand,omitempty"`
	Op       string   `json:"op,omitempty"`
	Observed float64  `json:"observed,omitempty"`
	Seeds    []uint64 `json:"seeds,omitempty"`
	Allow    int      `json:"allow,omitempty"`
	Given    *Column  `json:"given,omitempty"`
}

// Validate checks the unit against its dataset's bounds.
func (u *Unit) Validate(d *Dataset) error {
	payload := len(d.Cols) - ColPayload
	switch u.Kind {
	case KindRelevance:
		for _, ci := range u.Cands {
			if ci < 0 || ci >= payload {
				return fmt.Errorf("distwire: relevance unit names candidate %d of %d", ci, payload)
			}
		}
	case KindPerm:
		if u.Cand < 0 || u.Cand >= payload {
			return fmt.Errorf("distwire: perm unit names candidate %d of %d", u.Cand, payload)
		}
		if u.Op != OpResp && u.Op != OpGain {
			return fmt.Errorf("distwire: perm unit with unknown op %q", u.Op)
		}
		if u.Given != nil && len(u.Given.Codes) != d.Rows() {
			return fmt.Errorf("distwire: perm unit composite covers %d rows, want %d", len(u.Given.Codes), d.Rows())
		}
	default:
		return fmt.Errorf("distwire: unknown unit kind %q", u.Kind)
	}
	return nil
}

// UnitResult is the index-aligned reply to one Unit: Values for relevance
// units, Exceed + Ran for perm units.
type UnitResult struct {
	Values []float64 `json:"values,omitempty"`
	Exceed []bool    `json:"exceed,omitempty"`
	Ran    int       `json:"ran,omitempty"`
}

// RegisterRequest registers a dataset with a worker.
type RegisterRequest struct {
	Dataset Dataset `json:"dataset"`
}

// RegisterResponse acknowledges a registration.
type RegisterResponse struct {
	Rows int `json:"rows"`
	Cols int `json:"cols"`
}

// ScoreRequest executes Units against the dataset registered under
// Fingerprint.
type ScoreRequest struct {
	Fingerprint string `json:"fingerprint"`
	Units       []Unit `json:"units"`
}

// ScoreResponse carries one result per request unit, index-aligned.
type ScoreResponse struct {
	Results []UnitResult `json:"results"`
}

// StatsResponse reports a worker's effort so far.
type StatsResponse struct {
	Requests map[string]int64 `json:"requests"`
	Injected int64            `json:"injected"`
	Datasets int              `json:"datasets"`
	Units    int64            `json:"units"`
}
