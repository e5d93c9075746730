package server

import (
	"time"

	"nexus"
	"nexus/internal/subgroups"
)

// ExplainRequest is the JSON body of POST /v1/explain.
type ExplainRequest struct {
	// SQL is the aggregate query to explain (required).
	SQL string `json:"sql"`
	// Subgroups, when > 0, also reports the top-k largest unexplained
	// subgroups (Algorithm 2) in the response.
	Subgroups int `json:"subgroups,omitempty"`
	// Tau is the subgroup threshold; ≤ 0 selects the paper-style default
	// max(0.2, 2 × explanation score).
	Tau float64 `json:"tau,omitempty"`
	// TimeoutMS bounds the request's wall-clock time, its wait for a worker
	// included. 0 selects the server default; values above the server
	// maximum are clamped to it.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// ExplainAttr is one selected attribute of an explanation.
type ExplainAttr struct {
	Name string `json:"name"`
	// Origin is "input" for dataset columns, "kg" for extracted attributes.
	Origin string `json:"origin"`
	// Hops is the extraction depth (0 for input columns).
	Hops int `json:"hops,omitempty"`
	// Relevance is the attribute's individual I(O;T|C,E) in bits.
	Relevance float64 `json:"relevance_bits"`
	// Responsibility is the Def. 2.5 share within the explanation.
	Responsibility float64 `json:"responsibility"`
}

// SubgroupResult is one unexplained subgroup.
type SubgroupResult struct {
	// Conditions renders the refinement, e.g. "Continent == Europe".
	Conditions string `json:"conditions"`
	Size       int    `json:"size"`
	// Score is I(O;T|C',E) inside the subgroup, in bits.
	Score float64 `json:"score_bits"`
}

// ExplainResponse is the JSON result of a completed explanation.
type ExplainResponse struct {
	Query string `json:"query"`
	// BaseScore is I(O;T|C) in bits — the unexplained correlation.
	BaseScore float64 `json:"base_score_bits"`
	// Score is I(O;T|C,E) for the selected set, in bits.
	Score float64 `json:"score_bits"`
	// ExplainedFraction is 1 - Score/BaseScore clamped to [0,1].
	ExplainedFraction float64       `json:"explained_fraction"`
	Attributes        []ExplainAttr `json:"attributes"`
	// Candidates / BiasedCandidates count the candidate pool and how many
	// extracted attributes received IPW weights for selection bias (only
	// those that reached a weighted test were tested; Analysis.NumBiased).
	Candidates       int `json:"candidates"`
	BiasedCandidates int `json:"biased_candidates"`
	// Subgroups, SubgroupNodesExplored and SubgroupsExhausted are present
	// when the request asked for subgroups. SubgroupsExhausted is
	// subgroups.Stats.Exhausted, why the search stopped: true when the
	// lattice ran out of refinements, false when k groups or the node budget
	// ended it first.
	Subgroups             []SubgroupResult `json:"subgroups,omitempty"`
	SubgroupNodesExplored int              `json:"subgroup_nodes_explored,omitempty"`
	SubgroupsExhausted    *bool            `json:"subgroups_exhausted,omitempty"`
	ElapsedMS             float64          `json:"elapsed_ms"`
}

// buildResponse converts a finished report (plus optional subgroups) into
// the wire shape.
func buildResponse(rep *nexus.Report, groups []subgroups.Group, groupStats subgroups.Stats, withGroups bool, elapsed time.Duration) *ExplainResponse {
	ex := rep.Explanation
	resp := &ExplainResponse{
		Query:             rep.Analysis.Query.String(),
		BaseScore:         ex.BaseScore,
		Score:             ex.Score,
		ExplainedFraction: rep.ExplainedFraction(),
		Attributes:        make([]ExplainAttr, 0, len(ex.Attrs)),
		Candidates:        len(rep.Analysis.Candidates),
		BiasedCandidates:  rep.Analysis.NumBiased(),
		ElapsedMS:         float64(elapsed.Microseconds()) / 1000,
	}
	for _, a := range ex.Attrs {
		resp.Attributes = append(resp.Attributes, ExplainAttr{
			Name:           a.Name,
			Origin:         string(a.Origin),
			Hops:           a.Hops,
			Relevance:      a.Relevance,
			Responsibility: a.Responsibility,
		})
	}
	if withGroups {
		resp.Subgroups = make([]SubgroupResult, 0, len(groups))
		for _, g := range groups {
			resp.Subgroups = append(resp.Subgroups, SubgroupResult{
				Conditions: g.String(),
				Size:       g.Size,
				Score:      g.Score,
			})
		}
		resp.SubgroupNodesExplored = groupStats.Explored
		resp.SubgroupsExhausted = &groupStats.Exhausted
	}
	return resp
}

// errorBody is the JSON error envelope of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
	// Kind classifies the failure: bad_request, timeout, cancelled,
	// queue_full, draining, internal.
	Kind string `json:"kind"`
	Code int    `json:"code"`
}
