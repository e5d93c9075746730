// Package ned implements Named Entity Disambiguation: linking string values
// appearing in a table to entities of a knowledge graph (§3.1). The linker
// is deterministic: exact match, then normalized match, then alias match.
// It deliberately reproduces the failure modes the paper reports —
// unresolvable spelling variants ("Russian Federation" vs "Russia") and
// ambiguous names (two entities whose names normalize alike) — because
// failed links are a major source of missing values for the robustness
// machinery.
//
// The linker is a thin client-side layer over any kg.Source backend: the
// backend performs exact and normalized matching (for the in-memory
// *kg.Graph that is an index lookup; for a remote graph it is one batched
// HTTP round trip), and the linker overlays locally registered aliases.
// Backends can fail (a remote graph is reached over the network), so
// ResolveBatch returns errors; callers must never fold a transport error
// into an Unlinked outcome.
package ned

import (
	"context"
	"fmt"

	"nexus/internal/kg"
	"nexus/internal/obs"
)

// Outcome classifies a link attempt.
type Outcome int

// Link outcomes.
const (
	Linked    Outcome = iota // resolved to exactly one entity
	Unlinked                 // no candidate entity
	Ambiguous                // multiple candidate entities, refused
)

// Stats aggregates link outcomes over a workload.
type Stats struct {
	Linked    int
	Unlinked  int
	Ambiguous int
}

// Add counts one link outcome.
func (s *Stats) Add(o Outcome) {
	switch o {
	case Linked:
		s.Linked++
	case Unlinked:
		s.Unlinked++
	case Ambiguous:
		s.Ambiguous++
	}
}

// Record adds the link outcomes to a trace's counter set (package obs).
// No-op on a nil trace.
func (s Stats) Record(tr *obs.Trace) {
	if tr == nil {
		return
	}
	tr.Add(obs.EntitiesLinked, int64(s.Linked))
	tr.Add(obs.EntitiesUnresolved, int64(s.Unlinked))
	tr.Add(obs.EntitiesAmbiguous, int64(s.Ambiguous))
}

// Resolution is one value's outcome from a batched resolve.
type Resolution struct {
	ID      kg.EntityID
	Outcome Outcome
}

// Linker resolves strings to knowledge-graph entities through a kg.Source,
// overlaying locally registered aliases. Precedence matches the historical
// in-memory linker exactly: a verbatim entity-name match wins over an
// alias, and an alias wins over a normalized match.
type Linker struct {
	src     kg.Source
	aliases map[string]kg.EntityID // normalized alias → entity id
}

// NewLinker returns a linker over any knowledge-graph backend. Resolution
// semantics are identical for every backend; only the transport differs,
// which is why a remote linker can fail where an in-memory one cannot —
// ResolveBatch reports that failure.
func NewLinker(src kg.Source) *Linker {
	return &Linker{src: src, aliases: make(map[string]kg.EntityID)}
}

// AddAlias registers an alternative surface form for an entity (e.g.
// "USA" → "United States"). The alias is normalized.
func (l *Linker) AddAlias(alias string, id kg.EntityID) {
	l.aliases[Normalize(alias)] = id
}

// ResolveBatch resolves every value in one backend round trip, overlaying
// client-side aliases. out[i] corresponds to values[i]. A backend failure
// returns an error and resolves nothing — failed transport is never
// reported as Unlinked, because downstream missing-value machinery treats
// Unlinked as a property of the data, not of the network. Safe for
// concurrent use once alias registration is done.
func (l *Linker) ResolveBatch(ctx context.Context, values []string) ([]Resolution, error) {
	links, err := l.src.Resolve(ctx, values)
	if err != nil {
		return nil, err
	}
	if len(links) != len(values) {
		return nil, fmt.Errorf("ned: backend resolved %d values, want %d", len(links), len(values))
	}
	out := make([]Resolution, len(values))
	for i, v := range values {
		id, o := l.overlay(v, links[i])
		out[i] = Resolution{ID: id, Outcome: o}
	}
	return out, nil
}

// overlay merges the backend's resolution of value with the client-side
// alias table, preserving the historical precedence exact → alias → norm.
func (l *Linker) overlay(value string, srv kg.Link) (kg.EntityID, Outcome) {
	if value == "" {
		return 0, Unlinked
	}
	if srv.Outcome == kg.Linked && srv.Exact {
		return srv.ID, Linked
	}
	if id, ok := l.aliases[Normalize(value)]; ok {
		return id, Linked
	}
	switch srv.Outcome {
	case kg.Linked:
		return srv.ID, Linked
	case kg.Ambiguous:
		return 0, Ambiguous
	default:
		return 0, Unlinked
	}
}

// Normalize lowercases, trims, and collapses inner whitespace; it also
// strips a small set of punctuation so "St. Louis" matches "St Louis". It
// is kg.Normalize, re-exported because NED is where callers historically
// found it.
func Normalize(s string) string { return kg.Normalize(s) }
