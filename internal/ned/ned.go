// Package ned implements Named Entity Disambiguation: linking string values
// appearing in a table to entities of a knowledge graph (§3.1). The linker
// is deterministic: exact match, then normalized match, then alias match.
// It deliberately reproduces the failure modes the paper reports —
// unresolvable spelling variants ("Russian Federation" vs "Russia") and
// ambiguous names ("Ronaldo") — because failed links are a major source of
// missing values for the robustness machinery.
//
// The linker is a thin client-side layer over any kg.Source backend: the
// backend performs exact and normalized matching (for the in-memory
// *kg.Graph that is an index lookup; for a remote graph it is one batched
// HTTP round trip), and the linker overlays locally registered aliases and
// accounting. Backends can fail (a remote graph is reached over the
// network), so the batch APIs return errors; callers must never fold a
// transport error into an Unlinked outcome.
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

// Total returns the number of link attempts recorded.
func (s Stats) Total() int { return s.Linked + s.Unlinked + s.Ambiguous }

// SuccessRate returns Linked / Total (1 when no attempts).
func (s Stats) SuccessRate() float64 {
	t := s.Total()
	if t == 0 {
		return 1
	}
	return float64(s.Linked) / float64(t)
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
// alias, an alias wins over a normalized match, and ambiguous aliases merge
// with the backend's normalized candidates.
type Linker struct {
	src kg.Source
	// explicit aliases → entity id (normalized keys)
	aliases map[string]kg.EntityID
	// ambiguous aliases → candidate entity ids (normalized keys); these
	// merge with backend normalized candidates, so even a single id here
	// turns ambiguous when the backend also has a candidate.
	ambig map[string][]kg.EntityID
	stats Stats
}

// NewLinker indexes the graph for linking. Entities whose normalized names
// collide become ambiguous. It is NewSourceLinker over the in-memory graph.
func NewLinker(g *kg.Graph) *Linker { return NewSourceLinker(g) }

// NewSourceLinker returns a linker over any knowledge-graph backend.
// Resolution semantics are identical for every backend; only the transport
// differs, which is why a remote linker can fail where an in-memory one
// cannot — ResolveBatch and Resolve report that failure, Link cannot.
func NewSourceLinker(src kg.Source) *Linker {
	return &Linker{
		src:     src,
		aliases: make(map[string]kg.EntityID),
		ambig:   make(map[string][]kg.EntityID),
	}
}

// AddAlias registers an alternative surface form for an entity (e.g.
// "USA" → "United States"). The alias is normalized.
func (l *Linker) AddAlias(alias string, id kg.EntityID) {
	l.aliases[Normalize(alias)] = id
}

// AddAmbiguousAlias registers a surface form that maps to several entities,
// which the linker will refuse to resolve (the paper's "Ronaldo" case).
func (l *Linker) AddAmbiguousAlias(alias string, ids ...kg.EntityID) {
	key := Normalize(alias)
	l.ambig[key] = append(l.ambig[key], ids...)
}

// ResolveBatch resolves every value in one backend round trip, overlaying
// client-side aliases, without touching the linker's accumulated
// statistics. out[i] corresponds to values[i]. A backend failure returns an
// error and resolves nothing — failed transport is never reported as
// Unlinked, because downstream missing-value machinery treats Unlinked as a
// property of the data, not of the network. Safe for concurrent use once
// alias registration is done.
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

// Resolve links a single value (a one-element ResolveBatch) without
// touching the linker's accumulated statistics. Unlike Link it is safe for
// concurrent use (the lookup indexes are immutable after alias
// registration) and reports backend failures.
func (l *Linker) Resolve(ctx context.Context, value string) (kg.EntityID, Outcome, error) {
	res, err := l.ResolveBatch(ctx, []string{value})
	if err != nil {
		return 0, Unlinked, err
	}
	return res[0].ID, res[0].Outcome, nil
}

// Link resolves value to an entity id. The second return is the outcome;
// stats are accumulated on the linker. Because of that accumulation Link is
// NOT safe for concurrent use; concurrent callers should use Resolve. Link
// cannot report backend failures: over a fallible (remote) source a
// transport error degrades to Unlinked, which is why extraction links
// through ResolveBatch.
func (l *Linker) Link(value string) (kg.EntityID, Outcome) {
	id, out, err := l.Resolve(context.Background(), value)
	if err != nil {
		id, out = 0, Unlinked
	}
	switch out {
	case Linked:
		l.stats.Linked++
	case Unlinked:
		l.stats.Unlinked++
	case Ambiguous:
		l.stats.Ambiguous++
	}
	return id, out
}

// overlay merges the backend's resolution of value with the client-side
// alias tables, preserving the historical precedence exact → alias → norm.
func (l *Linker) overlay(value string, srv kg.Link) (kg.EntityID, Outcome) {
	if value == "" {
		return 0, Unlinked
	}
	if srv.Outcome == kg.Linked && srv.Exact {
		return srv.ID, Linked
	}
	key := Normalize(value)
	if id, ok := l.aliases[key]; ok {
		return id, Linked
	}
	if extra := l.ambig[key]; len(extra) > 0 {
		n := len(extra)
		switch srv.Outcome {
		case kg.Linked:
			n++
		case kg.Ambiguous:
			n += 2
		}
		if n >= 2 {
			return 0, Ambiguous
		}
		return extra[0], Linked
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

// Stats returns the accumulated link statistics.
func (l *Linker) Stats() Stats { return l.stats }

// Normalize lowercases, trims, and collapses inner whitespace; it also
// strips a small set of punctuation so "St. Louis" matches "St Louis". It
// is kg.Normalize, re-exported because NED is where callers historically
// found it.
func Normalize(s string) string { return kg.Normalize(s) }

// LinkColumn links every distinct value of vals, returning the resolved id
// per distinct value (missing entries failed to link) and aggregate stats
// counted once per distinct value.
func (l *Linker) LinkColumn(vals []string) map[string]kg.EntityID {
	out := make(map[string]kg.EntityID)
	seen := make(map[string]bool)
	for _, v := range vals {
		if v == "" || seen[v] {
			continue
		}
		seen[v] = true
		if id, outc := l.Link(v); outc == Linked {
			out[v] = id
		}
	}
	return out
}
