package kg

import (
	"context"
	"fmt"
	"strings"
)

// Outcome classifies a Source-level name-resolution attempt. It mirrors
// ned.Outcome (which remains the public NED vocabulary) so a backend can
// resolve names without importing the linker.
type Outcome int

// Resolution outcomes.
const (
	Linked    Outcome = iota // resolved to exactly one entity
	Unlinked                 // no candidate entity
	Ambiguous                // multiple candidate entities, refused
)

// String renders the outcome ("linked", "unlinked", "ambiguous").
func (o Outcome) String() string {
	switch o {
	case Linked:
		return "linked"
	case Unlinked:
		return "unlinked"
	default:
		return "ambiguous"
	}
}

// Link is the result of resolving one surface form against a Source.
type Link struct {
	// ID is the resolved entity (meaningful only when Outcome == Linked).
	ID EntityID
	// Outcome classifies the attempt.
	Outcome Outcome
	// Exact reports that the value matched an entity name verbatim. The
	// linker uses it to order backend resolution against client-side
	// aliases: an exact match wins over an alias, a normalized match loses
	// to one — the same precedence the in-memory linker has always had.
	Exact bool
}

// Props is the property map of one entity: property name → values
// (multi-valued properties supported). The value slices of a map returned
// by a Source may be shared with the backend and must be treated as
// read-only.
type Props map[string][]Value

// Versioned is an optional Source capability: backends that can identify
// the graph revision they serve implement it, and the serving tier folds
// the version into report-cache keys so a backend swap or regeneration
// invalidates cached explanations (see internal/reportcache). Backends
// that cannot observe their own mutations should return a new string
// whenever their content may have changed.
type Versioned interface {
	// Version identifies the current graph content; two sources with equal
	// versions must answer extraction queries identically.
	Version() string
}

// Source is the knowledge-graph backend abstraction. The in-memory *Graph
// implements it natively; internal/kgremote implements it over HTTP against
// a kgd server. Everything downstream of the session — entity linking
// (package ned) and attribute extraction (package extract) — consumes a
// Source, never a concrete *Graph, so swapping the synthetic world for a
// remote graph is a constructor-level decision.
//
// All methods are batched: the extraction walk issues one GetProperties and
// one Entities call per hop frontier instead of one call per entity, which
// is what keeps a remote backend at O(hops) round trips per link column.
// Implementations must return result slices aligned with (and as long as)
// the request slice. Errors are transport- or backend-level failures;
// per-value resolution misses are expressed through Link.Outcome, not
// errors.
type Source interface {
	// Resolve links surface forms to entities: exact name match first, then
	// backend-side normalized match. out[i] corresponds to values[i].
	Resolve(ctx context.Context, values []string) ([]Link, error)

	// Entities returns the entity records for ids (names become categorical
	// attribute values during extraction).
	Entities(ctx context.Context, ids []EntityID) ([]Entity, error)

	// GetProperties returns each entity's full property map.
	GetProperties(ctx context.Context, ids []EntityID) ([]Props, error)
}

// Normalize lowercases, trims, and collapses inner whitespace; it also
// strips a small set of punctuation so "St. Louis" matches "St Louis". It is
// the shared normalization every backend's normalized-match index uses
// (ned.Normalize is an alias kept for compatibility).
func Normalize(s string) string {
	s = strings.ToLower(strings.TrimSpace(s))
	var b strings.Builder
	lastSpace := false
	for _, r := range s {
		switch {
		case r == '.' || r == ',' || r == '\'':
			continue
		case r == ' ' || r == '\t' || r == '-' || r == '_':
			if !lastSpace && b.Len() > 0 {
				b.WriteByte(' ')
				lastSpace = true
			}
		default:
			b.WriteRune(r)
			lastSpace = false
		}
	}
	return strings.TrimSpace(b.String())
}

// Resolve implements Source: exact name match, then normalized match
// against the graph's incrementally maintained normalization index. It
// never fails for an in-memory graph.
func (g *Graph) Resolve(ctx context.Context, values []string) ([]Link, error) {
	out := make([]Link, len(values))
	for i, v := range values {
		out[i] = g.resolveOne(v)
	}
	return out, nil
}

func (g *Graph) resolveOne(value string) Link {
	if value == "" {
		return Link{Outcome: Unlinked}
	}
	if id, ok := g.byName[value]; ok {
		return Link{ID: id, Outcome: Linked, Exact: true}
	}
	switch cands := g.norm[Normalize(value)]; len(cands) {
	case 0:
		return Link{Outcome: Unlinked}
	case 1:
		return Link{ID: cands[0], Outcome: Linked}
	default:
		return Link{Outcome: Ambiguous}
	}
}

// Entities implements Source.
func (g *Graph) Entities(ctx context.Context, ids []EntityID) ([]Entity, error) {
	out := make([]Entity, len(ids))
	for i, id := range ids {
		if id < 0 || int(id) >= len(g.entities) {
			return nil, fmt.Errorf("kg: unknown entity id %d", id)
		}
		out[i] = g.entities[id]
	}
	return out, nil
}

// GetProperties implements Source. Each entity gets a fresh map; its value
// slices are read-only windows onto the graph, as Values returns them.
func (g *Graph) GetProperties(ctx context.Context, ids []EntityID) ([]Props, error) {
	out := make([]Props, len(ids))
	for i, id := range ids {
		if id < 0 || int(id) >= len(g.props) {
			return nil, fmt.Errorf("kg: unknown entity id %d", id)
		}
		e := &g.props[id]
		m := make(Props, len(e.runs))
		for _, r := range e.runs {
			m[g.names[r.prop]] = e.at(r)
		}
		out[i] = m
	}
	return out, nil
}
