// Package nexus reproduces the MESA system from "On Explaining Confounding
// Bias" (SIGMOD 2023): given an aggregate SQL query that exposes a
// correlation between a grouping attribute (the exposure T) and an
// aggregated attribute (the outcome O), it mines candidate confounding
// attributes from a knowledge graph, handles missing extracted values with
// selection-bias detection and inverse probability weighting, and finds the
// attribute set that best explains the correlation away (the
// Correlation-Explanation problem) with the PTIME MCIMR algorithm.
//
// Typical use:
//
//	sess := nexus.NewSession(world.Graph, nil)
//	sess.RegisterTable("SO", soTable, "Country", "Continent")
//	ctx := obs.WithTrace(context.Background(), tr) // tr may be nil: no tracing
//	rep, err := sess.ExplainCtx(ctx, "SELECT Country, avg(Salary) FROM SO GROUP BY Country")
//	fmt.Println(rep.Summary())
//
// A trace reaches the pipeline one way: on the context of each call
// (obs.WithTrace), so concurrent requests each carry their own.
package nexus

import (
	"nexus/internal/core"
	"nexus/internal/kg"
	"nexus/internal/ned"
	"nexus/internal/obs"
	"nexus/internal/sqlx"
	"nexus/internal/table"
)

// Options configures a Session. The zero value of every field selects the
// paper's defaults.
type Options struct {
	// Core controls pruning and MCIMR; its zero fields take the paper's
	// defaults (core.DefaultOptions). Core.Trace is not read: the trace
	// comes from the context of each call.
	Core core.Options
	// Hops is the KG extraction depth (default 1; §5.4 evaluates 2).
	Hops int
	// DisableIPW turns off selection-bias detection and weighting
	// (complete-case analysis everywhere).
	DisableIPW bool
	// Metrics, when non-nil, receives every pipeline counter of each call
	// whose context carries no trace, by running it under a trace over
	// Metrics. A traced call counts into its trace's set (nexusd shares one
	// across its request traces). It is safe for concurrent calls.
	Metrics *obs.Counters
	// ExtractCache, when non-nil, memoizes KG extractions across Explain
	// calls keyed by (table, WHERE clause, link columns, hops), with
	// singleflight semantics so concurrent requests over the same dataset
	// context extract once. Requires the catalog and linker to be immutable
	// while requests are in flight. Nil extracts on every Prepare.
	ExtractCache *ExtractionCache
}

func (o *Options) applyDefaults() {
	if o.Hops == 0 {
		o.Hops = 1
	}
}

// Session holds a table catalog, a knowledge-graph backend and an entity
// linker, and answers Explain requests.
type Session struct {
	opts     Options
	catalog  sqlx.Catalog
	src      kg.Source
	linker   *ned.Linker
	links    map[string][]string // table name → link columns
	excludes map[string][]string // table name → columns never used as candidates
}

// NewSession creates a session over the given in-memory knowledge graph.
// opts may be nil for defaults. The graph may be nil, in which case only
// input-table attributes are considered (the HypDB setting). It is
// NewSessionFromSource over the in-memory graph.
func NewSession(graph *kg.Graph, opts *Options) *Session {
	if graph == nil {
		return NewSessionFromSource(nil, opts)
	}
	return NewSessionFromSource(graph, opts)
}

// NewSessionFromSource creates a session over any knowledge-graph backend —
// the in-memory *kg.Graph or a remote graph served by kgd (package
// kgremote). Extraction and NED batch their backend access per hop, so a
// remote session issues O(hops) HTTP round trips per link column rather
// than one per entity. src may be nil for the no-KG setting.
func NewSessionFromSource(src kg.Source, opts *Options) *Session {
	var o Options
	if opts != nil {
		o = *opts
	}
	o.applyDefaults()
	s := &Session{
		opts:     o,
		catalog:  sqlx.Catalog{},
		src:      src,
		links:    map[string][]string{},
		excludes: map[string][]string{},
	}
	if src != nil {
		s.linker = ned.NewLinker(src)
	}
	return s
}

// Linker exposes the session's entity linker (e.g. to register aliases).
// Nil when the session has no knowledge graph.
func (s *Session) Linker() *ned.Linker { return s.linker }

// RegisterTable adds a table to the catalog. linkColumns name the columns
// whose values reference knowledge-graph entities (Table 1's "columns used
// for extraction").
func (s *Session) RegisterTable(name string, t *table.Table, linkColumns ...string) {
	s.catalog[name] = t
	s.links[name] = linkColumns
}

// ExcludeCandidates marks columns of a registered table that must never be
// considered candidate confounders — typically sibling measurements of the
// outcome (arrival vs departure delay) that would trivially "explain" each
// other. This encodes analyst domain knowledge, exactly like the paper's
// assumption that the analyst chooses the knowledge source.
func (s *Session) ExcludeCandidates(tableName string, cols ...string) {
	s.excludes[tableName] = append(s.excludes[tableName], cols...)
}
