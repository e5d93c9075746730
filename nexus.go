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
//	rep, err := sess.Explain("SELECT Country, avg(Salary) FROM SO GROUP BY Country")
//	fmt.Println(rep.Summary())
package nexus

import (
	"context"

	"nexus/internal/bins"
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
	// Bins controls discretization. A zero Bins.Bins selects an adaptive
	// equal-frequency bin count from the analysis-view size (4 for tiny
	// views, 6 medium, 8 large); set it explicitly to pin the granularity.
	Bins bins.Options
	// Core controls pruning and MCIMR (default core.DefaultOptions).
	Core core.Options
	// Hops is the KG extraction depth (default 1; §5.4 evaluates 2).
	Hops int
	// OneToMany aggregates multi-valued properties (default mean).
	OneToMany table.AggFunc
	// DisableIPW turns off selection-bias detection and weighting
	// (complete-case analysis everywhere).
	DisableIPW bool
	// Trace, when non-nil, receives hierarchical spans and counters from
	// every phase of the pipeline — parse/execute, NED, KG extraction,
	// selection-bias detection + IPW, pruning, MCIMR iterations,
	// responsibility ranking and subgroup search (package obs). A nil
	// trace disables observability at near-zero cost: spans and counters
	// on a nil trace are allocation-free no-ops.
	//
	// A session-level trace assumes one Explain at a time (span nesting
	// follows call order). Servers handling concurrent requests should
	// leave it nil and either set Metrics, or attach a short-lived
	// per-request trace to the request context with obs.WithTrace — the
	// Ctx entry points prefer a context-carried trace over this field,
	// and obs.NewWithCounters lets every request trace accumulate into
	// one shared counter set.
	Trace *obs.Trace
	// Metrics, when non-nil and Trace is nil, receives the pipeline's
	// counters alone (selection-bias detections, cache hits, subgroup
	// search effort, ...). Unlike a Trace it is safe to share across
	// concurrent Explain calls — this is how nexusd surfaces per-phase
	// counters on /metrics. Ignored when Trace is set (the trace's
	// counter set is used so the two can never disagree).
	Metrics *obs.Counters
	// ExtractCache, when non-nil, memoizes KG extractions across Explain
	// calls keyed by (table, WHERE clause, link columns, hops), with
	// singleflight semantics so concurrent requests over the same dataset
	// context extract once. Requires the catalog and linker to be immutable
	// while requests are in flight. Nil extracts on every Prepare.
	ExtractCache *ExtractionCache
}

func (o *Options) applyDefaults() {
	if o.Core.K == 0 {
		// A zero K means the caller did not configure Core; swap in the
		// paper defaults but keep the knobs that are meaningful on their
		// own (the prune toggles, Parallelism and the scoring seam — a
		// -parallelism CLI flag, or a Scorer a caller plugged in, must not
		// be silently dropped just because K was left default).
		k := o.Core
		o.Core = core.DefaultOptions()
		o.Core.DisableOfflinePrune = k.DisableOfflinePrune
		o.Core.DisableOnlinePrune = k.DisableOnlinePrune
		o.Core.Parallelism = k.Parallelism
		o.Core.Scorer = k.Scorer
		o.Core.ScoreTag = k.ScoreTag
	}
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

// traceFor resolves the trace one pipeline call should emit into: a
// per-request trace carried on ctx (obs.WithTrace) wins over the
// session-level Options.Trace, so a server can give each concurrent
// request its own span tree while a CLI keeps configuring a single
// session trace. Both sources may be nil, in which case tracing stays an
// allocation-free no-op.
func (s *Session) traceFor(ctx context.Context) *obs.Trace {
	if tr := obs.TraceFrom(ctx); tr != nil {
		return tr
	}
	return s.opts.Trace
}

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

// Table returns a registered table (nil when absent).
func (s *Session) Table(name string) *table.Table { return s.catalog[name] }

// Query parses and executes an aggregate query without explaining it.
func (s *Session) Query(sql string) (*sqlx.Result, error) {
	q, err := sqlx.Parse(sql)
	if err != nil {
		return nil, err
	}
	return sqlx.Execute(q, s.catalog)
}
