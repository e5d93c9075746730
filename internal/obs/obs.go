// Package obs is the observability substrate of the Explain pipeline: a
// zero-dependency (stdlib-only) tracing and metrics layer that every phase
// of nexus — query execution, entity linking, KG extraction, IPW fitting,
// offline/online pruning, MCIMR iterations, responsibility ranking and the
// subgroup lattice search — reports into.
//
// It provides three pieces:
//
//   - hierarchical spans (Trace.Start / Span.End) carrying wall-clock
//     durations, heap-allocation deltas and typed attributes;
//   - named counters (Trace.Add / Counters) such as CITests or
//     PermutationsRun, aggregated into a Snapshot;
//   - exports of the closed trace: a human-readable tree printer
//     (Snapshot.WriteTree), span events in the order the spans ended
//     (Trace.Events, written as JSON Lines by Trace.WriteJSONL), and a JSON
//     snapshot (Snapshot).
//
// The nil invariant: every method on a nil *Trace, nil *Span and nil
// *Counters is a no-op that performs no allocation, so instrumented code
// paths cost a nil check when tracing is disabled. Instrumentation that
// must build a span name or attribute value (and would therefore allocate)
// guards with `if tr != nil` first.
//
// Span nesting follows call order: a Trace tracks the current open span
// under a mutex, and Start attaches the new span as a child of it. Spans
// must therefore be started from the sequential backbone of the pipeline;
// code inside parallel loops records counters (which are atomic and safe
// from any goroutine), not spans.
package obs

import (
	"runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Counter names used across the pipeline. Phase-specific counters (e.g.
// pruned-per-rule) are composed with helpers below.
const (
	// CITests counts (conditional) independence tests: analytic debiased-CMI
	// tests, permutation tests (each counted once regardless of its number
	// of permutations), and selection-bias recoverability tests.
	CITests = "ci_tests"
	// PermutationsRun counts individual permuted statistics evaluated across
	// all permutation tests (responsibility, gain calibration, relevance
	// prune, fast marginal).
	PermutationsRun = "permutations_run"
	// CondWalks counts the online prune's conditional tests (O ⊥ E | T)
	// finalized by the math.Log2 walk — IPW-weighted tallies, plus any
	// unweighted one too close to a decision boundary for the entropy form.
	CondWalks = "cond_walks"
	// CandidatesScored counts candidates whose individual relevance
	// I(O;T|C,E) was computed by the MCIMR relevance pass.
	CandidatesScored = "candidates_scored"
	// MCIMRIterations counts accepted MCIMR iterations (selected attributes).
	MCIMRIterations = "mcimr_iterations"
	// MCIMRSkips counts candidates set aside by the responsibility test or
	// the gain guard.
	MCIMRSkips = "mcimr_skips"
	// EntitiesLinked / EntitiesUnresolved / EntitiesAmbiguous aggregate NED
	// outcomes over distinct link-column values.
	EntitiesLinked     = "entities_linked"
	EntitiesUnresolved = "entities_unresolved"
	EntitiesAmbiguous  = "entities_ambiguous"
	// KGAttrs counts extracted candidate attributes.
	KGAttrs = "kg_attrs"
	// KGRowEncodings counts KG attributes broadcast from slot-level codes to
	// an n-long row encoding (core.FromEntity's Enc). The pipeline (prunes,
	// MCIMR, the subgroup search) and the experiments' baselines read the
	// entity form and broadcast none; only the benchmark's staged screen pass
	// and the tests' broadcast oracles do.
	KGRowEncodings = "kg_row_encodings"
	// BiasedAttrs counts, per analysis, the biased KG attributes whose IPW
	// weights it read, fitted by it or by an earlier analysis of the same
	// cached extraction and outcome; an attribute the online prune's
	// entity-level null rejects is never tested. The counter behind
	// Analysis.NumBiased.
	BiasedAttrs = "biased_attrs"
	// IPWFits counts logistic propensity-model fits actually run. A served
	// request that reuses the fits cached with its extraction counts none.
	IPWFits = "ipw_fits"
	// SubgroupNodesExplored / SubgroupNodesPushed mirror subgroups.Stats.
	SubgroupNodesExplored = "subgroup_nodes_explored"
	SubgroupNodesPushed   = "subgroup_nodes_pushed"
	// SubgroupFrontierBatches counts frontier batches scored by the parallel
	// lattice search (one worker-pool round each); GroupsScored counts the
	// lattice nodes actually evaluated, including speculative evaluations the
	// traversal never consumes (GroupsScored − SubgroupNodesExplored is the
	// wasted speculation traded for parallelism). Both grow with
	// subgroups.Options.Parallelism; results never change with it.
	SubgroupFrontierBatches = "subgroup_batches"
	GroupsScored            = "groups_scored"
	// SubgroupRowsVisited counts the rows the lattice search's histogram,
	// carve and tally passes touch. Divided by GroupsScored it tracks the
	// mean group size, not the view's row count. The search always runs in
	// process, so every pass is counted.
	SubgroupRowsVisited = "subgroup_rows_visited"
	// SubgroupSlotScored counts the lattice nodes scored from entity slots:
	// nodes whose conditions and explanation are all functions of one link
	// column's slot, folded from that column's slot cube with no row pass.
	// Included in GroupsScored.
	SubgroupSlotScored = "subgroup_slot_scored"
	// RowsetCacheHits is no longer written: the lattice search's row-set
	// cache is gone (nodes carry their row lists). The name stays until the
	// benchmark module, which reads it, drops the metric.
	RowsetCacheHits = "rowset_cache_hits"
	// ExtractCacheHits / ExtractCacheMisses count lookups in the keyed
	// per-dataset KG-extraction cache (nexus.ExtractionCache): a hit means a
	// whole NED + graph-walk pass was avoided because an earlier request
	// over the same dataset context already extracted (or is extracting —
	// waiters on an in-flight extraction count as hits too).
	ExtractCacheHits   = "extract_cache_hits"
	ExtractCacheMisses = "extract_cache_misses"
	// ReportCacheHits / ReportCacheMisses / ReportCacheShared /
	// ReportCacheEvictions count lookups in the serving-tier
	// report cache (internal/reportcache): a hit serves the stored bytes of
	// an earlier computation, a miss runs the full pipeline, and a shared
	// lookup joined an in-flight computation under single-flight. Evictions
	// count LRU overflow and TTL expiry together.
	ReportCacheHits      = "report_cache_hits"
	ReportCacheMisses    = "report_cache_misses"
	ReportCacheShared    = "report_cache_singleflight_shared"
	ReportCacheEvictions = "report_cache_evictions"
	// EncCacheHits is no longer written: core's per-run memo is gone (a
	// candidate computes its own vectors once). The name stays until the
	// benchmark module, which reads it, drops the metric.
	EncCacheHits = "enc_cache_hits"
	// CompositeRebuilds counts rebuilds of the pre-joined conditioning-set
	// variable (once per accepted MCIMR attribute, plus one per subgroup
	// search with a multi-attribute explanation).
	CompositeRebuilds = "composite_rebuilds"
	// SpeculativeEvals and SpeculativeWins are no longer written: MCIMR's
	// consider loop tests one candidate at a time. The names stay until the
	// benchmark module, which reads them, drops the metric.
	SpeculativeEvals = "speculative_evals"
	SpeculativeWins  = "speculative_wins"
	// KGCacheHits / KGCacheMisses count lookups served from (or missing in)
	// the remote KG client's entity/property LRU caches.
	KGCacheHits   = "kg_cache_hits"
	KGCacheMisses = "kg_cache_misses"
	// KGHTTPRequests counts HTTP requests issued to a remote KG backend
	// (retries included); KGHTTPRetries counts just the re-attempts after
	// retryable failures.
	KGHTTPRequests = "kg_http_requests"
	KGHTTPRetries  = "kg_http_retries"
	// DistUnits counts work units dispatched by the distributed scoring
	// coordinator (internal/distremote); DistRetries counts re-attempts
	// after a failed unit attempt, and DistFallbacks counts units computed
	// locally after exhausting every worker attempt. DistHTTPRequests counts
	// every HTTP request issued to the worker fleet (registrations, scores,
	// retries). DistHedges is never written; the name stays because the
	// benchmark still reads it.
	DistUnits        = "dist_units"
	DistRetries      = "dist_retries"
	DistHedges       = "dist_hedges"
	DistFallbacks    = "dist_fallbacks"
	DistHTTPRequests = "dist_http_requests"
	// CountingDensePasses / CountingSparsePasses count tally passes served
	// by the unified counting kernel's dense-array fast path versus its
	// hash-map fallback (internal/counting). CountingIDJoins counts composite
	// dense-ID builds over two or more variables; CountingPartitions counts
	// row-partition passes (one fused child-size histogram per expanded
	// subgroup lattice node, table group-by).
	CountingDensePasses  = "counting_dense_passes"
	CountingSparsePasses = "counting_sparse_passes"
	CountingIDJoins      = "counting_id_joins"
	CountingPartitions   = "counting_partitions"
	// IngestRows / DictEntries count the CSV ingest (internal/colstore):
	// rows appended, and dictionary entries created across all string
	// columns.
	IngestRows  = "ingest_rows"
	DictEntries = "dict_entries"
)

// PrunedCounter names the per-rule prune counter, e.g.
// pruned.offline.high-entropy or pruned.online.low-relevance.
func PrunedCounter(phase, reason string) string {
	return "pruned." + phase + "." + reason
}

// HopCounter names the per-hop extracted-attribute counter, e.g.
// kg_attrs_hop1.
func HopCounter(hop int) string { return "kg_attrs_hop" + strconv.Itoa(hop) }

// Counters is a set of named atomic counters. The zero value is not usable;
// construct with NewCounters. All methods are safe for concurrent use and
// no-ops on a nil receiver.
type Counters struct {
	mu sync.RWMutex
	m  map[string]*int64
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters { return &Counters{m: make(map[string]*int64)} }

// Add increments the named counter by delta, creating it at zero first if
// needed.
func (c *Counters) Add(name string, delta int64) {
	if c == nil {
		return
	}
	c.mu.RLock()
	p := c.m[name]
	c.mu.RUnlock()
	if p == nil {
		c.mu.Lock()
		if p = c.m[name]; p == nil {
			p = new(int64)
			c.m[name] = p
		}
		c.mu.Unlock()
	}
	atomic.AddInt64(p, delta)
}

// Get returns the counter's current value (0 if absent or nil receiver).
func (c *Counters) Get(name string) int64 {
	if c == nil {
		return 0
	}
	c.mu.RLock()
	p := c.m[name]
	c.mu.RUnlock()
	if p == nil {
		return 0
	}
	return atomic.LoadInt64(p)
}

// Snapshot copies the current counter values.
func (c *Counters) Snapshot() map[string]int64 {
	if c == nil {
		return nil
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[string]int64, len(c.m))
	for k, p := range c.m {
		out[k] = atomic.LoadInt64(p)
	}
	return out
}

// Trace collects one run's hierarchical spans and counters; it is read once
// it is closed. Construct with New; a nil *Trace disables all
// instrumentation.
type Trace struct {
	mu       sync.Mutex
	root     *Span
	current  *Span
	ended    []*Span // in the order the spans ended
	counters *Counters
	start    time.Time
	closed   bool
}

// New starts a trace whose root span carries the given name.
func New(name string) *Trace {
	return NewWithCounters(name, nil)
}

// NewWithCounters is New with the trace's counter set supplied by the
// caller (nil allocates a private one, exactly like New). Sharing one
// concurrency-safe Counters across many short-lived traces is how a
// server gives every request its own span tree while all requests keep
// accumulating into the same scrape-able counter totals.
func NewWithCounters(name string, c *Counters) *Trace {
	if c == nil {
		c = NewCounters()
	}
	t := &Trace{counters: c, start: time.Now()}
	t.root = &Span{tr: t, Name: name, start: t.start, alloc0: allocBytes()}
	t.current = t.root
	return t
}

// Counters exposes the trace's counter set (nil for a nil trace).
func (t *Trace) Counters() *Counters {
	if t == nil {
		return nil
	}
	return t.counters
}

// Add increments a named counter. Safe from any goroutine.
func (t *Trace) Add(name string, delta int64) {
	if t == nil {
		return
	}
	t.counters.Add(name, delta)
}

// Start opens a new span as a child of the currently open span. The caller
// must End it; nesting follows call order.
func (t *Trace) Start(name string) *Span {
	if t == nil {
		return nil
	}
	sp := &Span{tr: t, Name: name, start: time.Now(), alloc0: allocBytes()}
	t.mu.Lock()
	sp.parent = t.current
	if sp.parent == nil {
		sp.parent = t.root
	}
	sp.parent.children = append(sp.parent.children, sp)
	t.current = sp
	t.mu.Unlock()
	return sp
}

// Close ends the root span (and implicitly any still-open descendants) and
// returns the snapshot; Events and WriteJSONL read the closed trace too.
// Further spans must not be started after Close.
func (t *Trace) Close() Snapshot {
	if t == nil {
		return Snapshot{}
	}
	t.mu.Lock()
	alreadyClosed := t.closed
	t.closed = true
	t.mu.Unlock()
	if !alreadyClosed {
		t.endOpenSpans(t.root)
	}
	return t.snapshot()
}

// Events returns one span event per ended span, in the order the spans
// ended, so the root comes last once the trace is closed. It carries no
// counters event: WriteJSONL appends that.
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.ended))
	for i, s := range t.ended {
		out[i] = s.eventLocked()
	}
	return out
}

// endOpenSpans ends s and any still-open descendants, deepest first, so
// child durations never exceed their parent's.
func (t *Trace) endOpenSpans(s *Span) {
	t.mu.Lock()
	children := append([]*Span(nil), s.children...)
	t.mu.Unlock()
	for _, c := range children {
		t.endOpenSpans(c)
	}
	s.End()
}

// Span is one node of the trace tree. All methods are no-ops on a nil
// receiver.
type Span struct {
	tr     *Trace
	parent *Span
	Name   string

	start, end     time.Time
	alloc0, alloc1 uint64
	attrs          []Attr
	children       []*Span
	ended          bool
}

// Attr is one key/value annotation on a span. Values are stored as strings
// so events and snapshots marshal without reflection surprises.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SetStr attaches a string attribute.
func (s *Span) SetStr(key, value string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.tr.mu.Unlock()
}

// SetInt attaches an integer attribute.
func (s *Span) SetInt(key string, value int64) {
	if s == nil {
		return
	}
	s.SetStr(key, strconv.FormatInt(value, 10))
}

// SetFloat attaches a float attribute (formatted %.6g).
func (s *Span) SetFloat(key string, value float64) {
	if s == nil {
		return
	}
	s.SetStr(key, strconv.FormatFloat(value, 'g', 6, 64))
}

// End closes the span, restores its parent as the trace's current span and
// records the span's place in the trace's end order. Ending an already-ended
// span is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := time.Now()
	alloc := allocBytes()
	s.tr.mu.Lock()
	if s.ended {
		s.tr.mu.Unlock()
		return
	}
	s.ended = true
	s.end = end
	s.alloc1 = alloc
	// Restore current to this span's parent, but only if the span being
	// ended is on the current ancestry path (tolerates out-of-order ends).
	for c := s.tr.current; c != nil; c = c.parent {
		if c == s {
			s.tr.current = s.parent
			break
		}
	}
	s.tr.ended = append(s.tr.ended, s)
	s.tr.mu.Unlock()
}

// Duration returns the span's wall-clock duration (elapsed-so-far if the
// span is still open, 0 on a nil span).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	return s.durationLocked()
}

func (s *Span) durationLocked() time.Duration {
	if s.ended {
		return s.end.Sub(s.start)
	}
	return time.Since(s.start)
}

// pathLocked returns the slash-joined ancestry, the root's name included so
// paths are unambiguous.
func (s *Span) pathLocked() string {
	if s.parent == nil {
		return s.Name
	}
	return s.parent.pathLocked() + "/" + s.Name
}

func (s *Span) eventLocked() Event {
	ev := Event{
		Type:  "span",
		Name:  s.Name,
		Path:  s.pathLocked(),
		DurNS: s.durationLocked().Nanoseconds(),
	}
	if s.alloc1 >= s.alloc0 {
		ev.AllocBytes = int64(s.alloc1 - s.alloc0)
	}
	if len(s.attrs) > 0 {
		ev.Attrs = append([]Attr(nil), s.attrs...)
	}
	return ev
}

// allocBytes samples the process-wide cumulative heap allocation. Deltas
// between Start and End approximate a span's allocation cost; under
// concurrency they include allocations from other goroutines and are
// therefore an upper bound, which is the useful direction for profiling.
func allocBytes() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() == metrics.KindUint64 {
		return sample[0].Value.Uint64()
	}
	return 0
}
