package nexus

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync"

	"nexus/internal/bins"
	"nexus/internal/extract"
	"nexus/internal/kg"
	"nexus/internal/obs"
	"nexus/internal/sfcache"
	"nexus/internal/sqlx"
)

// ExtractionCache memoizes KG extractions per dataset context, with
// singleflight semantics: when N requests over the same (table, WHERE
// clause, link columns, hops) key arrive concurrently, exactly one performs
// the NED + graph-walk pass and the other N-1 wait for its result. This is
// the workload shape of an interactive explanation service — analysts issue
// many queries over the same dataset, and extraction is independent of the
// GROUP BY / aggregate part of the query — so a warm cache removes the most
// expensive phase of Prepare entirely.
//
// It is internal/sfcache instantiated over cachedExtraction (the extraction
// and its IPW state), so it shares that cache's rules with the serving tier's
// report cache: a failed extraction is evicted (the next request retries), a
// request that joined an extraction never inherits a failure caused by the
// extracting request's own deadline or disconnect (it extracts itself
// instead), and completed extractions are kept on an LRU list of
// extractionCacheEntries — an evicted context re-extracts and counts as a miss.
//
// It is the outermost layer of the caching story: ExtractionCache
// deduplicates whole extractions across requests, an extraction keeps its
// selection-bias verdicts, IPW fits and slot-level mean outcomes per outcome
// column across requests (ipwState), an extracted attribute keeps its
// slot-level binning within an extraction, and a candidate keeps its row
// vectors within an Analysis (see docs/ARCHITECTURE.md, "Hot path &
// caching").
//
// Correctness rests on two invariants the serving path maintains:
//
//   - registered tables and the entity linker are immutable while requests
//     are in flight (RegisterTable / AddAlias happen at startup);
//   - the cached *extract.Extraction is shared read-only between analyses
//     (its per-attribute encoding caches are internally synchronized).
//
// The zero value is not usable; construct with NewExtractionCache. All
// methods are safe for concurrent use. A nil *ExtractionCache disables
// caching (every Prepare extracts).
type ExtractionCache struct {
	c *sfcache.Cache[*cachedExtraction]
}

// extractionCacheEntries bounds the completed extractions an ExtractionCache
// retains. The key contains the WHERE clause and every extraction pins a
// row→slot vector per link column plus its entity-level attributes, so
// without a bound a long-running nexusd grows with the number of distinct
// contexts ever asked. A constant rather than an option: a serving mix
// revisits a handful of contexts (the benchmark's cycles 12 SQL texts), and
// an evicted one costs a single re-extraction.
const extractionCacheEntries = 64

// NewExtractionCache returns an empty cache. counters may be nil; when set
// (e.g. to a server-wide obs.Counters published over /metrics) every
// lookup increments obs.ExtractCacheHits once — a completed entry or a
// joined in-flight extraction — or obs.ExtractCacheMisses, whose count is the
// number of NED + graph-walk passes actually performed.
func NewExtractionCache(counters *obs.Counters) *ExtractionCache {
	return &ExtractionCache{
		c: sfcache.New[*cachedExtraction](sfcache.Config{
			MaxEntries: extractionCacheEntries,
			Counters:   counters,
			Hits:       obs.ExtractCacheHits,
			Shared:     obs.ExtractCacheHits,
			Misses:     obs.ExtractCacheMisses,
		}),
	}
}

// lookup returns the extraction for key, running fn (under the caller's ctx)
// at most once per key across concurrent callers. A nil cache wraps a fresh
// extraction the same way, shared with nobody.
func (c *ExtractionCache) lookup(ctx context.Context, key string, fn func() (*extract.Extraction, error)) (*cachedExtraction, error) {
	wrap := func() (*cachedExtraction, error) {
		ex, err := fn()
		return &cachedExtraction{ex: ex}, err
	}
	if c == nil {
		return wrap()
	}
	ce, _, err := c.c.Get(ctx, key, wrap)
	return ce, err
}

// cachedExtraction is what an ExtractionCache holds per dataset context: the
// extraction, and its IPW state per outcome column and bin options asked. Bias
// detection, the propensity fits and the slot-level mean outcome read the
// view's rows, the row→slot maps and the slot values, which the context fixes,
// and the outcome column and bins, which the ipwKey fixes, so every analysis
// sharing both shares their results. The state holds values only, each
// computed by the first analysis that needs it, never a closure over it.
type cachedExtraction struct {
	ex  *extract.Extraction
	ipw sync.Map // ipwKey → *ipwState
}

type ipwKey struct {
	outcome string
	bins    bins.Options
}

type ipwState struct {
	outcomes sync.Map               // link column → *onceValue[slotOutcome]
	weights  []onceValue[[]float64] // per position in Extraction.Attrs; nil = no selection bias
}

// onceValue is a value computed by its first reader.
type onceValue[T any] struct {
	once sync.Once
	v    T
}

func (o *onceValue[T]) get(f func() T) T {
	o.once.Do(func() { o.v = f() })
	return o.v
}

// ipwFor returns ce's IPW state under (outcome, opts), creating it on first
// request.
func (ce *cachedExtraction) ipwFor(outcome string, opts bins.Options) *ipwState {
	k := ipwKey{outcome, opts}
	st, ok := ce.ipw.Load(k)
	if !ok {
		st, _ = ce.ipw.LoadOrStore(k, &ipwState{weights: make([]onceValue[[]float64], len(ce.ex.Attrs))})
	}
	return st.(*ipwState)
}

// ReportKey derives the serving tier's report-cache key for one explain
// request: the canonicalized query (sorted WHERE conjuncts — rendering and
// conjunct order must not defeat the cache, exactly as in extractionKey),
// the explanation options that shape the response (subgroups k, tau, the
// session's extraction depth), the dataset fingerprint and the KG source
// version. Two requests with equal keys produce byte-identical reports, so
// internal/reportcache can serve the stored bytes of the first computation
// to all of them. Parse errors return an error so the caller falls through
// to the uncached path (which reports them properly as 400s).
func (s *Session) ReportKey(sql string, subgroups int, tau float64) (string, error) {
	q, err := sqlx.Parse(sql)
	if err != nil {
		return "", err
	}
	sort.Slice(q.Where, func(i, j int) bool { return q.Where[i].String() < q.Where[j].String() })
	var b strings.Builder
	b.WriteString(q.String())
	b.WriteString("|k=")
	b.WriteString(strconv.Itoa(subgroups))
	b.WriteString("|tau=")
	b.WriteString(strconv.FormatFloat(tau, 'g', -1, 64))
	b.WriteString("|hops=")
	b.WriteString(strconv.Itoa(s.opts.Hops))
	b.WriteString("|ds=")
	b.WriteString(s.DatasetFingerprint())
	b.WriteString("|kg=")
	b.WriteString(s.KGVersion())
	return b.String(), nil
}

// DatasetFingerprint hashes the registered catalog — table names, shapes,
// column names, link columns and candidate exclusions — into a short hex
// token. It distinguishes datasets (and re-registrations that change the
// schema or row count) cheaply without reading cell data. Different
// *contents* at an identical shape get the same token; nexusd loads its data
// once, so a restart is what invalidates the report cache then
// (docs/OPERATIONS.md).
func (s *Session) DatasetFingerprint() string {
	h := fnv.New64a()
	names := make([]string, 0, len(s.catalog))
	for name := range s.catalog {
		names = append(names, name)
	}
	sort.Strings(names)
	field := func(parts ...string) {
		for _, p := range parts {
			h.Write([]byte(p))
			h.Write([]byte{0})
		}
	}
	for _, name := range names {
		t := s.catalog[name]
		field(name, strconv.Itoa(t.NumRows()))
		field(t.ColumnNames()...)
		field(s.links[name]...)
		ex := append([]string(nil), s.excludes[name]...)
		sort.Strings(ex)
		field(ex...)
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// KGVersion reports the knowledge-graph source version for cache keying:
// the backend's kg.Versioned identity when it implements it (the in-memory
// graph's content-shape fingerprint, the remote client's endpoint), "none"
// for KG-less sessions, and the backend type name otherwise.
func (s *Session) KGVersion() string {
	switch src := s.src.(type) {
	case nil:
		return "none"
	case kg.Versioned:
		return src.Version()
	default:
		return fmt.Sprintf("%T", src)
	}
}

// extractionKey derives the cache key for a query's extraction: the table,
// the canonicalized WHERE clause (sorted conjuncts — extraction depends only
// on which rows survive the context filter, not on their order), the link
// columns and the extraction depth. GROUP BY and the aggregate do not
// affect the analysis view's rows, so queries differing only there share
// one extraction.
func extractionKey(q *sqlx.Query, links []string, hops int) string {
	conds := make([]string, len(q.Where))
	for i, w := range q.Where {
		conds[i] = w.String()
	}
	sort.Strings(conds)
	var b strings.Builder
	b.WriteString(q.Table)
	if q.Join != nil {
		b.WriteString("|join=")
		b.WriteString(q.Join.Table)
		b.WriteByte(':')
		b.WriteString(q.Join.LeftKey)
		b.WriteByte('=')
		b.WriteString(q.Join.RightKey)
	}
	b.WriteString("|where=")
	b.WriteString(strings.Join(conds, " AND "))
	b.WriteString("|links=")
	b.WriteString(strings.Join(links, ","))
	b.WriteString("|hops=")
	b.WriteString(strconv.Itoa(hops))
	return b.String()
}
