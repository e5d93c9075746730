// Package reportcache is the response cache of the serving tier: it
// memoizes whole explanation reports — the exact bytes nexusd wrote for the
// first (cold) computation — keyed by the normalized explain request plus
// the dataset fingerprint and knowledge-graph source version
// (nexus.Session.ReportKey).
//
// It is the repository's single-flight cache (internal/sfcache: one
// computation per key across concurrent callers, bounded LRU, eviction on
// failure, and a waiter never inherits a failure caused by its leader's own
// deadline or disconnect) instantiated over []byte, one layer out from
// nexus.ExtractionCache: where the extraction cache deduplicates the KG walk
// across requests that share a dataset context, the report cache
// deduplicates the *entire* pipeline (parse → extract → prune → MCIMR →
// subgroups → JSON encoding) across requests that are equivalent after
// canonicalization. What this package adds is the serving vocabulary — the
// X-Nexus-Cache outcome strings, the report_cache_* counters, a default TTL.
// There is no invalidation call: a key names the dataset shape and KG
// version it was computed from, and nexusd loads its data once at startup,
// so a restart, which empties the cache, is the invalidation.
//
// Values are opaque []byte rather than decoded reports deliberately: a hit
// returns the identical bytes the cold computation produced (pinned by
// TestReportCacheHitByteIdentical in internal/server), which makes cache
// correctness checkable with bytes.Equal and keeps the cache agnostic to
// the response schema.
package reportcache

import (
	"context"
	"time"

	"nexus/internal/obs"
	"nexus/internal/sfcache"
)

// Outcome classifies one Get: who computed the bytes this caller received.
// Its String form is the X-Nexus-Cache header value.
type Outcome = sfcache.Outcome

const (
	// OutcomeMiss — this caller ran the computation (and, on success, filled
	// the cache).
	OutcomeMiss = sfcache.Miss
	// OutcomeHit — a completed, unexpired entry was served.
	OutcomeHit = sfcache.Hit
	// OutcomeShared — the caller joined an in-flight computation started by
	// another request and shared its result (single-flight).
	OutcomeShared = sfcache.Shared
)

// Config configures a Cache. Zero fields select the documented defaults.
type Config struct {
	// MaxEntries bounds completed entries (LRU eviction; default 512).
	// In-flight computations are not counted — they are pinned until they
	// resolve.
	MaxEntries int
	// TTL bounds how long a completed entry may be served (default 15m;
	// negative disables expiry). Expiry is lazy: an expired entry is
	// evicted by the next lookup that finds it.
	TTL time.Duration
	// Version is unread: the key already carries the dataset fingerprint
	// and KG version. It remains only for callers that still set it.
	Version string
	// Counters, when non-nil, receives obs.ReportCacheHits / Misses /
	// Shared / Evictions.
	Counters *obs.Counters
}

func (c *Config) applyDefaults() {
	if c.MaxEntries <= 0 {
		c.MaxEntries = 512
	}
	if c.TTL == 0 {
		c.TTL = 15 * time.Minute
	}
}

// Cache is a bounded, single-flight report cache. Construct with New; all
// methods are safe for concurrent use. A nil *Cache disables caching: Get
// runs the computation directly and reports OutcomeMiss.
type Cache struct {
	c *sfcache.Cache[[]byte]
}

// New builds an empty cache.
func New(cfg Config) *Cache {
	cfg.applyDefaults()
	return &Cache{c: sfcache.New[[]byte](sfcache.Config{
		MaxEntries: cfg.MaxEntries,
		TTL:        cfg.TTL,
		Counters:   cfg.Counters,
		Hits:       obs.ReportCacheHits,
		Misses:     obs.ReportCacheMisses,
		Shared:     obs.ReportCacheShared,
		Evictions:  obs.ReportCacheEvictions,
	})}
}

// Len reports the number of completed entries (0 for a nil cache).
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	return c.c.Len()
}

// Get returns the cached bytes for key, running compute at most once per
// key across concurrent callers; compute runs under the caller's ctx. The
// Outcome reports whether this caller computed (miss), found a completed
// entry (hit), or joined an in-flight computation (shared).
//
// A failed computation is evicted before its error returns — waiters that
// already joined share the failure, but no later Get can observe it. The
// exception is a failure returned after the leader's own ctx ended (its
// deadline, its client's disconnect): a waiter whose ctx is still live does
// not receive it but computes afresh, as a miss. A waiter whose ctx ends
// while the computation is in flight unblocks with ctx.Err() without
// cancelling the computation (other waiters may still want the result).
func (c *Cache) Get(ctx context.Context, key string, compute func() ([]byte, error)) ([]byte, Outcome, error) {
	if c == nil {
		data, err := compute()
		return data, OutcomeMiss, err
	}
	return c.c.Get(ctx, key, compute)
}
