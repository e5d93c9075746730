// Package sfcache is the repository's one single-flight cache: an in-flight
// map with a done channel per entry, bounded LRU retention of completed
// entries, and eviction on failure. nexus.ExtractionCache (one KG extraction
// per dataset context) and reportcache.Cache (one explanation per canonical
// request) are both thin wrappers over it.
//
// N concurrent Gets of one key run one computation: the first caller (the
// leader) computes, the others (waiters) block on the leader's entry.
//
//   - Bounded: completed entries live on an LRU list capped at
//     Config.MaxEntries and, with a positive Config.TTL, expire that long
//     after completion (lazily, at the lookup that finds them). In-flight
//     entries are pinned until they resolve and are not counted.
//   - Failure-evicting: an entry whose computation fails is removed before
//     the error propagates. Waiters that had already joined share the
//     failure; no later Get can observe it.
//   - Waiter-safe: the leader computes under its own context, so a failure
//     it returns once that context has ended (its deadline passed, its client
//     hung up) says nothing about the key. Such a failure is never handed to
//     a waiter whose own context is still live — the waiter looks the key up
//     again and, finding it evicted, leads a fresh computation. A waiter
//     whose context ends first unblocks with its own ctx.Err() and does not
//     cancel the computation.
package sfcache

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"time"

	"nexus/internal/obs"
)

// Outcome classifies one Get: who computed the value this caller received.
type Outcome int

const (
	// Miss — this caller ran the computation (and, on success, filled the
	// cache).
	Miss Outcome = iota
	// Hit — a completed, unexpired entry was served.
	Hit
	// Shared — the caller joined a computation another caller had in flight.
	Shared
)

// String renders the outcome: "miss", "hit" or "shared".
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Shared:
		return "shared"
	default:
		return "miss"
	}
}

// Config configures a Cache.
type Config struct {
	// MaxEntries bounds completed entries (LRU eviction). Must be positive.
	MaxEntries int
	// TTL, when positive, bounds how long a completed entry may be served.
	TTL time.Duration
	// Counters, when non-nil, receives one increment per lookup under the
	// name matching its Outcome, and one per evicted completed entry. An
	// empty name is not counted. A waiter that re-leads after its leader's
	// context ended is counted twice: once as Shared, once as Miss.
	Counters                        *obs.Counters
	Hits, Misses, Shared, Evictions string
}

// entry is one cached or in-flight value. done is closed once val, err and
// abandoned are final; elem is non-nil while the entry is on the LRU list.
type entry[V any] struct {
	key       string
	done      chan struct{}
	val       V
	err       error
	abandoned bool      // failed after the leader's own context had ended
	expires   time.Time // zero without a TTL
	elem      *list.Element
}

// Cache is a bounded single-flight cache from string keys to V. Construct
// with New; all methods are safe for concurrent use.
type Cache[V any] struct {
	cfg Config

	mu      sync.Mutex
	entries map[string]*entry[V]
	lru     *list.List // completed entries, most recent at front
}

// New builds an empty cache.
func New[V any](cfg Config) *Cache[V] {
	if cfg.MaxEntries <= 0 {
		panic("sfcache: Config.MaxEntries must be positive")
	}
	return &Cache[V]{cfg: cfg, entries: map[string]*entry[V]{}, lru: list.New()}
}

func (c *Cache[V]) count(name string) {
	if name != "" {
		c.cfg.Counters.Add(name, 1)
	}
}

// Len reports the number of completed entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Get returns the value for key, running compute at most once per key across
// concurrent callers; compute runs under the caller's own ctx. The Outcome
// reports whether this caller computed, found a completed entry, or joined a
// computation in flight.
func (c *Cache[V]) Get(ctx context.Context, key string, compute func() (V, error)) (V, Outcome, error) {
	for {
		c.mu.Lock()
		e, ok := c.entries[key]
		if ok && e.elem != nil && !e.expires.IsZero() && time.Now().After(e.expires) {
			c.evictLocked(e)
			ok = false
		}
		if !ok {
			e = &entry[V]{key: key, done: make(chan struct{})}
			c.entries[key] = e
			c.mu.Unlock()
			c.count(c.cfg.Misses)

			e.val, e.err = compute()
			e.abandoned = e.err != nil && ctx.Err() != nil
			c.complete(e)
			close(e.done)
			return e.val, Miss, e.err
		}
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
			c.mu.Unlock()
			c.count(c.cfg.Hits)
			return e.val, Hit, nil
		}
		c.mu.Unlock()

		c.count(c.cfg.Shared)
		select {
		case <-e.done:
			if !e.abandoned {
				return e.val, Shared, e.err
			}
			if ctx.Err() == nil {
				continue // the leader gave up, this caller has not: lead
			}
		case <-ctx.Done():
		}
		var zero V
		return zero, Shared, fmt.Errorf("sfcache: waiting for in-flight computation: %w", ctx.Err())
	}
}

// complete finalizes a leader's entry: a failure is dropped, a success joins
// the LRU list (evicting the least recently used completed entries beyond
// MaxEntries).
func (c *Cache[V]) complete(e *entry[V]) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.err != nil {
		delete(c.entries, e.key)
		return
	}
	if c.cfg.TTL > 0 {
		e.expires = time.Now().Add(c.cfg.TTL)
	}
	e.elem = c.lru.PushFront(e)
	for c.lru.Len() > c.cfg.MaxEntries {
		c.evictLocked(c.lru.Back().Value.(*entry[V]))
	}
}

// evictLocked unlinks a completed entry from both indexes.
func (c *Cache[V]) evictLocked(e *entry[V]) {
	delete(c.entries, e.key)
	c.lru.Remove(e.elem)
	e.elem = nil
	c.count(c.cfg.Evictions)
}
