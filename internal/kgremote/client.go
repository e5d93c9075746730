// Package kgremote implements kg.Source over the HTTP wire protocol of
// package kgwire, turning any kgd server into a drop-in knowledge-graph
// backend for extraction and NED.
//
// The client is built for the batched per-hop access pattern of
// internal/extract: requests arrive as large id batches, which the client
// splits into chunks of batchSize and issues with at most maxInflight
// in-flight HTTP requests. Per-item LRU caches (entities, property maps,
// resolved surface forms) absorb repeat lookups across hops and
// across extractions; hits and misses are recorded on the obs counters
// kg_cache_hits / kg_cache_misses. Package rpc supplies the attempt, retry
// and fan-out policy: transient failures (HTTP 5xx, transport errors,
// timeouts) are retried with exponential backoff and jitter; 4xx responses
// are permanent and fail immediately.
package kgremote

import (
	"context"
	"fmt"
	"strings"
	"time"

	"nexus/internal/kg"
	"nexus/internal/kgwire"
	"nexus/internal/obs"
	"nexus/internal/rpc"
)

// The chunking and caching of every Client.
const (
	// batchSize caps the number of items per HTTP request; larger input
	// batches are split into concurrent chunk requests.
	batchSize = 2048
	// maxInflight bounds the number of concurrent chunk requests.
	maxInflight = 4
	// cacheSize is the capacity of each LRU cache (entities, property maps,
	// resolutions).
	cacheSize = 65536
)

// Options configures a Client. The zero value selects sane defaults.
type Options struct {
	// MaxRetries is the number of re-attempts after a retryable failure
	// (so MaxRetries+1 attempts total). Default 3.
	MaxRetries int
	// RetryBase is the first backoff delay; it doubles per attempt up to
	// RetryMax. The actual sleep is uniformly jittered over
	// [backoff/2, backoff]. Defaults 50ms / 2s.
	RetryBase time.Duration
	RetryMax  time.Duration
	// Counters receives kg_cache_hits/kg_cache_misses/kg_http_requests/
	// kg_http_retries. Nil disables recording (obs no-op convention).
	Counters *obs.Counters
	// Registry, when non-nil, additionally records per-attempt HTTP latency
	// (kg_http_attempt_seconds) and the retries spent per logical request
	// (kg_http_request_retries, a histogram so retry storms are visible as
	// a distribution, not just a rate). Nil disables both (obs no-op
	// convention).
	Registry *obs.Registry
}

// Client is an HTTP kg.Source. Safe for concurrent use.
type Client struct {
	base string
	opts Options
	rpc  *rpc.Client // attempt, timeout, retry and backoff policy

	ents    *rpc.LRU[kg.EntityID, kg.Entity]
	props   *rpc.LRU[kg.EntityID, kg.Props]
	resolve *rpc.LRU[string, kg.Link]
}

// Statically assert the Source contract.
var _ kg.Source = (*Client)(nil)

// New returns a client for the kgd server at baseURL (e.g.
// "http://localhost:7070").
func New(baseURL string, opts Options) *Client {
	if opts.MaxRetries < 0 {
		opts.MaxRetries = 0
	} else if opts.MaxRetries == 0 {
		opts.MaxRetries = 3
	}
	return &Client{
		base: strings.TrimRight(baseURL, "/"),
		opts: opts,
		rpc: rpc.NewClient(rpc.ClientConfig{
			Attempts:       opts.MaxRetries + 1,
			RetryBase:      opts.RetryBase,
			RetryMax:       opts.RetryMax,
			Counters:       opts.Counters,
			Requests:       obs.KGHTTPRequests,
			Retries:        obs.KGHTTPRetries,
			AttemptSeconds: opts.Registry.Histogram("kg_http_attempt_seconds", obs.UnitSeconds),
			RetriesPerCall: opts.Registry.Histogram("kg_http_request_retries", obs.UnitNone),
		}),
		ents:    rpc.NewLRU[kg.EntityID, kg.Entity](cacheSize),
		props:   rpc.NewLRU[kg.EntityID, kg.Props](cacheSize),
		resolve: rpc.NewLRU[string, kg.Link](cacheSize),
	}
}

// post issues one logical JSON request under the retry policy, decoding
// the response into out.
func (c *Client) post(ctx context.Context, path string, in, out any) error {
	err := c.rpc.Retry(ctx, func(int) error { return c.rpc.Post(ctx, c.base+path, in, out) })
	if err != nil {
		return fmt.Errorf("kgremote: %s: %w", path, err)
	}
	return nil
}

// fetch is the cached, batched lookup behind every kg.Source method. Keys
// found in cache are served from it. The misses are posted to path in
// chunks of batchSize, at most maxInflight at a time: request builds a
// chunk's request, and decode reads the reply R back into one value per
// key, in order, which is returned and cached. A reply that decode rejects
// fails the call without a retry: the server would send the same again.
func fetch[K comparable, V, R any](ctx context.Context, c *Client, cache *rpc.LRU[K, V], path string, keys []K,
	request func(chunk []K) any, decode func(*R) ([]V, error)) ([]V, error) {
	out := make([]V, len(keys))
	var missIdx []int
	for i, k := range keys {
		if v, ok := cache.Get(k); ok {
			out[i] = v
			continue
		}
		missIdx = append(missIdx, i)
	}
	c.opts.Counters.Add(obs.KGCacheHits, int64(len(keys)-len(missIdx)))
	c.opts.Counters.Add(obs.KGCacheMisses, int64(len(missIdx)))
	err := rpc.ForEachChunk(ctx, len(missIdx), batchSize, maxInflight, func(ctx context.Context, lo, hi, _ int) error {
		chunk := make([]K, hi-lo)
		for j, i := range missIdx[lo:hi] {
			chunk[j] = keys[i]
		}
		var resp R
		if err := c.post(ctx, path, request(chunk), &resp); err != nil {
			return err
		}
		got, err := decode(&resp)
		if err != nil {
			return fmt.Errorf("kgremote: %s: %w", path, err)
		}
		if len(got) != len(chunk) {
			return fmt.Errorf("kgremote: %s returned %d items, want %d", path, len(got), len(chunk))
		}
		for j, i := range missIdx[lo:hi] {
			out[i] = got[j]
			cache.Put(keys[i], got[j])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// convert maps each wire item to its kg form.
func convert[W, V any](ws []W, f func(W) V) []V {
	out := make([]V, len(ws))
	for i, w := range ws {
		out[i] = f(w)
	}
	return out
}

// wireIDs converts entity ids to their wire form.
func wireIDs(ids []kg.EntityID) []int32 {
	out := make([]int32, len(ids))
	for i, id := range ids {
		out[i] = int32(id)
	}
	return out
}

// Resolve implements kg.Source, serving repeat surface forms from the LRU.
func (c *Client) Resolve(ctx context.Context, values []string) ([]kg.Link, error) {
	return fetch(ctx, c, c.resolve, kgwire.PathResolve, values,
		func(chunk []string) any { return kgwire.ResolveRequest{Values: chunk} },
		func(r *kgwire.ResolveResponse) ([]kg.Link, error) { return convert(r.Links, kgwire.Link.ToLink), nil })
}

// Entities implements kg.Source, serving repeat ids from the LRU.
func (c *Client) Entities(ctx context.Context, ids []kg.EntityID) ([]kg.Entity, error) {
	return fetch(ctx, c, c.ents, kgwire.PathEntities, ids,
		func(chunk []kg.EntityID) any { return kgwire.EntitiesRequest{IDs: wireIDs(chunk)} },
		func(r *kgwire.EntitiesResponse) ([]kg.Entity, error) {
			return convert(r.Entities, kgwire.Entity.ToEntity), nil
		})
}

// GetProperties implements kg.Source, serving repeat ids from the LRU. Each
// reply is one properties table, rebuilt into the chunk's maps.
func (c *Client) GetProperties(ctx context.Context, ids []kg.EntityID) ([]kg.Props, error) {
	return fetch(ctx, c, c.props, kgwire.PathProperties, ids,
		func(chunk []kg.EntityID) any { return kgwire.PropertiesRequest{IDs: wireIDs(chunk)} },
		(*kgwire.PropertiesResponse).Rebuild)
}

// Version implements kg.Versioned for the remote backend. The client
// cannot observe the server's graph content, so the version is the
// endpoint identity: repointing -kg at a different kgd (or regenerating
// the graph behind the same URL) should be paired with a restart of nexusd
// or a URL change — docs/OPERATIONS.md covers the procedure.
func (c *Client) Version() string { return "remote:" + c.base }
