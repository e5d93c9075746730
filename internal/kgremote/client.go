// Package kgremote implements kg.Source over the HTTP wire protocol of
// package kgwire, turning any kgd server into a drop-in knowledge-graph
// backend for extraction and NED.
//
// The client is built for the batched per-hop access pattern of
// internal/extract: requests arrive as large id batches, which the client
// splits into chunks of BatchSize and issues with at most MaxInflight
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
	"net/http"
	"strings"
	"time"

	"nexus/internal/kg"
	"nexus/internal/kgwire"
	"nexus/internal/obs"
	"nexus/internal/rpc"
)

// Options configures a Client. The zero value selects sane defaults.
type Options struct {
	// BatchSize caps the number of items per HTTP request; larger input
	// batches are split into concurrent chunk requests. Default 2048.
	BatchSize int
	// MaxInflight bounds the number of concurrent chunk requests.
	// Default 4.
	MaxInflight int
	// CacheSize is the capacity of each LRU cache (entities, property
	// maps, resolutions). Negative disables caching. Default 65536.
	CacheSize int
	// MaxRetries is the number of re-attempts after a retryable failure
	// (so MaxRetries+1 attempts total). Default 3.
	MaxRetries int
	// RetryBase is the first backoff delay; it doubles per attempt up to
	// RetryMax. The actual sleep is uniformly jittered over
	// [backoff/2, backoff]. Defaults 50ms / 2s.
	RetryBase time.Duration
	RetryMax  time.Duration
	// Timeout bounds each individual HTTP attempt. Default 10s.
	Timeout time.Duration
	// Seed seeds the jitter RNG, making retry schedules reproducible.
	// Default 1.
	Seed uint64
	// HTTPClient overrides the transport (tests). Default http.DefaultClient.
	HTTPClient *http.Client
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

func (o Options) withDefaults() Options {
	if o.BatchSize <= 0 {
		o.BatchSize = 2048
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 4
	}
	if o.CacheSize == 0 {
		o.CacheSize = 65536 // negative stays: a non-positive rpc.LRU caches nothing
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	} else if o.MaxRetries == 0 {
		o.MaxRetries = 3
	}
	return o
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
	opts = opts.withDefaults()
	return &Client{
		base: strings.TrimRight(baseURL, "/"),
		opts: opts,
		rpc: rpc.NewClient(rpc.ClientConfig{
			Attempts:       opts.MaxRetries + 1,
			RetryBase:      opts.RetryBase,
			RetryMax:       opts.RetryMax,
			Timeout:        opts.Timeout,
			Seed:           opts.Seed,
			HTTPClient:     opts.HTTPClient,
			Counters:       opts.Counters,
			Requests:       obs.KGHTTPRequests,
			Retries:        obs.KGHTTPRetries,
			AttemptSeconds: opts.Registry.Histogram("kg_http_attempt_seconds", obs.UnitSeconds),
			RetriesPerCall: opts.Registry.Histogram("kg_http_request_retries", obs.UnitNone),
		}),
		ents:    rpc.NewLRU[kg.EntityID, kg.Entity](opts.CacheSize),
		props:   rpc.NewLRU[kg.EntityID, kg.Props](opts.CacheSize),
		resolve: rpc.NewLRU[string, kg.Link](opts.CacheSize),
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

// Resolve implements kg.Source, serving repeat surface forms from the LRU.
func (c *Client) Resolve(ctx context.Context, values []string) ([]kg.Link, error) {
	out := make([]kg.Link, len(values))
	var missIdx []int
	for i, v := range values {
		if l, ok := c.resolve.Get(v); ok {
			out[i] = l
			continue
		}
		missIdx = append(missIdx, i)
	}
	c.opts.Counters.Add(obs.KGCacheHits, int64(len(values)-len(missIdx)))
	c.opts.Counters.Add(obs.KGCacheMisses, int64(len(missIdx)))
	err := rpc.ForEachChunk(ctx, len(missIdx), c.opts.BatchSize, c.opts.MaxInflight, func(ctx context.Context, lo, hi, _ int) error {
		req := kgwire.ResolveRequest{Values: make([]string, hi-lo)}
		for j, i := range missIdx[lo:hi] {
			req.Values[j] = values[i]
		}
		var resp kgwire.ResolveResponse
		if err := c.post(ctx, kgwire.PathResolve, req, &resp); err != nil {
			return err
		}
		if len(resp.Links) != hi-lo {
			return fmt.Errorf("kgremote: resolve returned %d links, want %d", len(resp.Links), hi-lo)
		}
		for j, i := range missIdx[lo:hi] {
			l := resp.Links[j].ToLink()
			out[i] = l
			c.resolve.Put(values[i], l)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Entities implements kg.Source, serving repeat ids from the LRU.
func (c *Client) Entities(ctx context.Context, ids []kg.EntityID) ([]kg.Entity, error) {
	out := make([]kg.Entity, len(ids))
	var missIdx []int
	for i, id := range ids {
		if e, ok := c.ents.Get(id); ok {
			out[i] = e
			continue
		}
		missIdx = append(missIdx, i)
	}
	c.opts.Counters.Add(obs.KGCacheHits, int64(len(ids)-len(missIdx)))
	c.opts.Counters.Add(obs.KGCacheMisses, int64(len(missIdx)))
	err := rpc.ForEachChunk(ctx, len(missIdx), c.opts.BatchSize, c.opts.MaxInflight, func(ctx context.Context, lo, hi, _ int) error {
		req := kgwire.EntitiesRequest{IDs: make([]int32, hi-lo)}
		for j, i := range missIdx[lo:hi] {
			req.IDs[j] = int32(ids[i])
		}
		var resp kgwire.EntitiesResponse
		if err := c.post(ctx, kgwire.PathEntities, req, &resp); err != nil {
			return err
		}
		if len(resp.Entities) != hi-lo {
			return fmt.Errorf("kgremote: entities returned %d records, want %d", len(resp.Entities), hi-lo)
		}
		for j, i := range missIdx[lo:hi] {
			e := resp.Entities[j].ToEntity()
			out[i] = e
			c.ents.Put(ids[i], e)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// GetProperties implements kg.Source, serving repeat ids from the LRU.
func (c *Client) GetProperties(ctx context.Context, ids []kg.EntityID) ([]kg.Props, error) {
	out := make([]kg.Props, len(ids))
	var missIdx []int
	for i, id := range ids {
		if p, ok := c.props.Get(id); ok {
			out[i] = p
			continue
		}
		missIdx = append(missIdx, i)
	}
	c.opts.Counters.Add(obs.KGCacheHits, int64(len(ids)-len(missIdx)))
	c.opts.Counters.Add(obs.KGCacheMisses, int64(len(missIdx)))
	err := rpc.ForEachChunk(ctx, len(missIdx), c.opts.BatchSize, c.opts.MaxInflight, func(ctx context.Context, lo, hi, _ int) error {
		req := kgwire.PropertiesRequest{IDs: make([]int32, hi-lo)}
		for j, i := range missIdx[lo:hi] {
			req.IDs[j] = int32(ids[i])
		}
		var resp kgwire.PropertiesResponse
		if err := c.post(ctx, kgwire.PathProperties, req, &resp); err != nil {
			return err
		}
		if len(resp.Props) != hi-lo {
			return fmt.Errorf("kgremote: properties returned %d maps, want %d", len(resp.Props), hi-lo)
		}
		for j, i := range missIdx[lo:hi] {
			p, err := resp.Props[j].ToProps()
			if err != nil {
				return err
			}
			out[i] = p
			c.props.Put(ids[i], p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Version implements kg.Versioned for the remote backend. The client
// cannot observe the server's graph content, so the version is the
// endpoint identity: repointing -kg at a different kgd (or regenerating
// the graph behind the same URL) should be paired with a restart of nexusd
// or a URL change — docs/OPERATIONS.md covers the procedure.
func (c *Client) Version() string { return "remote:" + c.base }
