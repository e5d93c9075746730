package core

import (
	"sync"

	"nexus/internal/bins"
	"nexus/internal/obs"
)

// runCache memoizes per-candidate derived data — the row-level encoding and
// the IPW weight vector — for the duration of one Explain run. Candidate
// implementations are free to cache internally (the session's KG candidates
// do), but the core pipeline must not depend on that: without memoization a
// candidate surviving both prunes is encoded by the relevance pass, every
// consider-loop visit and every redundancy pass — and, unless its entity form
// let the prunes work without a row vector (Candidate.Entity), by both
// prunes: up to K+2 times. The cache pins both results behind a
// sync.Once per candidate, so every phase after the first observes a hit
// (counted as obs.EncCacheHits) and concurrent phases (parallel prune
// workers, the speculative consider batches) share one computation.
//
// A runCache is created per Explain/MCIMR/prune entry point and dropped
// with the run, so candidates mutated between runs are re-derived. All
// methods are safe for concurrent use.
type runCache struct {
	tr *obs.Trace
	mu sync.Mutex
	m  map[*Candidate]*candMemo
}

type candMemo struct {
	encOnce sync.Once
	enc     *bins.Encoded
	err     error

	wOnce sync.Once
	w     []float64
}

func newRunCache(tr *obs.Trace) *runCache {
	return &runCache{tr: tr, m: make(map[*Candidate]*candMemo)}
}

func (rc *runCache) memo(c *Candidate) *candMemo {
	rc.mu.Lock()
	m := rc.m[c]
	if m == nil {
		m = &candMemo{}
		rc.m[c] = m
	}
	rc.mu.Unlock()
	return m
}

// enc returns the candidate's row-level encoding, invoking Candidate.Enc at
// most once per run.
func (rc *runCache) enc(c *Candidate) (*bins.Encoded, error) {
	m := rc.memo(c)
	hit := true
	m.encOnce.Do(func() {
		hit = false
		m.enc, m.err = c.Enc()
	})
	if hit {
		rc.tr.Add(obs.EncCacheHits, 1)
	}
	return m.enc, m.err
}

// weights returns the candidate's IPW weights for its encoding (nil when
// the candidate has none), invoking Candidate.Weights at most once per run.
func (rc *runCache) weights(c *Candidate) ([]float64, error) {
	if c.Weights == nil {
		return nil, nil
	}
	enc, err := rc.enc(c)
	if err != nil {
		return nil, err
	}
	m := rc.memo(c)
	hit := true
	m.wOnce.Do(func() {
		hit = false
		m.w = c.Weights(enc)
	})
	if hit {
		rc.tr.Add(obs.EncCacheHits, 1)
	}
	return m.w, nil
}
