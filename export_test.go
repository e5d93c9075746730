package nexus

import (
	"context"

	"nexus/internal/bins"
	"nexus/internal/extract"
	"nexus/internal/sfcache"
	"nexus/internal/sqlx"
)

// ExplanationEncodings is the explanation r's subgroup search conditions on,
// one encoding per selected attribute, for the external tests.
func ExplanationEncodings(r *Report) ([]*bins.Encoded, error) { return r.explanationEncodings() }

// Catalog is s's table catalog, for the external tests that execute a query
// without explaining it.
func Catalog(s *Session) sqlx.Catalog { return s.catalog }

// get is lookup returning the extraction alone and whether it was a hit —
// a completed entry or an in-flight extraction started by another caller —
// for the cache's own tests.
func (c *ExtractionCache) get(ctx context.Context, key string, fn func() (*extract.Extraction, error)) (*extract.Extraction, bool, error) {
	ce, out, err := c.c.Get(ctx, key, func() (*cachedExtraction, error) {
		ex, err := fn()
		return &cachedExtraction{ex: ex}, err
	})
	if err != nil {
		return nil, out != sfcache.Miss, err
	}
	return ce.ex, out != sfcache.Miss, nil
}
