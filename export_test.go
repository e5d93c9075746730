package nexus

import (
	"context"

	"nexus/internal/extract"
)

// RefinementAttrCount is how many dimensions the subgroup search of a's
// reports refines over, for the effort gate in the external tests.
func RefinementAttrCount(a *Analysis) (int, error) {
	attrs, err := a.refinementAttrs()
	return len(attrs), err
}

// get is lookup returning the extraction alone, for the cache's own tests.
func (c *ExtractionCache) get(ctx context.Context, key string, fn func() (*extract.Extraction, error)) (*extract.Extraction, bool, error) {
	ce, hit, err := c.lookup(ctx, key, fn)
	if err != nil {
		return nil, hit, err
	}
	return ce.ex, hit, nil
}
