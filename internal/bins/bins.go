// Package bins discretizes table columns into compact integer codes, the
// representation consumed by the information-theoretic estimators in
// package infotheory. Numeric columns are binned (equal-width or
// equal-frequency); categorical columns reuse their dictionary codes.
// A missing value is always code -1.
package bins

import (
	"fmt"
	"math"
	"sort"

	"nexus/internal/table"
)

// Missing is the code assigned to null values.
const Missing int32 = -1

// Encoded is a discretized column: Codes[i] ∈ [0, Card) or Missing.
type Encoded struct {
	Name   string
	Codes  []int32
	Card   int      // number of distinct codes (bins or categories)
	Labels []string // human-readable label per code (may be nil)
	// Slots, when non-nil, makes this the indirect form of a column whose
	// value is a function of an entity slot: Codes holds one code per slot
	// and Slots maps each row to its slot, so row i's code is
	// Codes[Slots[i]], or Missing where Slots[i] < 0 (an unresolved row).
	// The counting kernel reads it through the map (counting.Dim);
	// e.Broadcast(e.Slots) is the same column with one code per row.
	Slots []int32
}

// Len returns the number of rows.
func (e *Encoded) Len() int {
	if e.Slots != nil {
		return len(e.Slots)
	}
	return len(e.Codes)
}

// Code returns row i's code, read through Slots for the indirect form.
func (e *Encoded) Code(i int) int32 {
	if e.Slots == nil {
		return e.Codes[i]
	}
	if s := e.Slots[i]; s >= 0 {
		return e.Codes[s]
	}
	return Missing
}

// MissingCount returns the number of rows whose code is Missing.
func (e *Encoded) MissingCount() int {
	n := 0
	for i := range e.Len() {
		if e.Code(i) == Missing {
			n++
		}
	}
	return n
}

// MissingFraction returns the fraction of Missing codes (0 on empty input).
func (e *Encoded) MissingFraction() float64 {
	if e.Len() == 0 {
		return 0
	}
	return float64(e.MissingCount()) / float64(e.Len())
}

// Gather returns a new direct Encoded restricted to the given row indices.
func (e *Encoded) Gather(idx []int) *Encoded {
	out := &Encoded{Name: e.Name, Card: e.Card, Labels: e.Labels}
	out.Codes = make([]int32, len(idx))
	for i, r := range idx {
		out.Codes[i] = e.Code(r)
	}
	return out
}

// Broadcast reads e.Codes as one code per entity slot and returns the
// row-level encoding under slots, the row→slot map: row i gets
// e.Codes[slots[i]], and Missing where slots[i] < 0 (an unresolved row). It
// is the one place slot codes become row codes.
func (e *Encoded) Broadcast(slots []int32) *Encoded {
	out := &Encoded{Name: e.Name, Card: e.Card, Labels: e.Labels, Codes: make([]int32, len(slots))}
	for i, s := range slots {
		if s < 0 {
			out.Codes[i] = Missing
		} else {
			out.Codes[i] = e.Codes[s]
		}
	}
	return out
}

// Options controls discretization. Numeric columns are binned at
// equal-frequency (quantile) cut points, which are robust to skew.
type Options struct {
	Bins int // number of bins for numeric columns; default 8
}

// DefaultOptions matches the estimator settings used across nexus.
func DefaultOptions() Options { return Options{Bins: 8} }

// Encode discretizes a column. Categorical (String/Bool) columns map each
// distinct value to a code; numeric columns are binned per opts. Numeric
// columns whose distinct count is at most opts.Bins are treated as
// categorical (each value its own code) to avoid lossy binning.
func Encode(c *table.Column, opts Options) (*Encoded, error) {
	if opts.Bins <= 0 {
		opts.Bins = 8
	}
	switch c.Typ {
	case table.String:
		return encodeString(c), nil
	case table.Bool:
		return encodeBool(c), nil
	case table.Float, table.Int:
		return encodeNumeric(c, opts)
	default:
		return nil, fmt.Errorf("bins: unsupported column type %v", c.Typ)
	}
}

func encodeString(c *table.Column) *Encoded {
	n := c.Len()
	e := &Encoded{Name: c.Name, Codes: make([]int32, n)}
	// Re-map dictionary codes to a dense range of the values actually used.
	remap := make(map[int32]int32)
	var labels []string
	for i := 0; i < n; i++ {
		if c.IsNull(i) {
			e.Codes[i] = Missing
			continue
		}
		dc := c.Code(i)
		code, ok := remap[dc]
		if !ok {
			code = int32(len(labels))
			remap[dc] = code
			labels = append(labels, c.StringAt(i))
		}
		e.Codes[i] = code
	}
	e.Card = len(labels)
	e.Labels = labels
	return e
}

func encodeBool(c *table.Column) *Encoded {
	n := c.Len()
	e := &Encoded{Name: c.Name, Codes: make([]int32, n), Card: 2, Labels: []string{"false", "true"}}
	for i := 0; i < n; i++ {
		if c.IsNull(i) {
			e.Codes[i] = Missing
			continue
		}
		v, _ := c.BoolAt(i)
		if v {
			e.Codes[i] = 1
		}
	}
	return e
}

func encodeNumeric(c *table.Column, opts Options) (*Encoded, error) {
	n := c.Len()
	// The non-null values, sorted once: the distinct values and the quantile
	// edges are both read off this copy.
	sorted := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if !c.IsNull(i) {
			sorted = append(sorted, c.Float(i))
		}
	}
	e := &Encoded{Name: c.Name, Codes: make([]int32, n)}
	if len(sorted) == 0 {
		for i := range e.Codes {
			e.Codes[i] = Missing
		}
		e.Card = 0
		return e, nil
	}
	sort.Float64s(sorted)

	if distinct := distinctUpTo(sorted, opts.Bins); distinct != nil {
		// Few distinct values: one code per value.
		codeOf := make(map[float64]int32, len(distinct))
		labels := make([]string, len(distinct))
		for i, v := range distinct {
			codeOf[v] = int32(i)
			labels[i] = fmt.Sprintf("%g", v)
		}
		for i := 0; i < n; i++ {
			if c.IsNull(i) {
				e.Codes[i] = Missing
			} else {
				e.Codes[i] = codeOf[c.Float(i)]
			}
		}
		e.Card = len(distinct)
		e.Labels = labels
		return e, nil
	}

	edges := binEdges(sorted, opts.Bins)
	labels := make([]string, len(edges)+1)
	for i := range labels {
		lo, hi := "-inf", "+inf"
		if i > 0 {
			lo = fmt.Sprintf("%.4g", edges[i-1])
		}
		if i < len(edges) {
			hi = fmt.Sprintf("%.4g", edges[i])
		}
		labels[i] = fmt.Sprintf("[%s, %s)", lo, hi)
	}
	for i := 0; i < n; i++ {
		if c.IsNull(i) {
			e.Codes[i] = Missing
			continue
		}
		e.Codes[i] = binOf(edges, c.Float(i))
	}
	e.Card = len(edges) + 1
	e.Labels = labels
	return e, nil
}

// binOf returns v's bin under edges: the number of edges at or below v, so a
// value equal to an edge lands in the upper bin ([lo, hi) intervals). A
// finite value is nudged up by tiny before the search; an infinite one is
// placed by the comparison itself (tiny(±Inf) is +Inf, and −Inf + Inf is NaN,
// which the search would put in the top bin).
func binOf(edges []float64, v float64) int32 {
	if math.IsInf(v, 0) {
		return int32(sort.Search(len(edges), func(i int) bool { return edges[i] > v }))
	}
	return int32(sort.SearchFloat64s(edges, v+tiny(v)))
}

// tiny is the nudge that lands a finite value equal to an edge in the upper
// bin.
func tiny(v float64) float64 {
	return math.Abs(v)*1e-12 + 1e-300
}

// binEdges returns the k-quantile cut points of sorted, deduplicated.
func binEdges(sorted []float64, k int) []float64 {
	edges := make([]float64, 0, k-1)
	for i := 1; i < k; i++ {
		q := float64(i) / float64(k)
		pos := q * float64(len(sorted)-1)
		edges = append(edges, sorted[int(pos)])
	}
	return dedupEdges(edges)
}

func dedupEdges(edges []float64) []float64 {
	out := edges[:0]
	for i, e := range edges {
		if i == 0 || e > out[len(out)-1] {
			out = append(out, e)
		}
	}
	return out
}

// distinctUpTo returns the distinct values of sorted in order, or nil when
// there are more than k of them.
func distinctUpTo(sorted []float64, k int) []float64 {
	out := make([]float64, 0, min(k, len(sorted)))
	for i, v := range sorted {
		if i == 0 || v != out[len(out)-1] {
			if len(out) == k {
				return nil
			}
			out = append(out, v)
		}
	}
	return out
}
