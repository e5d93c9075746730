package bins

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"nexus/internal/stats"
	"nexus/internal/table"
)

// encodeNumericTwoSorts is encodeNumeric as it was before it sorted the
// values once: distinctSorted and binEdges each sorted a copy of them, and
// every value, infinite ones included, was nudged by tiny before the search.
func encodeNumericTwoSorts(c *table.Column, opts Options) *Encoded {
	n := c.Len()
	vals := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if !c.IsNull(i) {
			vals = append(vals, c.Float(i))
		}
	}
	e := &Encoded{Name: c.Name, Codes: make([]int32, n)}
	if len(vals) == 0 {
		for i := range e.Codes {
			e.Codes[i] = Missing
		}
		return e
	}
	distinct := distinctSortedCopy(vals)
	if len(distinct) <= opts.Bins {
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
		return e
	}
	edges := binEdgesOfCopy(vals, opts.Bins)
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
		e.Codes[i] = int32(sort.SearchFloat64s(edges, c.Float(i)+tiny(c.Float(i))))
	}
	e.Card = len(edges) + 1
	e.Labels = labels
	return e
}

func binEdgesOfCopy(vals []float64, k int) []float64 {
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	edges := make([]float64, 0, k-1)
	for i := 1; i < k; i++ {
		q := float64(i) / float64(k)
		pos := q * float64(len(sorted)-1)
		edges = append(edges, sorted[int(pos)])
	}
	return dedupEdges(edges)
}

func distinctSortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// TestEncodeNumericMatchesTwoSorts holds the sort-once encoding to the
// two-sort form over random columns: continuous, few-valued, tied at the
// quantiles, with nulls, signed zeros and infinities, at 1 to 16 bins. Card
// and labels are equal; every finite value's code is equal, and an infinite
// value's code is the number of edges at or below it.
func TestEncodeNumericMatchesTwoSorts(t *testing.T) {
	rng := stats.NewRNG(41)
	special := []float64{math.Inf(-1), math.Inf(1), 0, math.Copysign(0, -1), math.NaN()}
	for trial := range 400 {
		n := rng.Intn(300)
		distinct := 1 + rng.Intn(40)
		vals := make([]float64, n)
		for i := range vals {
			switch k := rng.Intn(20); {
			case trial%4 == 0:
				vals[i] = rng.Norm() * 1e6
			case k == 0:
				vals[i] = special[rng.Intn(len(special))]
			default:
				vals[i] = float64(rng.Intn(distinct)) / 4
			}
		}
		opts := Options{Bins: 1 + rng.Intn(16)}
		col := table.NewFloatColumn("x", vals)
		got, err := Encode(col, opts)
		if err != nil {
			t.Fatal(err)
		}
		want := encodeNumericTwoSorts(col, opts)
		if got.Card != want.Card || !slices.Equal(got.Labels, want.Labels) {
			t.Fatalf("trial %d (%d bins): card %d labels %q, two sorts %d %q", trial, opts.Bins, got.Card, got.Labels, want.Card, want.Labels)
		}
		// The two-sort form's edges, when it bins rather than coding each value.
		var edges []float64
		present := nonNull(col)
		binned := len(distinctSortedCopy(present)) > opts.Bins
		if binned {
			edges = binEdgesOfCopy(present, opts.Bins)
		}
		for i, v := range vals {
			w := want.Codes[i]
			if math.IsInf(v, 0) && binned {
				w = int32(sort.Search(len(edges), func(j int) bool { return edges[j] > v }))
			}
			if got.Codes[i] != w {
				t.Fatalf("trial %d (%d bins): value %v has code %d, want %d", trial, opts.Bins, v, got.Codes[i], w)
			}
		}
	}
}

func nonNull(c *table.Column) []float64 {
	var out []float64
	for i := range c.Len() {
		if !c.IsNull(i) {
			out = append(out, c.Float(i))
		}
	}
	return out
}

// TestEncodeInfinities: −Inf lands in the bottom bin and +Inf in the top one
// (−Inf + tiny(−Inf) used to be NaN, which the search put in the top bin),
// and the finite values keep their codes.
func TestEncodeInfinities(t *testing.T) {
	vals := []float64{math.Inf(-1)}
	for v := 1; v <= 12; v++ {
		vals = append(vals, float64(v))
	}
	vals = append(vals, math.Inf(1))
	col := table.NewFloatColumn("x", vals)
	e, err := Encode(col, Options{Bins: 4})
	if err != nil {
		t.Fatal(err)
	}
	if e.Card != 4 {
		t.Fatalf("card = %d, want 4", e.Card)
	}
	if first, last := e.Codes[0], e.Codes[len(vals)-1]; first != 0 || last != int32(e.Card-1) {
		t.Fatalf("−Inf has code %d, +Inf %d; want 0 and %d (labels %q)", first, last, e.Card-1, e.Labels)
	}
	want := encodeNumericTwoSorts(col, Options{Bins: 4})
	if !slices.Equal(e.Codes[1:len(vals)-1], want.Codes[1:len(vals)-1]) {
		t.Fatalf("finite codes %v, before the fix %v", e.Codes[1:len(vals)-1], want.Codes[1:len(vals)-1])
	}
}
