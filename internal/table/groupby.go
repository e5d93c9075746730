package table

import (
	"fmt"
	"math"
	"strings"

	"nexus/internal/counting"
)

// AggFunc identifies an aggregation function.
type AggFunc int

// Supported aggregations.
const (
	AggMean AggFunc = iota
	AggSum
	AggCount
	AggMin
	AggMax
	AggFirst
)

// ParseAggFunc maps a SQL-ish name to an AggFunc, case-insensitively.
func ParseAggFunc(name string) (AggFunc, error) {
	switch strings.ToLower(name) {
	case "avg", "mean":
		return AggMean, nil
	case "sum":
		return AggSum, nil
	case "count":
		return AggCount, nil
	case "min":
		return AggMin, nil
	case "max":
		return AggMax, nil
	case "first":
		return AggFirst, nil
	default:
		return 0, fmt.Errorf("table: unknown aggregation %q", name)
	}
}

// String returns the SQL name of the aggregation.
func (a AggFunc) String() string {
	switch a {
	case AggMean:
		return "avg"
	case AggSum:
		return "sum"
	case AggCount:
		return "count"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggFirst:
		return "first"
	default:
		return fmt.Sprintf("AggFunc(%d)", int(a))
	}
}

// Apply reduces vals (nulls already removed) to a single value. Returns NaN
// on empty input for all but AggCount/AggSum.
func (a AggFunc) Apply(vals []float64) float64 {
	switch a {
	case AggCount:
		return float64(len(vals))
	case AggSum:
		s := 0.0
		for _, v := range vals {
			s += v
		}
		return s
	}
	if len(vals) == 0 {
		return math.NaN()
	}
	switch a {
	case AggMean:
		s := 0.0
		for _, v := range vals {
			s += v
		}
		return s / float64(len(vals))
	case AggMin:
		m := vals[0]
		for _, v := range vals[1:] {
			if v < m {
				m = v
			}
		}
		return m
	case AggMax:
		m := vals[0]
		for _, v := range vals[1:] {
			if v > m {
				m = v
			}
		}
		return m
	case AggFirst:
		return vals[0]
	default:
		return math.NaN()
	}
}

// GroupBy partitions the table by the values of the named key columns and
// aggregates valueCol with fn. It returns a table with the key columns plus
// one aggregate column named "<fn>(<valueCol>)". Rows with a null key are
// grouped under the empty-string key for String columns and dropped for
// numeric keys. Output rows are ordered by first appearance of each group.
func (t *Table) GroupBy(keys []string, valueCol string, fn AggFunc) (*Table, error) {
	groups, order, err := t.GroupIndices(keys)
	if err != nil {
		return nil, err
	}
	vc := t.Column(valueCol)
	if vc == nil {
		return nil, fmt.Errorf("table: group-by of unknown value column %q", valueCol)
	}
	out := New()
	keyCols := make([]*Column, len(keys))
	for i, k := range keys {
		src := t.MustColumn(k)
		keyCols[i] = NewColumn(k, src.Typ)
	}
	aggName := fmt.Sprintf("%s(%s)", fn, valueCol)
	aggCol := NewColumn(aggName, Float)
	for _, g := range order {
		rows := groups[g]
		src0 := rows[0]
		for i, k := range keys {
			src := t.MustColumn(k)
			appendFrom(keyCols[i], src, src0)
		}
		var vals []float64
		for _, r := range rows {
			if !vc.IsNull(r) {
				vals = append(vals, vc.Float(r))
			}
		}
		v := fn.Apply(vals)
		if math.IsNaN(v) {
			aggCol.AppendNull()
		} else {
			aggCol.AppendFloat(v)
		}
	}
	for _, c := range keyCols {
		if err := out.AddColumn(c); err != nil {
			return nil, err
		}
	}
	if err := out.AddColumn(aggCol); err != nil {
		return nil, err
	}
	return out, nil
}

// GroupIndices partitions rows by the composite value of the key columns.
// It returns the map group-key → row indices and the group keys in first-
// appearance order.
func (t *Table) GroupIndices(keys []string) (map[string][]int, []string, error) {
	cols := make([]*Column, len(keys))
	for i, k := range keys {
		c := t.Column(k)
		if c == nil {
			return nil, nil, fmt.Errorf("table: group-by of unknown key column %q", k)
		}
		cols[i] = c
	}
	// Intern each row's composite key to a dense group id in first-appearance
	// order, then let the unified counting kernel partition the rows. The
	// interning keeps the string-key semantics (null sentinels, separator)
	// byte-for-byte; the kernel only ever sees dense ids.
	n := t.NumRows()
	ids := make([]int32, n)
	idOf := make(map[string]int32)
	var order []string
	for row := 0; row < n; row++ {
		key := compositeKey(cols, row)
		id, seen := idOf[key]
		if !seen {
			id = int32(len(order))
			idOf[key] = id
			order = append(order, key)
		}
		ids[row] = id
	}
	rowsets := counting.GroupRows(ids, len(order))
	groups := make(map[string][]int, len(order))
	for i, key := range order {
		groups[key] = rowsets[i]
	}
	return groups, order, nil
}

func compositeKey(cols []*Column, row int) string {
	if len(cols) == 1 {
		if cols[0].IsNull(row) {
			return "\x00null"
		}
		return cols[0].StringAt(row)
	}
	key := ""
	for i, c := range cols {
		if i > 0 {
			key += "\x1f"
		}
		if c.IsNull(row) {
			key += "\x00null"
		} else {
			key += c.StringAt(row)
		}
	}
	return key
}

func appendFrom(dst, src *Column, row int) {
	if src.IsNull(row) {
		dst.AppendNull()
		return
	}
	switch src.Typ {
	case Float:
		dst.AppendFloat(src.Float(row))
	case Int:
		v, _ := src.Int(row)
		dst.AppendInt(v)
	case String:
		dst.AppendString(src.StringAt(row))
	case Bool:
		v, _ := src.BoolAt(row)
		dst.AppendBool(v)
	}
}
