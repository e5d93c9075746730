package sqlx

import (
	"fmt"

	"nexus/internal/table"
)

// Catalog maps table names to tables.
type Catalog map[string]*table.Table

// Result bundles the aggregate answer with the analysis view nexus explains:
// the context-filtered (joined) relation, and the names of T and O within it.
type Result struct {
	// Rows is the aggregate query answer (T values + aggregate column).
	Rows *table.Table
	// View is the context-filtered detail relation the explanation
	// algorithms analyze: every row satisfying WHERE, after joins.
	View *table.Table
	// Exposure and Outcome name the T and O columns inside View.
	Exposure []string
	Outcome  string
}

// Execute evaluates q against the catalog.
func Execute(q *Query, cat Catalog) (*Result, error) {
	base, ok := cat[q.Table]
	if !ok {
		return nil, fmt.Errorf("sqlx: unknown table %q", q.Table)
	}
	view := base
	if q.Join != nil {
		right, ok := cat[q.Join.Table]
		if !ok {
			return nil, fmt.Errorf("sqlx: unknown join table %q", q.Join.Table)
		}
		j, err := view.Join(right, q.Join.LeftKey, q.Join.RightKey)
		if err != nil {
			return nil, err
		}
		view = j
	}
	if len(q.Where) > 0 {
		var err error
		view, err = ApplyConditions(view, q.Where)
		if err != nil {
			return nil, err
		}
	}
	for _, g := range q.GroupBy {
		if !view.HasColumn(g) {
			return nil, fmt.Errorf("sqlx: unknown group-by column %q", g)
		}
	}
	outcome := q.Outcome
	if outcome == "*" {
		// count(*): synthesize a constant column to count.
		outcome = q.GroupBy[0]
	}
	if !view.HasColumn(outcome) {
		return nil, fmt.Errorf("sqlx: unknown outcome column %q", q.Outcome)
	}
	rows, err := view.GroupBy(q.GroupBy, outcome, q.Agg)
	if err != nil {
		return nil, err
	}
	return &Result{Rows: rows, View: view, Exposure: q.GroupBy, Outcome: outcome}, nil
}

// ApplyConditions filters t to the rows satisfying every condition.
func ApplyConditions(t *table.Table, conds []Condition) (*table.Table, error) {
	preds := make([]func(int) bool, 0, len(conds))
	for _, c := range conds {
		p, err := predicate(t, c)
		if err != nil {
			return nil, err
		}
		preds = append(preds, p)
	}
	return t.Filter(func(i int) bool {
		for _, p := range preds {
			if !p(i) {
				return false
			}
		}
		return true
	}), nil
}

func predicate(t *table.Table, c Condition) (func(int) bool, error) {
	col := t.Column(c.Attr)
	if col == nil {
		return nil, fmt.Errorf("sqlx: unknown column %q in condition", c.Attr)
	}
	if c.IsStr {
		want := c.Str
		switch c.Op {
		case OpEq:
			return func(i int) bool { return !col.IsNull(i) && col.StringAt(i) == want }, nil
		case OpNe:
			return func(i int) bool { return !col.IsNull(i) && col.StringAt(i) != want }, nil
		default:
			return nil, fmt.Errorf("sqlx: operator %s unsupported for strings", c.Op)
		}
	}
	want := c.Num
	cmp := func(v float64) bool { return false }
	switch c.Op {
	case OpEq:
		cmp = func(v float64) bool { return v == want }
	case OpNe:
		cmp = func(v float64) bool { return v != want }
	case OpLt:
		cmp = func(v float64) bool { return v < want }
	case OpLe:
		cmp = func(v float64) bool { return v <= want }
	case OpGt:
		cmp = func(v float64) bool { return v > want }
	case OpGe:
		cmp = func(v float64) bool { return v >= want }
	}
	return func(i int) bool { return !col.IsNull(i) && cmp(col.Float(i)) }, nil
}
