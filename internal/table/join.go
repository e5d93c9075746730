package table

import "fmt"

// Join performs an inner hash join of t (left) with right on leftKey =
// rightKey. Right-side columns keep their names; on a collision with a left
// column the right column is renamed "<name>_r". Null keys never match. When
// a right key occurs multiple times, each match emits one output row
// (standard SQL semantics).
func (t *Table) Join(right *Table, leftKey, rightKey string) (*Table, error) {
	lk := t.Column(leftKey)
	if lk == nil {
		return nil, fmt.Errorf("table: join on unknown left key %q", leftKey)
	}
	rk := right.Column(rightKey)
	if rk == nil {
		return nil, fmt.Errorf("table: join on unknown right key %q", rightKey)
	}

	// Build hash index on the right side.
	idx := make(map[string][]int, right.NumRows())
	for i, n := 0, right.NumRows(); i < n; i++ {
		if rk.IsNull(i) {
			continue
		}
		k := rk.StringAt(i)
		idx[k] = append(idx[k], i)
	}

	var leftRows, rightRows []int
	for i, n := 0, t.NumRows(); i < n; i++ {
		if lk.IsNull(i) {
			continue
		}
		for _, m := range idx[lk.StringAt(i)] {
			leftRows = append(leftRows, i)
			rightRows = append(rightRows, m)
		}
	}

	out := New()
	for _, c := range t.cols {
		if err := out.AddColumn(c.Gather(leftRows)); err != nil {
			return nil, err
		}
	}
	for _, c := range right.cols {
		if c.Name == rightKey {
			continue // key is already present via the left side
		}
		name := c.Name
		if out.HasColumn(name) {
			name += "_r"
		}
		nc := c.Gather(rightRows)
		nc.Name = name
		if err := out.AddColumn(nc); err != nil {
			return nil, err
		}
	}
	return out, nil
}
