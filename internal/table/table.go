package table

import (
	"fmt"
	"strings"
)

// Table is an ordered collection of equal-length columns.
type Table struct {
	cols  []*Column
	index map[string]int
}

// New returns an empty table.
func New() *Table {
	return &Table{index: make(map[string]int)}
}

// FromColumns builds a table from pre-built columns. All columns must have
// equal length and distinct names.
func FromColumns(cols ...*Column) (*Table, error) {
	t := New()
	for _, c := range cols {
		if err := t.AddColumn(c); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// MustFromColumns is FromColumns but panics on error; for fixtures.
func MustFromColumns(cols ...*Column) *Table {
	t, err := FromColumns(cols...)
	if err != nil {
		panic(err)
	}
	return t
}

// AddColumn appends a column. It errors on duplicate names or length
// mismatch with existing columns.
func (t *Table) AddColumn(c *Column) error {
	if _, dup := t.index[c.Name]; dup {
		return fmt.Errorf("table: duplicate column %q", c.Name)
	}
	if len(t.cols) > 0 && c.Len() != t.NumRows() {
		return fmt.Errorf("table: column %q has %d rows, table has %d", c.Name, c.Len(), t.NumRows())
	}
	t.index[c.Name] = len(t.cols)
	t.cols = append(t.cols, c)
	return nil
}

// NumRows returns the number of rows (0 for an empty table).
func (t *Table) NumRows() int {
	if len(t.cols) == 0 {
		return 0
	}
	return t.cols[0].Len()
}

// NumCols returns the number of columns.
func (t *Table) NumCols() int { return len(t.cols) }

// Columns returns the column slice in order. The slice must not be mutated.
func (t *Table) Columns() []*Column { return t.cols }

// ColumnNames returns the ordered column names.
func (t *Table) ColumnNames() []string {
	names := make([]string, len(t.cols))
	for i, c := range t.cols {
		names[i] = c.Name
	}
	return names
}

// Column returns the named column, or nil when absent.
func (t *Table) Column(name string) *Column {
	if i, ok := t.index[name]; ok {
		return t.cols[i]
	}
	return nil
}

// MustColumn returns the named column and panics when absent.
func (t *Table) MustColumn(name string) *Column {
	c := t.Column(name)
	if c == nil {
		panic(fmt.Sprintf("table: no column %q (have %v)", name, t.ColumnNames()))
	}
	return c
}

// HasColumn reports whether the named column exists.
func (t *Table) HasColumn(name string) bool {
	_, ok := t.index[name]
	return ok
}

// Select returns a new table with only the named columns (shared column
// storage, zero copy).
func (t *Table) Select(names ...string) (*Table, error) {
	out := New()
	for _, n := range names {
		c := t.Column(n)
		if c == nil {
			return nil, fmt.Errorf("table: select of unknown column %q", n)
		}
		if err := out.AddColumn(c); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Gather returns a new table holding the given row indices of every column.
func (t *Table) Gather(idx []int) *Table {
	out := New()
	for _, c := range t.cols {
		// AddColumn cannot fail: names are unique and lengths equal.
		_ = out.AddColumn(c.Gather(idx))
	}
	return out
}

// Filter returns the rows for which pred is true as a new table.
func (t *Table) Filter(pred func(row int) bool) *Table {
	var idx []int
	for i, n := 0, t.NumRows(); i < n; i++ {
		if pred(i) {
			idx = append(idx, i)
		}
	}
	return t.Gather(idx)
}

// String renders a compact preview of the table (up to 12 rows).
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table[%d rows × %d cols]\n", t.NumRows(), t.NumCols())
	b.WriteString(strings.Join(t.ColumnNames(), "\t"))
	b.WriteByte('\n')
	n := t.NumRows()
	if n > 12 {
		n = 12
	}
	for i := 0; i < n; i++ {
		for j, c := range t.cols {
			if j > 0 {
				b.WriteByte('\t')
			}
			if c.IsNull(i) {
				b.WriteString("∅")
			} else {
				b.WriteString(c.StringAt(i))
			}
		}
		b.WriteByte('\n')
	}
	if t.NumRows() > n {
		fmt.Fprintf(&b, "… (%d more rows)\n", t.NumRows()-n)
	}
	return b.String()
}
