package table

import (
	"fmt"
	"math"
	"strconv"
)

// Type identifies the storage type of a column.
type Type int

// Column storage types.
const (
	Float  Type = iota // float64 values
	Int                // int64 values
	String             // interned string values
	Bool               // boolean values
)

// String returns the type name.
func (t Type) String() string {
	switch t {
	case Float:
		return "float"
	case Int:
		return "int"
	case String:
		return "string"
	case Bool:
		return "bool"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Column is a typed column with a validity bitmap. String columns use
// dictionary encoding: Codes holds indices into Dict.
type Column struct {
	Name  string
	Typ   Type
	Valid *Bitmap

	floats []float64
	ints   []int64
	codes  []int32 // string dictionary codes
	bools  []bool

	Dict    []string         // string dictionary (String columns only)
	dictIdx map[string]int32 // reverse dictionary
}

// NewColumn returns an empty column of the given type.
func NewColumn(name string, typ Type) *Column {
	c := &Column{Name: name, Typ: typ, Valid: NewBitmap(0)}
	if typ == String {
		c.dictIdx = make(map[string]int32)
	}
	return c
}

// NewFloatColumn builds a Float column; NaN entries become null.
func NewFloatColumn(name string, vals []float64) *Column {
	c := NewColumn(name, Float)
	for _, v := range vals {
		if math.IsNaN(v) {
			c.AppendNull()
		} else {
			c.AppendFloat(v)
		}
	}
	return c
}

// NewIntColumn builds an Int column with no nulls.
func NewIntColumn(name string, vals []int64) *Column {
	c := NewColumn(name, Int)
	for _, v := range vals {
		c.AppendInt(v)
	}
	return c
}

// NewStringColumn builds a String column; empty strings become null.
func NewStringColumn(name string, vals []string) *Column {
	c := NewColumn(name, String)
	for _, v := range vals {
		if v == "" {
			c.AppendNull()
		} else {
			c.AppendString(v)
		}
	}
	return c
}

// NewFloatColumnWithValid adopts vals and valid as Float-column storage
// without copying. Rows whose valid bit is clear are null; their value slots
// are normalized to NaN so adopted columns are indistinguishable from
// append-built ones. The caller must not retain vals or valid.
func NewFloatColumnWithValid(name string, vals []float64, valid *Bitmap) (*Column, error) {
	if valid == nil || valid.Len() != len(vals) {
		return nil, fmt.Errorf("table: column %q: validity bitmap does not cover %d values", name, len(vals))
	}
	for i := range vals {
		if !valid.Get(i) {
			vals[i] = math.NaN()
		}
	}
	return &Column{Name: name, Typ: Float, Valid: valid, floats: vals}, nil
}

// NewBoolColumnWithValid adopts vals and valid as Bool-column storage
// without copying, normalizing null slots to false. The caller must not
// retain vals or valid.
func NewBoolColumnWithValid(name string, vals []bool, valid *Bitmap) (*Column, error) {
	if valid == nil || valid.Len() != len(vals) {
		return nil, fmt.Errorf("table: column %q: validity bitmap does not cover %d values", name, len(vals))
	}
	for i := range vals {
		if !valid.Get(i) {
			vals[i] = false
		}
	}
	return &Column{Name: name, Typ: Bool, Valid: valid, bools: vals}, nil
}

// NewStringColumnFromCodes adopts pre-encoded dictionary storage as a String
// column without re-hashing any value: codes index dict, null rows carry
// code -1 (normalized from whatever the caller left there). The dictionary
// must be duplicate-free and every valid row's code in range. The caller
// must not retain codes, dict or valid.
func NewStringColumnFromCodes(name string, codes []int32, dict []string, valid *Bitmap) (*Column, error) {
	if valid == nil || valid.Len() != len(codes) {
		return nil, fmt.Errorf("table: column %q: validity bitmap does not cover %d codes", name, len(codes))
	}
	idx := make(map[string]int32, len(dict))
	for i, s := range dict {
		if _, dup := idx[s]; dup {
			return nil, fmt.Errorf("table: column %q: duplicate dictionary entry %q", name, s)
		}
		idx[s] = int32(i)
	}
	for i, code := range codes {
		if !valid.Get(i) {
			codes[i] = -1
			continue
		}
		if code < 0 || int(code) >= len(dict) {
			return nil, fmt.Errorf("table: column %q: row %d code %d outside dictionary of %d entries", name, i, code, len(dict))
		}
	}
	return &Column{Name: name, Typ: String, Valid: valid, codes: codes, Dict: dict, dictIdx: idx}, nil
}

// NewBoolColumn builds a Bool column with no nulls.
func NewBoolColumn(name string, vals []bool) *Column {
	c := NewColumn(name, Bool)
	for _, v := range vals {
		c.AppendBool(v)
	}
	return c
}

// Len returns the number of rows.
func (c *Column) Len() int { return c.Valid.Len() }

// IsNull reports whether row i is null.
func (c *Column) IsNull(i int) bool { return !c.Valid.Get(i) }

// NullCount returns the number of null rows.
func (c *Column) NullCount() int { return c.Len() - c.Valid.Count() }

// AppendNull appends a null value.
func (c *Column) AppendNull() {
	c.Valid.Append(false)
	switch c.Typ {
	case Float:
		c.floats = append(c.floats, math.NaN())
	case Int:
		c.ints = append(c.ints, 0)
	case String:
		c.codes = append(c.codes, -1)
	case Bool:
		c.bools = append(c.bools, false)
	}
}

// AppendFloat appends a float value; panics if the column is not Float.
func (c *Column) AppendFloat(v float64) {
	c.mustType(Float)
	c.Valid.Append(true)
	c.floats = append(c.floats, v)
}

// AppendInt appends an int value; panics if the column is not Int.
func (c *Column) AppendInt(v int64) {
	c.mustType(Int)
	c.Valid.Append(true)
	c.ints = append(c.ints, v)
}

// AppendString appends a string value; panics if the column is not String.
func (c *Column) AppendString(v string) {
	c.mustType(String)
	c.Valid.Append(true)
	code, ok := c.dictIdx[v]
	if !ok {
		code = int32(len(c.Dict))
		c.Dict = append(c.Dict, v)
		c.dictIdx[v] = code
	}
	c.codes = append(c.codes, code)
}

// AppendBool appends a bool value; panics if the column is not Bool.
func (c *Column) AppendBool(v bool) {
	c.mustType(Bool)
	c.Valid.Append(true)
	c.bools = append(c.bools, v)
}

func (c *Column) mustType(t Type) {
	if c.Typ != t {
		panic(fmt.Sprintf("table: column %q is %v, not %v", c.Name, c.Typ, t))
	}
}

// Float returns the float value at row i (NaN when null or non-numeric).
// Int columns are converted.
func (c *Column) Float(i int) float64 {
	if c.IsNull(i) {
		return math.NaN()
	}
	switch c.Typ {
	case Float:
		return c.floats[i]
	case Int:
		return float64(c.ints[i])
	case Bool:
		if c.bools[i] {
			return 1
		}
		return 0
	default:
		return math.NaN()
	}
}

// Int returns the integer value at row i; ok is false when null or not
// integral.
func (c *Column) Int(i int) (v int64, ok bool) {
	if c.IsNull(i) {
		return 0, false
	}
	switch c.Typ {
	case Int:
		return c.ints[i], true
	case Float:
		f := c.floats[i]
		if f == math.Trunc(f) {
			return int64(f), true
		}
		return 0, false
	case Bool:
		if c.bools[i] {
			return 1, true
		}
		return 0, true
	default:
		return 0, false
	}
}

// StringAt returns the string value at row i ("" when null). Non-string
// columns are formatted.
func (c *Column) StringAt(i int) string {
	if c.IsNull(i) {
		return ""
	}
	switch c.Typ {
	case String:
		return c.Dict[c.codes[i]]
	case Float:
		return strconv.FormatFloat(c.floats[i], 'g', -1, 64)
	case Int:
		return strconv.FormatInt(c.ints[i], 10)
	case Bool:
		return strconv.FormatBool(c.bools[i])
	default:
		return ""
	}
}

// BoolAt returns the bool value at row i; ok is false when null or not Bool.
func (c *Column) BoolAt(i int) (v, ok bool) {
	if c.Typ != Bool || c.IsNull(i) {
		return false, false
	}
	return c.bools[i], true
}

// Code returns the dictionary code of row i for String columns (-1 on null).
func (c *Column) Code(i int) int32 {
	if c.Typ != String {
		panic("table: Code on non-string column")
	}
	return c.codes[i]
}

// DistinctCount returns the number of distinct non-null values.
func (c *Column) DistinctCount() int {
	switch c.Typ {
	case String:
		seen := make(map[int32]struct{})
		for i, code := range c.codes {
			if c.Valid.Get(i) {
				seen[code] = struct{}{}
			}
		}
		return len(seen)
	case Bool:
		seen := [2]bool{}
		for i, v := range c.bools {
			if c.Valid.Get(i) {
				if v {
					seen[1] = true
				} else {
					seen[0] = true
				}
			}
		}
		n := 0
		if seen[0] {
			n++
		}
		if seen[1] {
			n++
		}
		return n
	case Int:
		seen := make(map[int64]struct{})
		for i, v := range c.ints {
			if c.Valid.Get(i) {
				seen[v] = struct{}{}
			}
		}
		return len(seen)
	default:
		seen := make(map[float64]struct{})
		for i, v := range c.floats {
			if c.Valid.Get(i) {
				seen[v] = struct{}{}
			}
		}
		return len(seen)
	}
}

// Gather returns a new column holding rows idx of c, preserving nulls.
func (c *Column) Gather(idx []int) *Column {
	out := NewColumn(c.Name, c.Typ)
	for _, i := range idx {
		if c.IsNull(i) {
			out.AppendNull()
			continue
		}
		switch c.Typ {
		case Float:
			out.AppendFloat(c.floats[i])
		case Int:
			out.AppendInt(c.ints[i])
		case String:
			out.AppendString(c.Dict[c.codes[i]])
		case Bool:
			out.AppendBool(c.bools[i])
		}
	}
	return out
}

// Floats materializes the column as []float64 with NaN for nulls.
func (c *Column) Floats() []float64 {
	out := make([]float64, c.Len())
	for i := range out {
		out[i] = c.Float(i)
	}
	return out
}

// Strings materializes the column as []string with "" for nulls.
func (c *Column) Strings() []string {
	out := make([]string, c.Len())
	for i := range out {
		out[i] = c.StringAt(i)
	}
	return out
}
