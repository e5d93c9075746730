package table

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
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
func (c *Column) AppendString(v string) { c.appendString(v, false) }

// AppendStringCopy is AppendString for a v that is a window onto a larger
// buffer, such as a field of a csv record: a value new to the dictionary is
// copied before the column keeps it, so the column never pins the buffer.
func (c *Column) AppendStringCopy(v string) { c.appendString(v, true) }

func (c *Column) appendString(v string, copyNew bool) {
	c.mustType(String)
	c.Valid.Append(true)
	code, ok := c.dictIdx[v]
	if !ok {
		if copyNew {
			v = strings.Clone(v)
		}
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

// Grow makes room for n more rows, so a caller that knows how many rows
// follow appends them without reallocating.
func (c *Column) Grow(n int) {
	c.Valid.bits = slices.Grow(c.Valid.bits, (c.Valid.n+n+63)/64-len(c.Valid.bits))
	switch c.Typ {
	case Float:
		c.floats = slices.Grow(c.floats, n)
	case Int:
		c.ints = slices.Grow(c.ints, n)
	case String:
		c.codes = slices.Grow(c.codes, n)
	case Bool:
		c.bools = slices.Grow(c.bools, n)
	}
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
