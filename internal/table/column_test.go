package table

import (
	"fmt"
	"math"
	"testing"
)

func TestStringColumnDictionary(t *testing.T) {
	c := NewStringColumn("country", []string{"US", "DE", "US", "", "FR", "DE"})
	if c.Len() != 6 {
		t.Fatalf("len = %d", c.Len())
	}
	if got := len(c.Dict); got != 3 {
		t.Fatalf("dict size = %d, want 3", got)
	}
	if !c.IsNull(3) {
		t.Fatal("empty string should be null")
	}
	if c.StringAt(0) != "US" || c.StringAt(2) != "US" || c.Code(0) != c.Code(2) {
		t.Fatal("dictionary interning broken")
	}
	if c.DistinctCount() != 3 {
		t.Fatalf("distinct = %d, want 3", c.DistinctCount())
	}
}

func TestFloatColumnNaNBecomesNull(t *testing.T) {
	c := NewFloatColumn("x", []float64{1.5, math.NaN(), 3})
	if !c.IsNull(1) {
		t.Fatal("NaN should be null")
	}
	if c.NullCount() != 1 {
		t.Fatalf("nulls = %d", c.NullCount())
	}
	if !math.IsNaN(c.Float(1)) {
		t.Fatal("null Float should be NaN")
	}
	if c.Float(0) != 1.5 {
		t.Fatalf("Float(0) = %v", c.Float(0))
	}
}

func TestIntColumnConversions(t *testing.T) {
	c := NewColumn("n", Int)
	c.AppendInt(7)
	c.AppendInt(-2)
	if v := c.Float(0); v != 7 {
		t.Fatalf("Float = %v", v)
	}
	if v, ok := c.Int(1); !ok || v != -2 {
		t.Fatalf("Int = %v %v", v, ok)
	}
	if s := c.StringAt(1); s != "-2" {
		t.Fatalf("StringAt = %q", s)
	}
}

func TestBoolColumn(t *testing.T) {
	c := NewColumn("b", Bool)
	c.AppendBool(true)
	c.AppendBool(false)
	if v, ok := c.BoolAt(0); !ok || !v {
		t.Fatal("BoolAt(0)")
	}
	if c.Float(0) != 1 || c.Float(1) != 0 {
		t.Fatal("bool → float conversion")
	}
	if c.DistinctCount() != 2 {
		t.Fatalf("distinct = %d", c.DistinctCount())
	}
}

func TestColumnTypeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong-typed append")
		}
	}()
	NewColumn("x", Float).AppendString("oops")
}

func TestColumnGatherPreservesNulls(t *testing.T) {
	c := NewStringColumn("s", []string{"a", "", "c", "d"})
	g := c.Gather([]int{3, 1, 0})
	if g.Len() != 3 {
		t.Fatalf("len = %d", g.Len())
	}
	if g.StringAt(0) != "d" || !g.IsNull(1) || g.StringAt(2) != "a" {
		t.Fatal("gather order/nulls wrong")
	}
}

func TestIntFromFloat(t *testing.T) {
	c := NewFloatColumn("f", []float64{2.0, 2.5})
	if v, ok := c.Int(0); !ok || v != 2 {
		t.Fatal("integral float should convert")
	}
	if _, ok := c.Int(1); ok {
		t.Fatal("non-integral float should not convert")
	}
}

func TestFloatsAndStringsMaterialization(t *testing.T) {
	c := NewFloatColumn("f", []float64{1, math.NaN(), 3})
	fs := c.Floats()
	if fs[0] != 1 || !math.IsNaN(fs[1]) || fs[2] != 3 {
		t.Fatalf("Floats = %v", fs)
	}
	s := NewStringColumn("s", []string{"x", ""})
	ss := s.Strings()
	if ss[0] != "x" || ss[1] != "" {
		t.Fatalf("Strings = %v", ss)
	}
}

func TestDistinctCountNumeric(t *testing.T) {
	c := NewFloatColumn("f", []float64{1, 2, 2, math.NaN(), 3})
	if d := c.DistinctCount(); d != 3 {
		t.Fatalf("distinct = %d, want 3", d)
	}
	ic := NewColumn("i", Int)
	for _, v := range []int64{5, 5, 6} {
		ic.AppendInt(v)
	}
	if d := ic.DistinctCount(); d != 2 {
		t.Fatalf("distinct int = %d", d)
	}
}

func TestAdoptingColumnConstructors(t *testing.T) {
	valid := NewBitmap(0)
	for _, v := range []bool{true, false, true} {
		valid.Append(v)
	}
	fc, err := NewFloatColumnWithValid("f", []float64{1, 99, 3}, valid.Clone())
	if err != nil {
		t.Fatal(err)
	}
	ref := NewFloatColumn("f", nil)
	ref.AppendFloat(1)
	ref.AppendNull()
	ref.AppendFloat(3)
	for i := 0; i < 3; i++ {
		if fc.IsNull(i) != ref.IsNull(i) || fc.StringAt(i) != ref.StringAt(i) {
			t.Fatalf("float row %d: (%v,%q) want (%v,%q)", i, fc.IsNull(i), fc.StringAt(i), ref.IsNull(i), ref.StringAt(i))
		}
	}

	sc, err := NewStringColumnFromCodes("s", []int32{1, 7, 0}, []string{"a", "b"}, valid.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(sc.Strings()); got != fmt.Sprint([]string{"b", "", "a"}) {
		t.Fatalf("string values = %s", got)
	}
	if sc.Code(1) != -1 {
		t.Fatalf("null code = %d, want -1 (normalized)", sc.Code(1))
	}
	// Appending to an adopted column must keep interning against its dict.
	sc.AppendString("b")
	if sc.Code(3) != 1 {
		t.Fatalf("appended code = %d, want 1", sc.Code(3))
	}

	if _, err := NewStringColumnFromCodes("s", []int32{2, 0, 0}, []string{"a", "b"}, valid.Clone()); err == nil {
		t.Fatal("out-of-range code on a valid row must error")
	}
	if _, err := NewStringColumnFromCodes("s", []int32{0, 0, 0}, []string{"a", "a"}, valid.Clone()); err == nil {
		t.Fatal("duplicate dictionary entries must error")
	}
	if _, err := NewFloatColumnWithValid("f", []float64{1}, valid.Clone()); err == nil {
		t.Fatal("length mismatch must error")
	}

	bc, err := NewBoolColumnWithValid("b", []bool{true, true, false}, valid.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if !bc.IsNull(1) {
		t.Fatal("row 1 should be null")
	}
	if v, ok := bc.BoolAt(0); !ok || !v {
		t.Fatal("row 0 should be true")
	}
}
