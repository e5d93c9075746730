package table

import (
	"math"
	"testing"
	"unsafe"
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

// Grow(n) makes room for n more rows of every type: none of the appends
// allocates.
func TestGrowMakesRoomForAppends(t *testing.T) {
	for _, typ := range []Type{Float, Int, String, Bool} {
		c := NewColumn("c", typ)
		c.AppendNull()
		c.Grow(200) // AllocsPerRun runs the func twice: a warm-up, then the measured run
		if allocs := testing.AllocsPerRun(1, func() {
			for range 100 {
				c.AppendNull()
			}
		}); allocs != 0 {
			t.Errorf("%v: %v allocations appending into grown room", typ, allocs)
		}
		if c.Len() != 201 || c.NullCount() != 201 {
			t.Errorf("%v: %d rows, %d null; want 201, 201", typ, c.Len(), c.NullCount())
		}
	}
}

// AppendStringCopy codes values as AppendString does but keeps a copy of a
// value new to the dictionary, never a window onto the caller's buffer.
func TestAppendStringCopyOwnsNewEntries(t *testing.T) {
	rec := string([]byte("ORD,SFO"))
	base := uintptr(unsafe.Pointer(unsafe.StringData(rec)))
	c := NewColumn("city", String)
	c.AppendStringCopy(rec[:3])
	c.AppendStringCopy(rec[4:])
	c.AppendStringCopy(rec[:3])
	if got := c.Strings(); len(got) != 3 || got[0] != "ORD" || got[1] != "SFO" || got[2] != "ORD" || c.Code(2) != 0 {
		t.Fatalf("values %q, codes %d %d %d", got, c.Code(0), c.Code(1), c.Code(2))
	}
	for _, s := range c.Dict {
		if p := uintptr(unsafe.Pointer(unsafe.StringData(s))); p >= base && p < base+uintptr(len(rec)) {
			t.Fatalf("dictionary entry %q aliases the record", s)
		}
	}
}
