package table

import (
	"math"
	"strings"
	"testing"
)

func sampleTable(t *testing.T) *Table {
	t.Helper()
	tbl, err := FromColumns(
		NewStringColumn("country", []string{"US", "DE", "US", "FR", "DE", "FR"}),
		NewFloatColumn("salary", []float64{100, 60, 120, 55, 65, math.NaN()}),
		NewStringColumn("continent", []string{"NA", "EU", "NA", "EU", "EU", "EU"}),
	)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestTableBasics(t *testing.T) {
	tbl := sampleTable(t)
	if tbl.NumRows() != 6 || tbl.NumCols() != 3 {
		t.Fatalf("shape = %d×%d", tbl.NumRows(), tbl.NumCols())
	}
	if tbl.Column("salary") == nil || tbl.Column("nope") != nil {
		t.Fatal("Column lookup broken")
	}
	if !tbl.HasColumn("country") {
		t.Fatal("HasColumn broken")
	}
}

func TestAddColumnErrors(t *testing.T) {
	tbl := sampleTable(t)
	if err := tbl.AddColumn(NewFloatColumn("salary", []float64{1, 2, 3, 4, 5, 6})); err == nil {
		t.Fatal("expected duplicate-name error")
	}
	if err := tbl.AddColumn(NewFloatColumn("short", []float64{1})); err == nil {
		t.Fatal("expected length-mismatch error")
	}
}

func TestSelect(t *testing.T) {
	tbl := sampleTable(t)
	sub, err := tbl.Select("country", "salary")
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumCols() != 2 || sub.NumRows() != 6 {
		t.Fatal("select shape wrong")
	}
	if _, err := tbl.Select("missing"); err == nil {
		t.Fatal("expected error for unknown column")
	}
}

func TestFilter(t *testing.T) {
	tbl := sampleTable(t)
	cont := tbl.MustColumn("continent")
	eu := tbl.Filter(func(i int) bool { return cont.StringAt(i) == "EU" })
	if eu.NumRows() != 4 {
		t.Fatalf("EU rows = %d, want 4", eu.NumRows())
	}
	for i := 0; i < eu.NumRows(); i++ {
		if eu.MustColumn("continent").StringAt(i) != "EU" {
			t.Fatal("filter kept non-EU row")
		}
	}
}

func TestGroupByMean(t *testing.T) {
	tbl := sampleTable(t)
	g, err := tbl.GroupBy([]string{"country"}, "salary", AggMean)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumRows() != 3 {
		t.Fatalf("groups = %d, want 3", g.NumRows())
	}
	byCountry := map[string]float64{}
	cc := g.MustColumn("country")
	avg := g.MustColumn("avg(salary)")
	for i := 0; i < g.NumRows(); i++ {
		byCountry[cc.StringAt(i)] = avg.Float(i)
	}
	if byCountry["US"] != 110 || byCountry["DE"] != 62.5 {
		t.Fatalf("aggregates = %v", byCountry)
	}
	// FR has one null and one value 55 → mean over non-null = 55.
	if byCountry["FR"] != 55 {
		t.Fatalf("FR mean = %v, want 55", byCountry["FR"])
	}
}

func TestGroupByMultiKey(t *testing.T) {
	tbl := sampleTable(t)
	g, err := tbl.GroupBy([]string{"continent", "country"}, "salary", AggCount)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumRows() != 3 {
		t.Fatalf("groups = %d, want 3 (NA/US, EU/DE, EU/FR)", g.NumRows())
	}
}

func TestGroupByUnknownColumns(t *testing.T) {
	tbl := sampleTable(t)
	if _, err := tbl.GroupBy([]string{"zzz"}, "salary", AggMean); err == nil {
		t.Fatal("expected unknown key error")
	}
	if _, err := tbl.GroupBy([]string{"country"}, "zzz", AggMean); err == nil {
		t.Fatal("expected unknown value error")
	}
}

func TestAggFuncs(t *testing.T) {
	vals := []float64{4, 1, 3}
	cases := []struct {
		fn   AggFunc
		want float64
	}{
		{AggMean, 8.0 / 3}, {AggSum, 8}, {AggCount, 3}, {AggMin, 1}, {AggMax, 4}, {AggFirst, 4},
	}
	for _, c := range cases {
		if got := c.fn.Apply(vals); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%v.Apply = %v, want %v", c.fn, got, c.want)
		}
	}
	if !math.IsNaN(AggMean.Apply(nil)) {
		t.Fatal("mean of empty should be NaN")
	}
	if AggCount.Apply(nil) != 0 || AggSum.Apply(nil) != 0 {
		t.Fatal("count/sum of empty should be 0")
	}
}

func TestParseAggFunc(t *testing.T) {
	if f, err := ParseAggFunc("avg"); err != nil || f != AggMean {
		t.Fatal("parse avg")
	}
	if _, err := ParseAggFunc("median"); err == nil {
		t.Fatal("expected error for unsupported agg")
	}
}

func TestTableString(t *testing.T) {
	s := sampleTable(t).String()
	if !strings.Contains(s, "country") || !strings.Contains(s, "6 rows") {
		t.Fatalf("preview = %q", s)
	}
	// Null renders as ∅.
	if !strings.Contains(s, "∅") {
		t.Fatal("expected null marker in preview")
	}
}

func TestGatherTable(t *testing.T) {
	tbl := sampleTable(t)
	g := tbl.Gather([]int{5, 0})
	if g.NumRows() != 2 {
		t.Fatal("gather shape")
	}
	if g.MustColumn("country").StringAt(0) != "FR" || g.MustColumn("country").StringAt(1) != "US" {
		t.Fatal("gather order")
	}
}

func TestMustColumnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustColumn should panic on unknown name")
		}
	}()
	sampleTable(t).MustColumn("missing")
}
