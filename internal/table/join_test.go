package table

import "testing"

func TestInnerJoin(t *testing.T) {
	left := MustFromColumns(
		NewStringColumn("country", []string{"US", "DE", "XX", "US"}),
		NewFloatColumn("salary", []float64{100, 60, 10, 120}),
	)
	right := MustFromColumns(
		NewStringColumn("name", []string{"US", "DE", "FR"}),
		NewFloatColumn("gdp", []float64{21, 4, 3}),
	)
	j, err := left.Join(right, "country", "name")
	if err != nil {
		t.Fatal(err)
	}
	if j.NumRows() != 3 {
		t.Fatalf("rows = %d, want 3 (XX unmatched)", j.NumRows())
	}
	gdp := j.MustColumn("gdp")
	cc := j.MustColumn("country")
	for i := 0; i < j.NumRows(); i++ {
		want := map[string]float64{"US": 21, "DE": 4}[cc.StringAt(i)]
		if gdp.Float(i) != want {
			t.Fatalf("row %d: gdp = %v, want %v", i, gdp.Float(i), want)
		}
	}
}

func TestJoinDuplicateRightKeys(t *testing.T) {
	left := MustFromColumns(NewStringColumn("k", []string{"a"}))
	right := MustFromColumns(
		NewStringColumn("k", []string{"a", "a"}),
		NewFloatColumn("v", []float64{1, 2}),
	)
	j, err := left.Join(right, "k", "k")
	if err != nil {
		t.Fatal(err)
	}
	if j.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2 (fan-out)", j.NumRows())
	}
}

func TestJoinNullKeysNeverMatch(t *testing.T) {
	left := MustFromColumns(NewStringColumn("k", []string{"", "a"}))
	right := MustFromColumns(
		NewStringColumn("k", []string{"", "a"}),
		NewFloatColumn("v", []float64{9, 1}),
	)
	j, err := left.Join(right, "k", "k")
	if err != nil {
		t.Fatal(err)
	}
	if j.NumRows() != 1 {
		t.Fatalf("rows = %d, want 1 (null keys excluded)", j.NumRows())
	}
}

func TestJoinNameCollision(t *testing.T) {
	left := MustFromColumns(
		NewStringColumn("k", []string{"a"}),
		NewFloatColumn("v", []float64{1}),
	)
	right := MustFromColumns(
		NewStringColumn("k", []string{"a"}),
		NewFloatColumn("v", []float64{2}),
	)
	j, err := left.Join(right, "k", "k")
	if err != nil {
		t.Fatal(err)
	}
	if !j.HasColumn("v") || !j.HasColumn("v_r") {
		t.Fatalf("columns = %v", j.ColumnNames())
	}
	if j.MustColumn("v").Float(0) != 1 || j.MustColumn("v_r").Float(0) != 2 {
		t.Fatal("collision columns swapped")
	}
}

func TestJoinUnknownKeys(t *testing.T) {
	tbl := MustFromColumns(NewStringColumn("k", []string{"a"}))
	if _, err := tbl.Join(tbl, "zz", "k"); err == nil {
		t.Fatal("expected unknown left key error")
	}
	if _, err := tbl.Join(tbl, "k", "zz"); err == nil {
		t.Fatal("expected unknown right key error")
	}
}
