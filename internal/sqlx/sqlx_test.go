package sqlx

import (
	"math"
	"strings"
	"testing"

	"nexus/internal/table"
)

func TestParseBasic(t *testing.T) {
	q, err := Parse("SELECT Country, avg(Salary) FROM SO GROUP BY Country")
	if err != nil {
		t.Fatal(err)
	}
	if q.Exposure() != "Country" || q.Outcome != "Salary" || q.Agg != table.AggMean || q.Table != "SO" {
		t.Fatalf("query = %+v", q)
	}
	if len(q.Where) != 0 || q.Join != nil {
		t.Fatal("unexpected where/join")
	}
}

func TestParseWithWhere(t *testing.T) {
	q, err := Parse("SELECT Country, avg(Salary) FROM SO WHERE Continent = 'Europe' GROUP BY Country")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Where) != 1 {
		t.Fatalf("where = %v", q.Where)
	}
	c := q.Where[0]
	if c.Attr != "Continent" || c.Op != OpEq || !c.IsStr || c.Str != "Europe" {
		t.Fatalf("condition = %+v", c)
	}
}

func TestParseUnquotedStringValue(t *testing.T) {
	q, err := Parse("SELECT Country, avg(Salary) FROM SO WHERE Continent = Europe GROUP BY Country")
	if err != nil {
		t.Fatal(err)
	}
	if !q.Where[0].IsStr || q.Where[0].Str != "Europe" {
		t.Fatalf("condition = %+v", q.Where[0])
	}
}

func TestParseNumericConditionsAndAnd(t *testing.T) {
	q, err := Parse("SELECT a, sum(x) FROM t WHERE y >= 10 AND z != 'b' AND w < 2.5 GROUP BY a")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Where) != 3 {
		t.Fatalf("conds = %v", q.Where)
	}
	if q.Where[0].Op != OpGe || q.Where[0].Num != 10 {
		t.Fatalf("cond0 = %+v", q.Where[0])
	}
	if q.Where[2].Op != OpLt || q.Where[2].Num != 2.5 {
		t.Fatalf("cond2 = %+v", q.Where[2])
	}
}

func TestParseJoin(t *testing.T) {
	q, err := Parse("SELECT Airline, avg(Delay) FROM flights JOIN airlines ON flights.Airline = airlines.Name GROUP BY Airline")
	if err != nil {
		t.Fatal(err)
	}
	if q.Join == nil || q.Join.Table != "airlines" || q.Join.LeftKey != "Airline" || q.Join.RightKey != "Name" {
		t.Fatalf("join = %+v", q.Join)
	}
}

func TestParseMultipleGroupBy(t *testing.T) {
	q, err := Parse("SELECT state, airline, avg(delay) FROM f GROUP BY state, airline")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.GroupBy) != 2 {
		t.Fatalf("groupby = %v", q.GroupBy)
	}
}

func TestParseCountStar(t *testing.T) {
	q, err := Parse("SELECT c, count(*) FROM t GROUP BY c")
	if err != nil {
		t.Fatal(err)
	}
	if q.Agg != table.AggCount || q.Outcome != "*" {
		t.Fatalf("query = %+v", q)
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	if _, err := Parse("select c, AVG(x) from t where y = 1 group by c"); err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT FROM t GROUP BY c",
		"SELECT c FROM t GROUP BY c",         // no aggregation
		"SELECT avg(x) FROM t",               // no group by
		"SELECT c, avg(x) FROM t GROUP BY d", // mismatched group by
		"SELECT c, avg(x), sum(y) FROM t GROUP BY c",         // two aggs
		"SELECT c, median(x) FROM t GROUP BY c",              // unsupported agg
		"SELECT c, avg(x) FROM t WHERE y ~ 3 GROUP BY c",     // bad operator
		"SELECT c, avg(x) FROM t GROUP BY c extra",           // trailing tokens
		"SELECT c, avg(x) FROM t WHERE s > 'abc' GROUP BY c", // ordered string comparison
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestQueryString(t *testing.T) {
	src := "SELECT Country, avg(Salary) FROM SO WHERE Continent = 'Europe' GROUP BY Country"
	q := MustParse(src)
	s := q.String()
	if !strings.Contains(s, "avg(Salary)") || !strings.Contains(s, "Continent = 'Europe'") {
		t.Fatalf("String() = %q", s)
	}
	// Canonical rendering must itself parse.
	if _, err := Parse(s); err != nil {
		t.Fatalf("round-trip parse failed: %v", err)
	}
}

func catalog() Catalog {
	so := table.MustFromColumns(
		table.NewStringColumn("Country", []string{"US", "DE", "US", "FR", "DE", "FR"}),
		table.NewStringColumn("Continent", []string{"NA", "EU", "NA", "EU", "EU", "EU"}),
		table.NewFloatColumn("Salary", []float64{100, 60, 120, 55, 65, math.NaN()}),
	)
	countries := table.MustFromColumns(
		table.NewStringColumn("Name", []string{"US", "DE", "FR"}),
		table.NewFloatColumn("GDP", []float64{21, 4, 3}),
	)
	return Catalog{"SO": so, "countries": countries}
}

func TestExecuteBasic(t *testing.T) {
	q := MustParse("SELECT Country, avg(Salary) FROM SO GROUP BY Country")
	res, err := Execute(q, catalog())
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows.NumRows() != 3 {
		t.Fatalf("groups = %d", res.Rows.NumRows())
	}
	if res.View.NumRows() != 6 {
		t.Fatalf("view rows = %d", res.View.NumRows())
	}
	if res.Outcome != "Salary" || res.Exposure[0] != "Country" {
		t.Fatalf("result meta = %+v", res)
	}
}

func TestExecuteWhere(t *testing.T) {
	q := MustParse("SELECT Country, avg(Salary) FROM SO WHERE Continent = 'EU' GROUP BY Country")
	res, err := Execute(q, catalog())
	if err != nil {
		t.Fatal(err)
	}
	if res.View.NumRows() != 4 {
		t.Fatalf("view rows = %d, want 4", res.View.NumRows())
	}
	if res.Rows.NumRows() != 2 {
		t.Fatalf("groups = %d, want 2 (DE, FR)", res.Rows.NumRows())
	}
}

func TestExecuteNumericWhere(t *testing.T) {
	q := MustParse("SELECT Country, count(Salary) FROM SO WHERE Salary > 60 GROUP BY Country")
	res, err := Execute(q, catalog())
	if err != nil {
		t.Fatal(err)
	}
	// Salary > 60: rows 100, 120, 65 → US×2, DE×1 (null excluded).
	if res.View.NumRows() != 3 {
		t.Fatalf("view rows = %d, want 3", res.View.NumRows())
	}
}

func TestExecuteJoin(t *testing.T) {
	q := MustParse("SELECT Country, avg(GDP) FROM SO JOIN countries ON Country = Name GROUP BY Country")
	res, err := Execute(q, catalog())
	if err != nil {
		t.Fatal(err)
	}
	if !res.View.HasColumn("GDP") {
		t.Fatal("join did not bring GDP into the view")
	}
	if res.Rows.NumRows() != 3 {
		t.Fatalf("groups = %d", res.Rows.NumRows())
	}
}

func TestExecuteCountStar(t *testing.T) {
	q := MustParse("SELECT Continent, count(*) FROM SO GROUP BY Continent")
	res, err := Execute(q, catalog())
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]float64{}
	cc := res.Rows.MustColumn("Continent")
	cnt := res.Rows.Columns()[1]
	for i := 0; i < res.Rows.NumRows(); i++ {
		counts[cc.StringAt(i)] = cnt.Float(i)
	}
	if counts["EU"] != 4 || counts["NA"] != 2 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestExecuteErrors(t *testing.T) {
	cat := catalog()
	for _, src := range []string{
		"SELECT Country, avg(Salary) FROM missing GROUP BY Country",
		"SELECT Nope, avg(Salary) FROM SO GROUP BY Nope",
		"SELECT Country, avg(Nope) FROM SO GROUP BY Country",
		"SELECT Country, avg(Salary) FROM SO WHERE Nope = 1 GROUP BY Country",
		"SELECT Country, avg(Salary) FROM SO JOIN missing ON Country = Name GROUP BY Country",
	} {
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := Execute(q, cat); err == nil {
			t.Errorf("Execute(%q) succeeded, want error", src)
		}
	}
}
