package table_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"nexus/internal/colstore"
	"nexus/internal/table"
)

// The repository has one CSV ingester, colstore.FromCSV(...).Drain(). These
// tests check it against table.ReadCSVOracle, the materialize-everything
// reference: on inputs that fit the inference sample the two must agree cell
// for cell; past the sample (demotion backfills re-render numerics
// canonically) they must still agree on shape, types and null placement. They
// live here, beside the oracle, in an external test package because they need
// both packages and colstore imports table.

// ingest runs the production path: stream, then drain.
func ingest(in string, opt colstore.Options) (*table.Table, error) {
	st, err := colstore.FromCSV(strings.NewReader(in), opt)
	if err != nil {
		return nil, err
	}
	return st.Drain()
}

// sameLayout reports the first difference in shape, column types or null
// placement ("" when there is none).
func sameLayout(got, want *table.Table) string {
	if got.NumCols() != want.NumCols() || got.NumRows() != want.NumRows() {
		return fmt.Sprintf("shape %dx%d, want %dx%d", got.NumRows(), got.NumCols(), want.NumRows(), want.NumCols())
	}
	for _, name := range want.ColumnNames() {
		gc, wc := got.MustColumn(name), want.MustColumn(name)
		if gc.Typ != wc.Typ {
			return fmt.Sprintf("column %q: type %v, want %v", name, gc.Typ, wc.Typ)
		}
		for i := 0; i < wc.Len(); i++ {
			if gc.IsNull(i) != wc.IsNull(i) {
				return fmt.Sprintf("column %q row %d: null=%v, want %v", name, i, gc.IsNull(i), wc.IsNull(i))
			}
		}
	}
	return ""
}

// sameCells is sameLayout plus values, dictionary order and dictionary codes
// (codes feed the counting kernel directly).
func sameCells(got, want *table.Table) string {
	if d := sameLayout(got, want); d != "" {
		return d
	}
	for _, name := range want.ColumnNames() {
		gc, wc := got.MustColumn(name), want.MustColumn(name)
		if fmt.Sprint(gc.Dict) != fmt.Sprint(wc.Dict) {
			return fmt.Sprintf("column %q: dict %v, want %v", name, gc.Dict, wc.Dict)
		}
		for i := 0; i < wc.Len(); i++ {
			if gc.StringAt(i) != wc.StringAt(i) {
				return fmt.Sprintf("column %q row %d: %q, want %q", name, i, gc.StringAt(i), wc.StringAt(i))
			}
			if wc.Typ == table.String && gc.Code(i) != wc.Code(i) {
				return fmt.Sprintf("column %q row %d: code %d, want %d", name, i, gc.Code(i), wc.Code(i))
			}
		}
	}
	return ""
}

// randomCSV draws nCols×nRows fields from a pool that exercises every ingest
// path: nulls, floats, non-finite spellings, bools and strings (so columns
// demote when the mix disagrees). Numeric spellings are canonical, which is
// what makes demotion past the sample comparable to the oracle.
func randomCSV(rng *rand.Rand, nCols, nRows int) string {
	pool := []string{"", "1", "2.5", "-3", "true", "false", "x", "yy", "NaN", "+Inf", "1000", "0.125"}
	var buf bytes.Buffer
	for j := 0; j < nCols; j++ {
		if j > 0 {
			buf.WriteByte(',')
		}
		fmt.Fprintf(&buf, "c%d", j)
	}
	buf.WriteByte('\n')
	for i := 0; i < nRows; i++ {
		for j := 0; j < nCols; j++ {
			if j > 0 {
				buf.WriteByte(',')
			}
			buf.WriteString(pool[rng.Intn(len(pool))])
		}
		buf.WriteByte('\n')
	}
	return buf.String()
}

// Non-finite numeric fields parse as floats but poison the entropy/CMI
// estimators; the ingester and the oracle must both store them as nulls.
func TestReadCSVNonFiniteAsNull(t *testing.T) {
	in := "x,y\nNaN,1\nInf,2\n+Inf,3\n-inf,4\n5,NaN\n"
	for _, tc := range []struct {
		name string
		read func() (*table.Table, error)
	}{
		{"streaming", func() (*table.Table, error) { return ingest(in, colstore.Options{SampleRows: 2}) }},
		{"oracle", func() (*table.Table, error) { return table.ReadCSVOracle(strings.NewReader(in)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tbl, err := tc.read()
			if err != nil {
				t.Fatal(err)
			}
			x, y := tbl.MustColumn("x"), tbl.MustColumn("y")
			if x.Typ != table.Float || y.Typ != table.Float {
				t.Fatalf("types: x=%v y=%v, want Float/Float", x.Typ, y.Typ)
			}
			if got := x.NullCount(); got != 4 {
				t.Fatalf("x null count = %d, want 4 (NaN, Inf, +Inf, -inf)", got)
			}
			if got := y.NullCount(); got != 1 {
				t.Fatalf("y null count = %d, want 1", got)
			}
			if v := x.Float(4); v != 5 {
				t.Fatalf("x[4] = %v, want 5", v)
			}
		})
	}
}

// A column mixing a non-finite spelling with strings must demote to String
// and keep the original spelling, not the canonicalized null.
func TestReadCSVNonFiniteSpellingSurvivesDemotion(t *testing.T) {
	// A sample of 2 sees only numerics (incl. NaN stored as null); the "abc"
	// row arrives after the sample and forces demotion.
	in := "x\n1.50\nNaN\n2\nabc\n"
	tbl, err := ingest(in, colstore.Options{SampleRows: 2})
	if err != nil {
		t.Fatal(err)
	}
	x := tbl.MustColumn("x")
	if x.Typ != table.String {
		t.Fatalf("type = %v, want String", x.Typ)
	}
	// Row 0 is inside the retained sample, so its original "1.50" spelling
	// survives; row 2 is past the sample and re-renders canonically.
	want := []string{"1.50", "NaN", "2", "abc"}
	if got := x.Strings(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("values = %q, want %q", got, want)
	}
	oracle, err := table.ReadCSVOracle(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if d := sameCells(tbl, oracle); d != "" {
		t.Fatal(d)
	}
}

// A column whose sampled prefix is all-empty stays undecided until the first
// value arrives, so late numerics still yield a Float column (as the oracle
// does with its full scan) — also when rows past the sample passed while
// undecided.
func TestReadCSVLateTypeDecision(t *testing.T) {
	in := "x,y\n,\n,\n,\n3,x\n4,\n"
	for _, opt := range []colstore.Options{{SampleRows: 2}, {SampleRows: 1}, {}} {
		tbl, err := ingest(in, opt)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := table.ReadCSVOracle(strings.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		if d := sameCells(tbl, oracle); d != "" {
			t.Fatalf("%+v: %s", opt, d)
		}
		if typ := tbl.MustColumn("x").Typ; typ != table.Float {
			t.Fatalf("%+v: x type = %v, want Float", opt, typ)
		}
	}
}

// Differential property: on CSVs whose numeric spellings are canonical the
// ingester matches the oracle cell for cell at every sample size — samples
// smaller than the input included, so demotion past the sample is hit — and
// at row counts one short of, at and one past the end of the sample.
func TestReadCSVStreamingMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for iter := 0; iter < 60; iter++ {
		nRows := rng.Intn(40)
		in := randomCSV(rng, 1+rng.Intn(4), nRows)
		oracle, err := table.ReadCSVOracle(strings.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		for _, sample := range []int{1, 3, 7, nRows + 1} {
			got, err := ingest(in, colstore.Options{SampleRows: sample})
			if err != nil {
				t.Fatalf("iter %d sample %d: %v", iter, sample, err)
			}
			if d := sameCells(got, oracle); d != "" {
				t.Fatalf("iter %d sample %d: %s", iter, sample, d)
			}
		}
	}
	const sampleRows = 16
	for k := 1; k <= 4; k++ {
		for delta := -1; delta <= 1; delta++ {
			n := k*sampleRows + delta
			in := randomCSV(rng, 3, n)
			oracle, err := table.ReadCSVOracle(strings.NewReader(in))
			if err != nil {
				t.Fatal(err)
			}
			got, err := ingest(in, colstore.Options{SampleRows: sampleRows})
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			if d := sameCells(got, oracle); d != "" {
				t.Fatalf("n=%d: %s", n, d)
			}
		}
	}
}

// Inputs neither reader accepts: nothing at all, and a header only of blank
// lines (encoding/csv skips them, so there is no header record either).
func TestReadCSVErrors(t *testing.T) {
	for _, in := range []string{"", "\n\n"} {
		if _, err := ingest(in, colstore.Options{}); err == nil {
			t.Fatalf("ingest(%q): expected an error", in)
		}
		if _, err := table.ReadCSVOracle(strings.NewReader(in)); err == nil {
			t.Fatalf("oracle(%q): expected an error", in)
		}
	}
}

func TestReadCSVTypeInference(t *testing.T) {
	in := "a,b,c,d\n1,x,true,\n2,y,false,\n,z,,\n"
	for _, opt := range []colstore.Options{{}, {SampleRows: 1}} {
		tbl, err := ingest(in, opt)
		if err != nil {
			t.Fatal(err)
		}
		for name, want := range map[string]table.Type{"a": table.Float, "b": table.String, "c": table.Bool, "d": table.String} {
			if got := tbl.MustColumn(name).Typ; got != want {
				t.Fatalf("%+v: column %s infers %v, want %v", opt, name, got, want)
			}
		}
		if !tbl.MustColumn("a").IsNull(2) {
			t.Fatal("empty numeric should be null")
		}
		if got := tbl.MustColumn("d").NullCount(); got != 3 {
			t.Fatalf("all-empty column has %d nulls, want 3", got)
		}
	}
}

// FuzzFromCSV is the hostile-CSV target: whatever the bytes — ragged or
// quoted records, duplicate or empty column names, no rows, no header — the
// ingester must return a table or an error, never panic or hang, and it must
// accept exactly what the oracle accepts. With the default sample the input
// fits it, so an accepted table equals the oracle's cell for cell; with a
// two-row sample (demotion and late type decisions on almost every input) it
// still has the oracle's shape, types and nulls.
func FuzzFromCSV(f *testing.F) {
	f.Add([]byte("a,b,c\n1,x,true\n2,y,false\n,z,\n"))
	f.Add([]byte("x\n1.50\nNaN\n2\nabc\n"))
	f.Add([]byte("x,y\n,\n,\n3,x\n4,\n"))
	f.Add([]byte("a,b\n1\n2,3,4\n"))
	f.Add([]byte("a,a\n1,2\n"))
	f.Add([]byte("\"q\"\"uoted\",\"multi\nline\"\n\"1,5\",\"\"\n"))
	f.Add([]byte(",\n,\n"))
	f.Add([]byte("h\n"))
	f.Add([]byte("a,b\n\"unterminated\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := string(data)
		oracle, oerr := table.ReadCSVOracle(strings.NewReader(in))
		for _, opt := range []colstore.Options{{}, {SampleRows: 2}} {
			got, err := ingest(in, opt)
			if (err == nil) != (oerr == nil) {
				t.Fatalf("%+v: ingest error %v, oracle error %v", opt, err, oerr)
			}
			if err != nil {
				continue
			}
			diff := sameCells
			if opt.SampleRows != 0 {
				diff = sameLayout
			}
			if d := diff(got, oracle); d != "" {
				t.Fatalf("%+v: %s", opt, d)
			}
		}
	})
}
