package colstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"nexus/internal/table"
)

// genCSV builds a random CSV text whose value pool exercises every ingest
// path: nulls, floats, non-finite spellings, bools, strings (so columns
// demote when the mix disagrees).
func genCSV(rng *rand.Rand, nCols, nRows int) string {
	pool := []string{"", "1", "2.5", "-3", "0.125", "1000", "true", "false", "ORD", "SFO", "JFK", "NaN", "+Inf"}
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

// requireEqualTables compares two materializations cell-for-cell, including
// types, null placement and dictionary order.
func requireEqualTables(t *testing.T, got, want *table.Table, ctx string) {
	t.Helper()
	if got.NumRows() != want.NumRows() || got.NumCols() != want.NumCols() {
		t.Fatalf("%s: shape %dx%d, want %dx%d", ctx, got.NumRows(), got.NumCols(), want.NumRows(), want.NumCols())
	}
	for _, name := range want.ColumnNames() {
		gc, wc := got.MustColumn(name), want.MustColumn(name)
		if gc.Typ != wc.Typ {
			t.Fatalf("%s: column %q type %v, want %v", ctx, name, gc.Typ, wc.Typ)
		}
		if fmt.Sprint(gc.Dict) != fmt.Sprint(wc.Dict) {
			t.Fatalf("%s: column %q dict %v, want %v", ctx, name, gc.Dict, wc.Dict)
		}
		for i := 0; i < wc.Len(); i++ {
			if gc.IsNull(i) != wc.IsNull(i) || gc.StringAt(i) != wc.StringAt(i) {
				t.Fatalf("%s: column %q row %d: (%v,%q), want (%v,%q)",
					ctx, name, i, gc.IsNull(i), gc.StringAt(i), wc.IsNull(i), wc.StringAt(i))
			}
			if wc.Typ == table.String && gc.Code(i) != wc.Code(i) {
				t.Fatalf("%s: column %q row %d: code %d, want %d", ctx, name, i, gc.Code(i), wc.Code(i))
			}
		}
	}
}

// Sample-boundary property: for n = k·sampleRows − 1, k·sampleRows and
// k·sampleRows + 1, every row is ingested and every drained column has n
// rows; the columns hold less than the raw records would, and the table
// drains once. (That the cells match the oracle reader at these sizes is
// checked beside the oracle, in internal/table's
// TestReadCSVStreamingMatchesOracle.)
func TestQuickSampleBoundaryRowCounts(t *testing.T) {
	const sampleRows = 16
	f := func(k uint8, delta uint8, seed int64) bool {
		n := (1 + int(k)%4) * sampleRows
		n += int(delta)%3 - 1 // −1, 0, +1 around the boundary
		in := genCSV(rand.New(rand.NewSource(seed)), 3, n)

		st, err := FromCSV(strings.NewReader(in), Options{SampleRows: sampleRows})
		if err != nil {
			t.Logf("ingest: %v", err)
			return false
		}
		stats := st.Stats()
		if int(stats.Rows) != n {
			t.Logf("rows %d, want %d", stats.Rows, n)
			return false
		}
		if stats.ChunkBytes <= 0 || stats.SourceBytesEst <= stats.ChunkBytes {
			t.Logf("column bytes %d, source estimate %d: want 0 < columns < source", stats.ChunkBytes, stats.SourceBytesEst)
			return false
		}
		got, err := st.Drain()
		if err != nil {
			t.Logf("drain: %v", err)
			return false
		}
		for _, c := range got.Columns() {
			if c.Len() != n {
				t.Logf("drained column %q has %d rows, want %d", c.Name, c.Len(), n)
				return false
			}
		}
		if _, err := st.Drain(); err == nil {
			t.Log("second drain must error")
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Dictionary round-trip property: for every drained string column, every
// non-null code indexes the global dictionary, the dictionary is
// duplicate-free, and value→code→value is the identity.
func TestQuickDictionaryRoundTrip(t *testing.T) {
	f := func(seed int64, nRows uint8) bool {
		st, err := FromCSV(strings.NewReader(genCSV(rand.New(rand.NewSource(seed)), 4, int(nRows))), Options{SampleRows: 4})
		if err != nil {
			t.Logf("ingest: %v", err)
			return false
		}
		tbl, err := st.Drain()
		if err != nil {
			t.Logf("drain: %v", err)
			return false
		}
		for _, c := range tbl.Columns() {
			if c.Typ != table.String {
				continue
			}
			inverse := make(map[string]int32, len(c.Dict))
			for code, v := range c.Dict {
				if _, dup := inverse[v]; dup {
					t.Logf("column %q: duplicate dict entry %q", c.Name, v)
					return false
				}
				inverse[v] = int32(code)
			}
			for i := 0; i < c.Len(); i++ {
				code := c.Code(i)
				if c.IsNull(i) {
					if code != -1 {
						t.Logf("column %q row %d: null with code %d", c.Name, i, code)
						return false
					}
					continue
				}
				if code < 0 || int(code) >= len(c.Dict) {
					t.Logf("column %q row %d: code %d out of range", c.Name, i, code)
					return false
				}
				if inverse[c.Dict[code]] != code {
					t.Logf("column %q row %d: round trip %d→%q→%d", c.Name, i, code, c.Dict[code], inverse[c.Dict[code]])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Null-bitmap property: null positions survive demotion past the sample —
// an input ingested with a 4-row inference sample drains to the same table,
// nulls, values and dictionary order included, as the same input ingested
// inside one sample. (The pool's numeric spellings are canonical, so values
// re-rendered past the sample read the same.)
func TestQuickNullBitmapPastSample(t *testing.T) {
	f := func(seed int64, nRows uint8) bool {
		in := genCSV(rand.New(rand.NewSource(seed)), 3, int(nRows))
		var drained [2]*table.Table
		for i, sampleRows := range []int{4, defaultSampleRows} {
			st, err := FromCSV(strings.NewReader(in), Options{SampleRows: sampleRows})
			if err != nil {
				t.Logf("ingest: %v", err)
				return false
			}
			if drained[i], err = st.Drain(); err != nil {
				t.Logf("drain: %v", err)
				return false
			}
		}
		requireEqualTables(t, drained[0], drained[1], fmt.Sprintf("seed %d, %d rows", seed, nRows))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// ingest.append must tolerate reuse of the caller's record slice, short
// records (missing trailing fields read as nulls), and inputs that end
// inside the inference sample.
func TestIngestRecordReuseAndShortRecords(t *testing.T) {
	in, err := newIngest([]string{"a", "b"}, Options{SampleRows: 2})
	if err != nil {
		t.Fatal(err)
	}
	rec := make([]string, 2)
	vals := [][2]string{{"1", "x"}, {"2", "y"}, {"3", "x"}}
	for _, v := range vals {
		rec[0], rec[1] = v[0], v[1]
		in.append(rec)
	}
	in.append([]string{"4"}) // short record: b null
	st, err := in.finish()
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := st.Drain()
	if err != nil {
		t.Fatal(err)
	}
	a, b := tbl.MustColumn("a"), tbl.MustColumn("b")
	if a.Typ != table.Float || b.Typ != table.String {
		t.Fatalf("types %v/%v, want Float/String", a.Typ, b.Typ)
	}
	if got := fmt.Sprint(a.Floats()); got != "[1 2 3 4]" {
		t.Fatalf("a = %s", got)
	}
	if got := fmt.Sprint(b.Strings()); got != "[x y x ]" {
		t.Fatalf("b = %q", b.Strings())
	}
	if !b.IsNull(3) {
		t.Fatal("short record should leave b[3] null")
	}
}

// A column that demotes to String after the inference sample keeps raw
// spellings for sampled rows and non-finite spellings from the sidecar.
func TestDemotionBackfillSpellings(t *testing.T) {
	in := "x\n1.50\nNaN\n2\n3\n4\nabc\n"
	st, err := FromCSV(strings.NewReader(in), Options{SampleRows: 2})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := st.Drain()
	if err != nil {
		t.Fatal(err)
	}
	x := tbl.MustColumn("x")
	if x.Typ != table.String {
		t.Fatalf("type %v, want String", x.Typ)
	}
	want := []string{"1.50", "NaN", "2", "3", "4", "abc"}
	if got := fmt.Sprint(x.Strings()); got != fmt.Sprint(want) {
		t.Fatalf("values %q, want %q", x.Strings(), want)
	}
}
