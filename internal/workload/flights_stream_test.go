package workload

import (
	"bytes"
	"fmt"
	"testing"

	"nexus/internal/colstore"
	"nexus/internal/table"
)

// The streaming CSV generator must describe exactly the table Flights
// materializes — same RNG draw order, every float in a spelling that parses
// back to the same value: reading the stream back through the CSV ingester
// reproduces the generated table cell for cell (types, nulls, values,
// dictionary order and codes), past the inference sample too.
func TestFlightsCSVMatchesTable(t *testing.T) {
	w := sharedWorld()
	cfg := Config{Rows: 1500, Seed: 12}
	ds := Flights(w, cfg)

	var csv bytes.Buffer
	if err := FlightsCSV(w, cfg, &csv); err != nil {
		t.Fatal(err)
	}
	st, err := colstore.FromCSV(&csv, colstore.Options{SampleRows: 256})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := st.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(rt.ColumnNames()) != fmt.Sprint(ds.Table.ColumnNames()) || rt.NumRows() != ds.Table.NumRows() {
		t.Fatalf("read back %v × %d rows, want %v × %d", rt.ColumnNames(), rt.NumRows(), ds.Table.ColumnNames(), ds.Table.NumRows())
	}
	for _, name := range ds.Table.ColumnNames() {
		rc, oc := rt.MustColumn(name), ds.Table.MustColumn(name)
		if rc.Typ != oc.Typ {
			t.Fatalf("column %q: round-trip type %v, want %v", name, rc.Typ, oc.Typ)
		}
		if fmt.Sprint(rc.Dict) != fmt.Sprint(oc.Dict) {
			t.Fatalf("column %q: dictionary diverged", name)
		}
		for i := 0; i < oc.Len(); i++ {
			if rc.IsNull(i) != oc.IsNull(i) || rc.StringAt(i) != oc.StringAt(i) {
				t.Fatalf("column %q row %d: (%v,%q), want (%v,%q)", name, i, rc.IsNull(i), rc.StringAt(i), oc.IsNull(i), oc.StringAt(i))
			}
			if oc.Typ == table.String && rc.Code(i) != oc.Code(i) {
				t.Fatalf("column %q row %d: code %d, want %d", name, i, rc.Code(i), oc.Code(i))
			}
		}
	}
}
