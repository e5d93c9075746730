package nexus_test

import (
	"context"
	"fmt"
	"io"
	"strings"
	"testing"

	"nexus"
	"nexus/internal/colstore"
	"nexus/internal/kg"
	"nexus/internal/subgroups"
	"nexus/internal/table"
	"nexus/internal/workload"
)

// The colstore path — streaming the Flights rows as CSV through the
// ingester and draining the table — must be byte-identical to registering
// the in-memory generated table directly: same report summary, same
// unexplained subgroups. A small inference sample puts most rows past it.
func TestColstoreExplainByteIdentical(t *testing.T) {
	const (
		rows  = 6000
		query = "SELECT Origin_city, avg(Departure_delay) FROM Flights GROUP BY Origin_city"
	)
	world := kg.NewWorld(kg.WorldConfig{Seed: 11})
	cfg := workload.Config{Rows: rows, Seed: 12}
	ds := workload.Flights(world, cfg)

	// Oracle: the in-memory table.Table path.
	oracleSess := nexus.NewSession(world.Graph, nil)
	oracleSess.RegisterTable(ds.Name, ds.Table, ds.LinkColumns...)
	oracleSess.ExcludeCandidates(ds.Name, ds.ExcludeCandidates...)
	oracleRep, err := oracleSess.ExplainCtx(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}

	// Colstore: the same rows streamed as CSV through the ingester.
	pr, pw := io.Pipe()
	go func() { pw.CloseWithError(workload.FlightsCSV(world, cfg, pw)) }()
	st, err := colstore.FromCSV(pr, colstore.Options{SampleRows: 256})
	if err != nil {
		t.Fatal(err)
	}
	if got := int(st.Stats().Rows); got != rows {
		t.Fatalf("ingested %d rows, want %d", got, rows)
	}
	tbl, err := st.Drain()
	if err != nil {
		t.Fatal(err)
	}

	// The drained table must match the generated one cell-for-cell before
	// any pipeline work (dictionary order included — codes feed the
	// counting kernel directly).
	for _, name := range ds.Table.ColumnNames() {
		oc, cc := ds.Table.MustColumn(name), tbl.MustColumn(name)
		if oc.Typ != cc.Typ {
			t.Fatalf("column %q: type %v, want %v", name, cc.Typ, oc.Typ)
		}
		if fmt.Sprint(oc.Dict) != fmt.Sprint(cc.Dict) {
			t.Fatalf("column %q: dictionary diverged", name)
		}
		for i := 0; i < oc.Len(); i++ {
			if oc.IsNull(i) != cc.IsNull(i) || oc.StringAt(i) != cc.StringAt(i) {
				t.Fatalf("column %q row %d: (%v,%q), want (%v,%q)",
					name, i, cc.IsNull(i), cc.StringAt(i), oc.IsNull(i), oc.StringAt(i))
			}
			if oc.Typ == table.String && oc.Code(i) != cc.Code(i) {
				t.Fatalf("column %q row %d: code %d, want %d", name, i, cc.Code(i), oc.Code(i))
			}
		}
	}

	colSess := nexus.NewSession(world.Graph, nil)
	colSess.RegisterTable(ds.Name, tbl, workload.FlightsLinkColumns...)
	colSess.ExcludeCandidates(ds.Name, workload.FlightsExcludeCandidates...)
	colRep, err := colSess.ExplainCtx(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}

	// Summary is byte-identical except its wall-clock "elapsed:" line.
	stripElapsed := func(s string) string {
		lines := strings.Split(s, "\n")
		out := lines[:0]
		for _, l := range lines {
			if !strings.Contains(l, "elapsed:") {
				out = append(out, l)
			}
		}
		return strings.Join(out, "\n")
	}
	if got, want := stripElapsed(colRep.Summary()), stripElapsed(oracleRep.Summary()); got != want {
		t.Fatalf("summaries diverge:\n--- colstore ---\n%s\n--- oracle ---\n%s", got, want)
	}

	opts := subgroups.Options{K: 5, Parallelism: 1}
	colGroups, _, err := colRep.SubgroupsWithOptions(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	oracleGroups, _, err := oracleRep.SubgroupsWithOptions(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(colGroups), fmt.Sprint(oracleGroups); got != want {
		t.Fatalf("subgroups diverge:\n--- colstore ---\n%s\n--- oracle ---\n%s", got, want)
	}
}
