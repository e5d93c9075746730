package extract

import (
	"context"
	"sync"
	"testing"

	"nexus/internal/bins"
	"nexus/internal/kg"
	"nexus/internal/ned"
	"nexus/internal/table"
)

// smallGraph builds a tiny fully-controlled graph for precise assertions.
func smallGraph() *kg.Graph {
	g := kg.NewGraph()
	us := g.AddEntity("US", "Country")
	de := g.AddEntity("DE", "Country")
	g.Set(us, "HDI", kg.Num(0.92))
	g.Set(de, "HDI", kg.Num(0.94))
	g.Set(us, "Language", kg.Str("English"))
	g.Set(de, "Language", kg.Str("German"))

	usd := g.AddEntity("US Dollar", "Currency")
	eur := g.AddEntity("Euro", "Currency")
	g.Set(usd, "Adoption Year", kg.Num(1792))
	g.Set(eur, "Adoption Year", kg.Num(1999))
	g.Set(us, "Currency", kg.Ent(usd))
	g.Set(de, "Currency", kg.Ent(eur))

	l1 := g.AddEntity("US Leader", "Leader")
	g.Set(l1, "Age", kg.Num(78))
	g.Set(us, "Leader", kg.Ent(l1))

	eg1 := g.AddEntity("EG1", "EthnicGroup")
	eg2 := g.AddEntity("EG2", "EthnicGroup")
	g.Set(eg1, "Population size", kg.Num(100))
	g.Set(eg2, "Population size", kg.Num(300))
	g.Add(us, "Ethnic Group", kg.Ent(eg1))
	g.Add(us, "Ethnic Group", kg.Ent(eg2))

	// Multi-valued numeric property.
	g.Add(de, "Border Lengths", kg.Num(100))
	g.Add(de, "Border Lengths", kg.Num(300))
	return g
}

func baseTable() *table.Table {
	return table.MustFromColumns(
		table.NewStringColumn("country", []string{"US", "DE", "US", "Narnia", ""}),
		table.NewFloatColumn("outcome", []float64{1, 2, 3, 4, 5}),
	)
}

func TestExtractOneHop(t *testing.T) {
	g := smallGraph()
	ex, err := ExtractCtx(context.Background(), baseTable(), []string{"country"}, g, ned.NewLinker(g), Options{Hops: 1})
	if err != nil {
		t.Fatal(err)
	}
	hdi := ex.Attr("HDI")
	if hdi == nil {
		t.Fatalf("no HDI attribute; have %v", ex.Names())
	}
	row := hdi.Materialize()
	if row.Len() != 5 {
		t.Fatalf("row-level length = %d", row.Len())
	}
	if row.Float(0) != 0.92 || row.Float(1) != 0.94 || row.Float(2) != 0.92 {
		t.Fatalf("values = %v %v %v", row.Float(0), row.Float(1), row.Float(2))
	}
	if !row.IsNull(3) || !row.IsNull(4) {
		t.Fatal("unlinked/null rows should be null")
	}
	// Entity-valued single property becomes a categorical attribute.
	cur := ex.Attr("Currency")
	if cur == nil {
		t.Fatal("no Currency attribute")
	}
	if cur.Materialize().StringAt(1) != "Euro" {
		t.Fatal("Currency value should be the entity name")
	}
	// 1-hop must NOT include leader sub-properties.
	if ex.Attr("Leader Age") != nil {
		t.Fatal("1-hop extraction leaked 2-hop attribute")
	}
}

func TestExtractTwoHop(t *testing.T) {
	g := smallGraph()
	opts := Options{Hops: 2}
	ex, err := ExtractCtx(context.Background(), baseTable(), []string{"country"}, g, ned.NewLinker(g), opts)
	if err != nil {
		t.Fatal(err)
	}
	la := ex.Attr("Leader Age")
	if la == nil {
		t.Fatalf("no Leader Age; have %v", ex.Names())
	}
	if v := la.Materialize().Float(0); v != 78 {
		t.Fatalf("Leader Age = %v", v)
	}
	if la.Hops != 2 {
		t.Fatalf("hops = %d", la.Hops)
	}
	// One-to-many aggregation of ethnic group population.
	avg := ex.Attr("Avg Population size of Ethnic Group")
	if avg == nil {
		t.Fatalf("no aggregated one-to-many attribute; have %v", ex.Names())
	}
	if v := avg.Materialize().Float(0); v != 200 {
		t.Fatalf("avg population = %v, want 200", v)
	}
	// Currency sub-property.
	if ay := ex.Attr("Currency Adoption Year"); ay == nil {
		t.Fatal("no Currency Adoption Year 2-hop attribute")
	} else if v := ay.Materialize().Float(1); v != 1999 {
		t.Fatalf("adoption year = %v", v)
	}
}

func TestExtractMultiValuedNumeric(t *testing.T) {
	g := smallGraph()
	ex, err := ExtractCtx(context.Background(), baseTable(), []string{"country"}, g, ned.NewLinker(g), Options{Hops: 1})
	if err != nil {
		t.Fatal(err)
	}
	bl := ex.Attr("Avg Border Lengths")
	if bl == nil {
		t.Fatalf("no aggregated numeric attribute; have %v", ex.Names())
	}
	if v := bl.Materialize().Float(1); v != 200 {
		t.Fatalf("avg border lengths = %v, want 200", v)
	}
}

func TestExtractOneToManyCount(t *testing.T) {
	g := smallGraph()
	ex, err := ExtractCtx(context.Background(), baseTable(), []string{"country"}, g, ned.NewLinker(g), Options{Hops: 1})
	if err != nil {
		t.Fatal(err)
	}
	cnt := ex.Attr("Num Ethnic Group")
	if cnt == nil {
		t.Fatal("no count attribute for multi-valued entity property")
	}
	if v := cnt.Materialize().Float(0); v != 2 {
		t.Fatalf("count = %v, want 2", v)
	}
}

func TestExtractLinkStats(t *testing.T) {
	g := smallGraph()
	ex, err := ExtractCtx(context.Background(), baseTable(), []string{"country"}, g, ned.NewLinker(g), Options{Hops: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := ex.LinkStats["country"]
	// Distinct non-null values: US, DE, Narnia → 2 linked, 1 unlinked.
	if st.Linked != 2 || st.Unlinked != 1 {
		t.Fatalf("link stats = %+v", st)
	}
}

func TestExtractEncode(t *testing.T) {
	g := smallGraph()
	ex, err := ExtractCtx(context.Background(), baseTable(), []string{"country"}, g, ned.NewLinker(g), Options{Hops: 1})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := ex.Attr("HDI").Encode(bins.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if enc.Len() != 5 {
		t.Fatalf("encoded length = %d", enc.Len())
	}
	if enc.Codes[0] != enc.Codes[2] {
		t.Fatal("same entity should share code")
	}
	if enc.Codes[0] == enc.Codes[1] {
		t.Fatal("different HDI values share code")
	}
	if enc.Codes[3] != bins.Missing || enc.Codes[4] != bins.Missing {
		t.Fatal("unlinked rows should encode Missing")
	}
}

func TestExtractErrors(t *testing.T) {
	g := smallGraph()
	if _, err := ExtractCtx(context.Background(), baseTable(), []string{"nope"}, g, ned.NewLinker(g), Options{Hops: 1}); err == nil {
		t.Fatal("expected error for unknown link column")
	}
	tbl := table.MustFromColumns(table.NewFloatColumn("num", []float64{1}))
	if _, err := ExtractCtx(context.Background(), tbl, []string{"num"}, g, ned.NewLinker(g), Options{Hops: 1}); err == nil {
		t.Fatal("expected error for non-string link column")
	}
}

func TestExtractNameCollisionAcrossLinkColumns(t *testing.T) {
	g := kg.NewGraph()
	a := g.AddEntity("A", "X")
	b := g.AddEntity("B", "Y")
	g.Set(a, "GDP", kg.Num(1))
	g.Set(b, "GDP", kg.Num(2))
	tbl := table.MustFromColumns(
		table.NewStringColumn("c1", []string{"A"}),
		table.NewStringColumn("c2", []string{"B"}),
	)
	ex, err := ExtractCtx(context.Background(), tbl, []string{"c1", "c2"}, g, ned.NewLinker(g), Options{Hops: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Attr("GDP") == nil || ex.Attr("GDP (c2)") == nil {
		t.Fatalf("collision handling failed; have %v", ex.Names())
	}
}

func TestExtractTableMaterialization(t *testing.T) {
	g := smallGraph()
	ex, err := ExtractCtx(context.Background(), baseTable(), []string{"country"}, g, ned.NewLinker(g), Options{Hops: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Every attribute materializes into one row-level table aligned with
	// the base (AddColumn refuses a length or name clash).
	tbl := table.New()
	for _, a := range ex.Attrs {
		if err := tbl.AddColumn(a.Materialize()); err != nil {
			t.Fatal(err)
		}
	}
	if tbl.NumRows() != 5 || tbl.NumCols() != len(ex.Attrs) {
		t.Fatalf("materialized shape %d×%d", tbl.NumRows(), tbl.NumCols())
	}
}

// opaqueSource hides the graphView methods of the wrapped source, forcing
// extraction down the batched per-hop prefetch path a remote backend takes.
type opaqueSource struct {
	kg.Source
	propCalls int
	entCalls  int
}

func (o *opaqueSource) GetProperties(ctx context.Context, ids []kg.EntityID) ([]kg.Props, error) {
	o.propCalls++
	return o.Source.GetProperties(ctx, ids)
}

func (o *opaqueSource) Entities(ctx context.Context, ids []kg.EntityID) ([]kg.Entity, error) {
	o.entCalls++
	return o.Source.Entities(ctx, ids)
}

// TestExtractSnapshotParity is the bit-identity contract: extraction through
// the per-hop prefetched snapshot must equal in-place extraction over the
// same graph, attribute for attribute, value for value.
func TestExtractSnapshotParity(t *testing.T) {
	w := sharedWorld()
	names := make([]string, 0, 30)
	for i := 0; i < 30; i++ {
		names = append(names, w.Countries[i%len(w.Countries)].Name)
	}
	tbl := table.MustFromColumns(table.NewStringColumn("Country", names))
	for _, hops := range []int{1, 2} {
		opts := Options{Hops: hops}
		direct, err := ExtractCtx(context.Background(), tbl, []string{"Country"}, w.Graph, ned.NewLinker(w.Graph), opts)
		if err != nil {
			t.Fatal(err)
		}
		src := &opaqueSource{Source: w.Graph}
		snap, err := ExtractCtx(context.Background(), tbl, []string{"Country"}, src, ned.NewLinker(src), opts)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := snap.Names(), direct.Names(); len(got) != len(want) {
			t.Fatalf("hops=%d: %d attrs via snapshot, %d direct", hops, len(got), len(want))
		}
		for i, a := range direct.Attrs {
			b := snap.Attrs[i]
			if a.Name != b.Name || a.Hops != b.Hops || a.LinkColumn != b.LinkColumn {
				t.Fatalf("hops=%d: attr %d metadata differs: %+v vs %+v", hops, i, a, b)
			}
			am, bm := a.Materialize(), b.Materialize()
			for r := 0; r < am.Len(); r++ {
				if am.IsNull(r) != bm.IsNull(r) {
					t.Fatalf("hops=%d %s row %d: null mismatch", hops, a.Name, r)
				}
				if am.IsNull(r) {
					continue
				}
				if am.Typ == table.Float {
					if am.Float(r) != bm.Float(r) {
						t.Fatalf("hops=%d %s row %d: %v != %v", hops, a.Name, r, am.Float(r), bm.Float(r))
					}
				} else if am.StringAt(r) != bm.StringAt(r) {
					t.Fatalf("hops=%d %s row %d: %q != %q", hops, a.Name, r, am.StringAt(r), bm.StringAt(r))
				}
			}
		}
		// Per-hop batching: one GetProperties call per hop, at most one
		// Entities call per hop — never one call per entity.
		if src.propCalls != hops {
			t.Fatalf("hops=%d: %d GetProperties calls", hops, src.propCalls)
		}
		if src.entCalls > hops {
			t.Fatalf("hops=%d: %d Entities calls", hops, src.entCalls)
		}
	}
}

// World-scale smoke test: extraction over the synthetic world.
var (
	worldOnce sync.Once
	world     *kg.World
)

func sharedWorld() *kg.World {
	worldOnce.Do(func() { world = kg.NewWorld(kg.WorldConfig{Seed: 3}) })
	return world
}

func TestExtractFromWorld(t *testing.T) {
	w := sharedWorld()
	names := make([]string, 0, 40)
	for i := 0; i < 40; i++ {
		names = append(names, w.Countries[i%len(w.Countries)].Name)
	}
	tbl := table.MustFromColumns(table.NewStringColumn("Country", names))
	ex, err := ExtractCtx(context.Background(), tbl, []string{"Country"}, w.Graph, ned.NewLinker(w.Graph), Options{Hops: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Attrs) < 300 {
		t.Fatalf("extracted %d attributes, want Table 1 scale (hundreds)", len(ex.Attrs))
	}
	if ex.Attr("HDI") == nil || ex.Attr("Gini") == nil || ex.Attr("GDP") == nil {
		t.Fatal("headline attributes missing")
	}
	// Missing values present (sparsity injected).
	hdi := ex.Attr("HDI").Materialize()
	if hdi.NullCount() == 0 {
		t.Fatal("expected some missing HDI values")
	}
}

func TestExtractWorldTwoHopGrowsCandidates(t *testing.T) {
	w := sharedWorld()
	names := make([]string, 20)
	for i := range names {
		names[i] = w.Countries[i].Name
	}
	tbl := table.MustFromColumns(table.NewStringColumn("Country", names))
	ex1, err := ExtractCtx(context.Background(), tbl, []string{"Country"}, w.Graph, ned.NewLinker(w.Graph), Options{Hops: 1})
	if err != nil {
		t.Fatal(err)
	}
	ex2, err := ExtractCtx(context.Background(), tbl, []string{"Country"}, w.Graph, ned.NewLinker(w.Graph), Options{Hops: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(ex2.Attrs) <= len(ex1.Attrs) {
		t.Fatalf("2-hop (%d) should exceed 1-hop (%d)", len(ex2.Attrs), len(ex1.Attrs))
	}
	if ex2.Attr("Leader Age") == nil {
		t.Fatal("2-hop world extraction missing Leader Age")
	}
}

func TestWithColumn(t *testing.T) {
	g := smallGraph()
	ex, err := ExtractCtx(context.Background(), baseTable(), []string{"country"}, g, ned.NewLinker(g), Options{Hops: 1})
	if err != nil {
		t.Fatal(err)
	}
	hdi := ex.Attr("HDI")
	repl := table.NewColumn("HDI", table.Float)
	repl.AppendFloat(0.5)
	repl.AppendNull()
	for repl.Len() < hdi.Col.Len() {
		repl.AppendFloat(0.1)
	}
	mod := hdi.WithColumn(repl)
	if mod.Materialize().Float(0) != 0.5 {
		t.Fatal("replacement column not used")
	}
	// Original untouched; row-slot mapping shared.
	if hdi.Materialize().Float(0) == 0.5 {
		t.Fatal("WithColumn mutated the original")
	}
	if &mod.RowSlots()[0] != &hdi.RowSlots()[0] {
		t.Fatal("row slots should be shared")
	}
}

func TestWithColumnLengthMismatchPanics(t *testing.T) {
	g := smallGraph()
	ex, err := ExtractCtx(context.Background(), baseTable(), []string{"country"}, g, ned.NewLinker(g), Options{Hops: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for length mismatch")
		}
	}()
	ex.Attr("HDI").WithColumn(table.NewFloatColumn("HDI", []float64{1}))
}
