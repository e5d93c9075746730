package subgroups

import (
	"container/heap"
	"context"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"nexus/internal/bins"
	"nexus/internal/core"
	"nexus/internal/extract"
	"nexus/internal/kg"
	"nexus/internal/ned"
	"nexus/internal/table"
	"nexus/internal/workload"
)

// slotFixture is a generated table with the knowledge-graph attributes
// extracted through its link columns, in the form the search reads them: the
// exposure and outcome, the string input columns, and every extracted
// attribute broadcast to rows with its link column's row→slot map.
type slotFixture struct {
	name  string
	t, o  *bins.Encoded
	input []RefinementAttr
	kg    []RefinementAttr
}

func newSlotFixture(tb testing.TB, make func(*kg.World, workload.Config) *workload.Dataset, rows int, exposure, outcome string) slotFixture {
	tb.Helper()
	world := kg.NewWorld(kg.WorldConfig{Seed: 11})
	ds := make(world, workload.Config{Rows: rows, Seed: 12})
	ex, err := extract.ExtractCtx(context.Background(), ds.Table, ds.LinkColumns, world.Graph, ned.NewLinker(world.Graph), extract.Options{Hops: 1})
	if err != nil {
		tb.Fatal(err)
	}
	opts := bins.Options{Bins: 8}
	encode := func(col *table.Column) *bins.Encoded {
		e, err := bins.Encode(col, opts)
		if err != nil {
			tb.Fatal(err)
		}
		return e
	}
	fx := slotFixture{name: ds.Name, t: encode(ds.Table.MustColumn(exposure)), o: encode(ds.Table.MustColumn(outcome))}
	for _, col := range ds.Table.Columns() {
		if col.Typ == table.String && col.Name != exposure {
			if e := encode(col); e.Card >= 2 && e.Card <= 60 {
				fx.input = append(fx.input, RefinementAttr{Name: col.Name, Enc: e})
			}
		}
	}
	attrs := append([]*extract.Attribute(nil), ex.Attrs...)
	sort.Slice(attrs, func(i, j int) bool { return attrs[i].Name < attrs[j].Name })
	for _, a := range attrs {
		e, err := a.Encode(opts)
		if err != nil {
			tb.Fatal(err)
		}
		if e.Card >= 2 && e.Card <= 60 {
			fx.kg = append(fx.kg, RefinementAttr{Name: a.Name, Enc: e, Slots: a.RowSlots()})
		}
	}
	return fx
}

// unlink gives about one row in forty of every link column a null link
// value, as the generators never do: the row loses its slot, and every
// attribute of the column is Missing there.
func (fx *slotFixture) unlink(r *rand.Rand) {
	maps := map[*int32][]int32{}
	for i, a := range fx.kg {
		m, ok := maps[&a.Slots[0]]
		if !ok {
			m = slices.Clone(a.Slots)
			for row := range m {
				if r.Intn(40) == 0 {
					m[row] = -1
				}
			}
			maps[&a.Slots[0]] = m
		}
		enc := *a.Enc
		enc.Codes = slices.Clone(a.Enc.Codes)
		for row, sl := range m {
			if sl < 0 {
				enc.Codes[row] = bins.Missing
			}
		}
		fx.kg[i] = RefinementAttr{Name: a.Name, Enc: &enc, Slots: m}
	}
}

// rowsOf carves a group's rows the plain way: every row whose codes meet all
// of its conditions, ascending.
func rowsOf(attrs []RefinementAttr, conds []Assignment) []int32 {
	var rows []int32
	for r := range attrs[0].Enc.Codes {
		keep := true
		for _, c := range conds {
			keep = keep && attrs[c.AttrIdx].Enc.Codes[r] == c.Code
		}
		if keep {
			rows = append(rows, int32(r))
		}
	}
	return rows
}

// TestSlotScoredMatchesRowScored is the slot path's differential. On SO and
// Flights fixtures it draws random lattice nodes — expanded and scored by the
// search's own code, from the root down — under explanations that are empty,
// one or two attributes of one link column (the composite ids) or include an
// input column, and holds each to core.ScoreGroupRows over its carved rows:
// math.Float64bits-equal score and equal size. Slot nodes must occur wherever
// the explanation admits them, and none where it includes an input column;
// the draws must cover unresolved rows and slots whose entity lacks the
// explanation's value.
func TestSlotScoredMatchesRowScored(t *testing.T) {
	if testing.Short() {
		t.Skip("extracts two generated datasets")
	}
	r := rand.New(rand.NewSource(47))
	fixtures := []slotFixture{
		newSlotFixture(t, workload.StackOverflow, 3000, "Country", "Salary"),
		newSlotFixture(t, workload.Flights, 4000, "Origin_city", "Departure_delay"),
	}
	fixtures[0].unlink(r)
	var slotNodes [4]int // by explanation kind
	var missingE, unresolved int
	for _, fx := range fixtures {
		byMap := map[*int32][]RefinementAttr{}
		for _, a := range fx.kg {
			byMap[&a.Slots[0]] = append(byMap[&a.Slots[0]], a)
		}
		var links [][]RefinementAttr
		for _, as := range byMap {
			if len(as) >= 3 {
				links = append(links, as)
			}
			for _, sl := range as[0].Slots {
				if sl < 0 {
					unresolved++
				}
			}
		}
		sort.Slice(links, func(i, j int) bool { return links[i][0].Name < links[j][0].Name })
		if len(links) == 0 {
			t.Fatalf("%s: no link column with three dimensions", fx.name)
		}
		for trial := 0; trial < 16; trial++ {
			onL := links[r.Intn(len(links))]
			// The dimensions: a few input columns, then extracted attributes of
			// every column, name-sorted as the pipeline orders them.
			var dims []RefinementAttr
			for _, a := range fx.input {
				if r.Intn(3) == 0 {
					dims = append(dims, a)
				}
			}
			for _, a := range fx.kg {
				if &a.Slots[0] == &onL[0].Slots[0] && r.Intn(2) == 0 || r.Intn(8) == 0 {
					dims = append(dims, a)
				}
			}
			var expl []*bins.Encoded
			var explSlots []int32
			pick := func() *bins.Encoded { return onL[r.Intn(len(onL))].Enc }
			kind := trial % 4
			switch kind {
			case 1:
				expl, explSlots = []*bins.Encoded{pick()}, onL[0].Slots
			case 2:
				expl, explSlots = []*bins.Encoded{pick(), pick()}, onL[0].Slots
			case 3:
				expl = []*bins.Encoded{fx.input[r.Intn(len(fx.input))].Enc, pick()}
			}
			s, err := newSearch(fx.t, fx.o, expl, explSlots, dims, &Options{Parallelism: 1}, 2, 1<<30)
			if err != nil {
				t.Fatal(err)
			}
			admitted := 0
			for _, l := range s.linkOf {
				if l != nil {
					admitted++
				}
			}
			if kind == 3 && admitted > 0 {
				t.Fatalf("%s: an explanation with an input column admitted %d dimensions to the slot path", fx.name, admitted)
			}
			var pool []*node
			drain := func() {
				for s.heap.Len() > 0 {
					pool = append(pool, heap.Pop(&s.heap).(*node))
				}
			}
			s.expand(s.root())
			drain()
			for step := 0; step < 40 && len(pool) > 0; step++ {
				// Half the draws take the largest slot node, as the search
				// consumes nodes, so that many strata hold weight; the rest a
				// random node, slot nodes favoured.
				i := r.Intn(len(pool))
				if r.Intn(2) == 0 {
					for k, g := range pool {
						if g.link != nil && (pool[i].link == nil || g.Size > pool[i].Size) {
							i = k
						}
					}
				} else if r.Intn(3) > 0 {
					for j := range pool {
						if k := (i + j) % len(pool); pool[k].link != nil {
							i = k
							break
						}
					}
				}
				g := pool[i]
				pool[i] = pool[len(pool)-1]
				pool = pool[:len(pool)-1]
				s.score(g)
				rows := rowsOf(dims, g.Conds)
				want := core.ScoreGroupRows(fx.t, fx.o, expl, rows, nil)
				if len(rows) != g.Size || math.Float64bits(g.Score) != math.Float64bits(want) {
					t.Fatalf("%s, explanation kind %d, %v (slot node %v): size %d score %v, carved rows %d score %v",
						fx.name, kind, g.Group, g.link != nil, g.Size, g.Score, len(rows), want)
				}
				if l := g.link; l != nil {
					slotNodes[kind]++
					for _, sl := range g.slots {
						if l.rows[sl] > 0 && l.e[sl] < 0 {
							missingE++
						}
					}
				}
				if len(g.Conds) < maxDepth {
					s.expand(g)
					drain()
				}
			}
		}
	}
	if slotNodes[0] == 0 || slotNodes[1] == 0 || slotNodes[2] == 0 || missingE == 0 || unresolved == 0 {
		t.Fatalf("slot nodes drawn by explanation kind %v, %d of their slots lack the explanation's value, %d unresolved rows: the draws miss the slot path",
			slotNodes, missingE, unresolved)
	}
	t.Logf("slot nodes drawn by explanation kind %v, %d of their slots lack the explanation's value, %d unresolved rows", slotNodes, missingE, unresolved)
}
