package subgroups

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"nexus/internal/bins"
	"nexus/internal/core"
	"nexus/internal/extract"
	"nexus/internal/kg"
	"nexus/internal/ned"
	"nexus/internal/obs"
	"nexus/internal/table"
	"nexus/internal/workload"
)

// slotFixture is a generated table with the knowledge-graph attributes
// extracted through its link columns, in the form the pipeline hands them to
// the search: the exposure and outcome, the string input columns, and every
// extracted attribute in entity form, one code per slot under its link
// column's row→slot map.
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
		e, err := a.EntityEncode(opts)
		if err != nil {
			tb.Fatal(err)
		}
		if e.Card >= 2 && e.Card <= 60 {
			fx.kg = append(fx.kg, RefinementAttr{Name: a.Name, Enc: &bins.Encoded{
				Name: a.Name, Codes: e.Codes, Card: e.Card, Labels: e.Labels, Slots: a.RowSlots(),
			}})
		}
	}
	return fx
}

// rowForm is e with one code per row: e itself, or its entity form broadcast.
func rowForm(e *bins.Encoded) *bins.Encoded {
	if e.Slots == nil {
		return e
	}
	return e.Broadcast(e.Slots)
}

// unlink gives about one row in forty of every link column a null link
// value, as the generators never do: the row loses its slot, and every
// attribute of the column is Missing there.
func (fx *slotFixture) unlink(r *rand.Rand) {
	maps := map[*int32][]int32{}
	for i, a := range fx.kg {
		m, ok := maps[&a.Enc.Slots[0]]
		if !ok {
			m = slices.Clone(a.Enc.Slots)
			for row := range m {
				if r.Intn(40) == 0 {
					m[row] = -1
				}
			}
			maps[&a.Enc.Slots[0]] = m
		}
		enc := *a.Enc
		enc.Slots = m
		fx.kg[i] = RefinementAttr{Name: a.Name, Enc: &enc}
	}
}

// links groups the extracted attributes by link column, keeping the columns
// with at least three of them, ordered by their first attribute's name.
func (fx *slotFixture) links() [][]RefinementAttr {
	byMap := map[*int32][]RefinementAttr{}
	for _, a := range fx.kg {
		byMap[&a.Enc.Slots[0]] = append(byMap[&a.Enc.Slots[0]], a)
	}
	var links [][]RefinementAttr
	for _, as := range byMap {
		if len(as) >= 3 {
			links = append(links, as)
		}
	}
	sort.Slice(links, func(i, j int) bool { return links[i][0].Name < links[j][0].Name })
	return links
}

// rowsOf carves a group's rows the plain way: every row whose codes meet all
// of its conditions, ascending.
func rowsOf(attrs []RefinementAttr, conds []Assignment) []int32 {
	var rows []int32
	for r := range attrs[0].Enc.Len() {
		keep := true
		for _, c := range conds {
			keep = keep && attrs[c.AttrIdx].Enc.Code(r) == c.Code
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
		links := fx.links()
		for _, as := range links {
			for _, sl := range as[0].Enc.Slots {
				if sl < 0 {
					unresolved++
				}
			}
		}
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
				if &a.Enc.Slots[0] == &onL[0].Enc.Slots[0] && r.Intn(2) == 0 || r.Intn(8) == 0 {
					dims = append(dims, a)
				}
			}
			var expl []*bins.Encoded
			pick := func() *bins.Encoded { return onL[r.Intn(len(onL))].Enc }
			kind := trial % 4
			switch kind {
			case 1:
				expl = []*bins.Encoded{pick()}
			case 2:
				expl = []*bins.Encoded{pick(), pick()}
			case 3:
				expl = []*bins.Encoded{fx.input[r.Intn(len(fx.input))].Enc, pick()}
			}
			rowExpl := make([]*bins.Encoded, len(expl))
			for i, e := range expl {
				rowExpl[i] = rowForm(e)
			}
			s, err := newSearch(fx.t, fx.o, expl, dims, &Options{Parallelism: 1}, 2, 1<<30)
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
				want := core.ScoreGroupRows(fx.t, fx.o, rowExpl, rows, nil)
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

// TestTopUnexplainedFormsAgree runs the whole search twice on the SO and
// Flights fixtures, unresolved rows included: once with the knowledge-graph
// dimensions and the explanation in entity form, as the pipeline hands them
// over, and once with the same attributes broadcast to rows. The results, the
// consumed sequence (score bits included) and Stats must be identical, under
// an explanation that is empty or on one link column; only the entity form
// scores slot nodes.
func TestTopUnexplainedFormsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("extracts two generated datasets")
	}
	r := rand.New(rand.NewSource(48))
	fixtures := []slotFixture{
		newSlotFixture(t, workload.StackOverflow, 3000, "Country", "Salary"),
		newSlotFixture(t, workload.Flights, 4000, "Origin_city", "Departure_delay"),
	}
	type run struct {
		res, seq string
		stats    Stats
		slots    int64
	}
	search := func(fx slotFixture, expl []*bins.Encoded, dims []RefinementAttr) run {
		counters := obs.NewCounters()
		var seq []Group
		res, st, err := topUnexplained(context.Background(), fx.t, fx.o, expl, dims,
			Options{K: 5, Tau: 0.02, Parallelism: 2, Counters: counters}, 10, 400,
			func(g Group) { seq = append(seq, g) })
		if err != nil {
			t.Fatal(err)
		}
		return run{renderGroups(res), renderGroups(seq), st, counters.Get(obs.SubgroupSlotScored)}
	}
	for _, fx := range fixtures {
		fx.unlink(r)
		onL := fx.links()[0]
		entDims := append(append([]RefinementAttr(nil), fx.input...), fx.kg...)
		rowDims := make([]RefinementAttr, len(entDims))
		for i, a := range entDims {
			rowDims[i] = RefinementAttr{Name: a.Name, Enc: rowForm(a.Enc)}
		}
		for _, expl := range [][]*bins.Encoded{nil, {onL[0].Enc}, {onL[1].Enc, onL[2].Enc}} {
			rowExpl := make([]*bins.Encoded, len(expl))
			for i, e := range expl {
				rowExpl[i] = rowForm(e)
			}
			name := fmt.Sprintf("%s, |E| = %d", fx.name, len(expl))
			ent, row := search(fx, expl, entDims), search(fx, rowExpl, rowDims)
			if ent.res != row.res || ent.seq != row.seq || ent.stats != row.stats {
				t.Fatalf("%s: entity form %+v\n%s--- consumed ---\n%s\nbroadcast %+v\n%s--- consumed ---\n%s",
					name, ent.stats, ent.res, ent.seq, row.stats, row.res, row.seq)
			}
			if ent.slots == 0 || row.slots != 0 {
				t.Fatalf("%s: slot nodes scored %d in entity form, %d broadcast", name, ent.slots, row.slots)
			}
			t.Logf("%s: %d results, %+v, %d slot nodes", name, strings.Count(ent.res, "\n"), ent.stats, ent.slots)
		}
	}
}
