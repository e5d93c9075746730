package kg

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"sync"
	"testing"
	"unsafe"
)

func TestGraphBasics(t *testing.T) {
	g := NewGraph()
	us := g.AddEntity("United States", "Country")
	de := g.AddEntity("Germany", "Country")
	if us == de {
		t.Fatal("distinct entities share id")
	}
	if again := g.AddEntity("United States", "Country"); again != us {
		t.Fatal("re-adding an entity should return the original id")
	}
	if g.NumEntities() != 2 {
		t.Fatalf("entities = %d", g.NumEntities())
	}
	if id, ok := g.Lookup("Germany"); !ok || id != de {
		t.Fatal("lookup failed")
	}
	if _, ok := g.Lookup("Atlantis"); ok {
		t.Fatal("lookup of unknown entity succeeded")
	}
	if e := g.Entity(us); e.Name != "United States" || e.Class != "Country" {
		t.Fatalf("entity record = %+v", e)
	}
}

func TestGraphProperties(t *testing.T) {
	g := NewGraph()
	us := g.AddEntity("US", "Country")
	g.Set(us, "GDP", Num(21e12))
	g.Set(us, "Continent", Str("North America"))
	eur := g.AddEntity("Euro", "Currency")
	g.Set(us, "Currency", Ent(eur))

	if v, ok := g.Value(us, "GDP"); !ok || v.Num != 21e12 {
		t.Fatalf("GDP = %v %v", v, ok)
	}
	if v, ok := g.Value(us, "Currency"); !ok || v.Kind != EntValue || v.Ent != eur {
		t.Fatal("entity-valued property broken")
	}
	if _, ok := g.Value(us, "HDI"); ok {
		t.Fatal("absent property reported present")
	}
	props := g.Properties(us)
	if len(props) != 3 || props[0] != "Continent" {
		t.Fatalf("props = %v", props)
	}
}

func TestGraphMultiValued(t *testing.T) {
	g := NewGraph()
	us := g.AddEntity("US", "Country")
	g.Add(us, "Ethnic Group", Ent(g.AddEntity("EG1", "EthnicGroup")))
	g.Add(us, "Ethnic Group", Ent(g.AddEntity("EG2", "EthnicGroup")))
	if vs := g.Values(us, "Ethnic Group"); len(vs) != 2 {
		t.Fatalf("values = %v", vs)
	}
	if _, ok := g.Value(us, "Ethnic Group"); ok {
		t.Fatal("multi-valued property should not satisfy single Value")
	}
}

func TestGraphDelete(t *testing.T) {
	g := NewGraph()
	us := g.AddEntity("US", "Country")
	g.Set(us, "HDI", Num(0.92))
	g.Delete(us, "HDI")
	if _, ok := g.Value(us, "HDI"); ok {
		t.Fatal("deleted property still present")
	}
	// ClassProperties retains the property name (it exists on the class
	// schema even when sparse).
	found := false
	for _, p := range g.ClassProperties("Country") {
		if p == "HDI" {
			found = true
		}
	}
	if !found {
		t.Fatal("class property forgotten after delete")
	}
}

func TestEntitiesOfClass(t *testing.T) {
	g := NewGraph()
	g.AddEntity("US", "Country")
	g.AddEntity("Euro", "Currency")
	g.AddEntity("DE", "Country")
	ids := g.EntitiesOfClass("Country")
	if len(ids) != 2 {
		t.Fatalf("countries = %v", ids)
	}
}

func TestValueString(t *testing.T) {
	if Num(2.5).String() != "2.5" {
		t.Fatal("Num string")
	}
	if Str("x").String() != "x" {
		t.Fatal("Str string")
	}
	if Ent(3).String() != "entity:3" {
		t.Fatal("Ent string")
	}
}

// scanTriples is the full-scan reference for NumTriples.
func scanTriples(g *Graph) int {
	n := 0
	for _, e := range g.props {
		for _, r := range e.runs {
			n += int(r.n)
		}
	}
	return n
}

// TestNumTriples pins the maintained triple count (and so Version) to a full
// scan of the graph after every kind of mutation.
func TestNumTriples(t *testing.T) {
	g := NewGraph()
	us := g.AddEntity("US", "Country")
	de := g.AddEntity("DE", "Country")
	check := func(step string, want int) {
		t.Helper()
		if n, scan := g.NumTriples(), scanTriples(g); n != want || scan != want {
			t.Fatalf("%s: NumTriples %d, scan %d, want %d", step, n, scan, want)
		}
		if v, want := g.Version(), fmt.Sprintf("mem:2:%d", want); v != want {
			t.Fatalf("%s: Version %q, want %q", step, v, want)
		}
	}
	g.Set(us, "a", Num(1))
	g.Add(us, "b", Num(1))
	g.Add(us, "b", Num(2))
	check("set and add", 3)
	g.Set(us, "b", Num(7), Num(8), Num(9))
	check("set replacing a multi-valued property", 4)
	g.Set(us, "b")
	check("set with no values", 1)
	g.Delete(us, "a")
	check("delete of a present property", 0)
	g.Delete(us, "a")
	g.Delete(de, "never set")
	check("delete of an absent property", 0)
	g.Add(us, "a", Num(3))
	check("add after delete", 1)

	rng := rand.New(rand.NewPCG(7, 28))
	ids, props := []EntityID{us, de}, []string{"a", "b", "c"}
	for step := 0; step < 2000; step++ {
		id, prop := ids[rng.IntN(len(ids))], props[rng.IntN(len(props))]
		switch rng.IntN(3) {
		case 0:
			vals := make([]Value, rng.IntN(4))
			for i := range vals {
				vals[i] = Num(float64(step))
			}
			g.Set(id, prop, vals...)
		case 1:
			g.Add(id, prop, Num(float64(step)))
		default:
			g.Delete(id, prop)
		}
		if n, scan := g.NumTriples(), scanTriples(g); n != scan {
			t.Fatalf("random step %d: NumTriples %d, scan %d", step, n, scan)
		}
	}
}

// refGraph is the map-of-slices reference model of a Graph's properties:
// one map per entity, a slice per property, and the property names ever set
// per class.
type refGraph struct {
	props      []map[string][]Value
	class      []string
	classProps map[string]map[string]bool
}

func (m *refGraph) set(id EntityID, prop string, vals []Value) {
	m.props[id][prop] = slices.Clone(vals)
	m.classProps[m.class[id]][prop] = true
}

func (m *refGraph) add(id EntityID, prop string, v Value) {
	m.props[id][prop] = append(m.props[id][prop], v)
	m.classProps[m.class[id]][prop] = true
}

func (m *refGraph) triples() int {
	n := 0
	for _, ps := range m.props {
		for _, vs := range ps {
			n += len(vs)
		}
	}
	return n
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// checkAgainst compares every read of g with the reference model.
func checkAgainst(t *testing.T, step string, g *Graph, m *refGraph, names []string) {
	t.Helper()
	if n, want := g.NumTriples(), m.triples(); n != want {
		t.Fatalf("%s: NumTriples %d, want %d", step, n, want)
	}
	if v, want := g.Version(), fmt.Sprintf("mem:%d:%d", len(m.props), m.triples()); v != want {
		t.Fatalf("%s: Version %q, want %q", step, v, want)
	}
	for class, set := range m.classProps {
		if got, want := g.ClassProperties(class), sortedKeys(set); !slices.Equal(got, want) {
			t.Fatalf("%s: ClassProperties(%s) = %v, want %v", step, class, got, want)
		}
	}
	ids := make([]EntityID, len(m.props))
	for i := range ids {
		ids[i] = EntityID(i)
	}
	maps, err := g.GetProperties(context.Background(), ids)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		want := m.props[id]
		if got := g.Properties(id); !slices.Equal(got, sortedKeys(want)) {
			t.Fatalf("%s: Properties(%d) = %v, want %v", step, id, got, sortedKeys(want))
		}
		if len(maps[id]) != len(want) {
			t.Fatalf("%s: GetProperties(%d) has %d properties, want %d", step, id, len(maps[id]), len(want))
		}
		for _, prop := range names {
			vs, present := want[prop]
			if got := g.Values(id, prop); !slices.Equal(got, vs) {
				t.Fatalf("%s: Values(%d, %s) = %v, want %v", step, id, prop, got, vs)
			}
			if got, ok := maps[id][prop]; ok != present || !slices.Equal(got, vs) {
				t.Fatalf("%s: GetProperties(%d)[%s] = %v %v, want %v %v", step, id, prop, got, ok, vs, present)
			}
			v, ok := g.Value(id, prop)
			if ok != (len(vs) == 1) || (ok && v != vs[0]) {
				t.Fatalf("%s: Value(%d, %s) = %v %v, want %v", step, id, prop, v, ok, vs)
			}
		}
	}
}

// TestGraphMatchesReferenceModel drives the graph and a map-of-slices model
// through the same seeded mutations and compares every read after each
// batch. Names arrive in random order, so the vocabulary ranks shift under
// existing runs; values are also set from the graph's own slices.
func TestGraphMatchesReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 32))
	g := NewGraph()
	m := &refGraph{classProps: map[string]map[string]bool{}}
	for i := 0; i < 8; i++ {
		class := []string{"Country", "City"}[i%2]
		if id := g.AddEntity(fmt.Sprintf("e%d", i), class); int(id) != i {
			t.Fatalf("entity %d got id %d", i, id)
		}
		m.props = append(m.props, map[string][]Value{})
		m.class = append(m.class, class)
		if m.classProps[class] == nil {
			m.classProps[class] = map[string]bool{}
		}
	}
	var names []string
	for i := 0; i < 24; i++ {
		names = append(names, fmt.Sprintf("p%02d", rng.IntN(100)))
	}
	names = append(names, "never set")
	value := func(step int) Value {
		switch rng.IntN(3) {
		case 0:
			return Num(float64(step))
		case 1:
			return Str(fmt.Sprint("s", step))
		default:
			return Ent(EntityID(rng.IntN(8)))
		}
	}
	for batch := 0; batch < 60; batch++ {
		for i := 0; i < 40; i++ {
			step := batch*40 + i
			id := EntityID(rng.IntN(len(m.props)))
			prop := names[rng.IntN(len(names)-1)]
			switch op := rng.IntN(10); {
			case op < 4:
				vals := make([]Value, rng.IntN(4))
				for j := range vals {
					vals[j] = value(step)
				}
				g.Set(id, prop, vals...)
				m.set(id, prop, vals)
			case op < 5:
				from := names[rng.IntN(len(names)-1)]
				vals := g.Values(id, from)
				m.set(id, prop, m.props[id][from])
				g.Set(id, prop, vals...)
			case op < 8:
				v := value(step)
				g.Add(id, prop, v)
				m.add(id, prop, v)
			default:
				g.Delete(id, prop)
				delete(m.props[id], prop)
			}
		}
		// An append to a returned slice must copy, not overwrite the next
		// property's values; the comparison below would see it.
		for id := range m.props {
			for _, prop := range names {
				_ = append(g.Values(EntityID(id), prop), Num(-1))
			}
		}
		checkAgainst(t, fmt.Sprintf("batch %d", batch), g, m, names)
	}
}

// TestGraphCopiesIn pins the two aliasing hazards of an arena: a caller
// mutating the slice it passed to Set, and a caller appending to a slice
// Values returned.
func TestGraphCopiesIn(t *testing.T) {
	g := NewGraph()
	us := g.AddEntity("US", "Country")
	vals := []Value{Num(1), Num(2)}
	g.Set(us, "a", vals...)
	g.Set(us, "b", Num(3))
	vals[0] = Num(99)
	if got := g.Values(us, "a"); !slices.Equal(got, []Value{Num(1), Num(2)}) {
		t.Fatalf("mutating the slice passed to Set changed the graph: a = %v", got)
	}
	a := g.Values(us, "a")
	a = append(a, Num(42))
	a[0] = Num(7)
	if got := g.Values(us, "b"); !slices.Equal(got, []Value{Num(3)}) {
		t.Fatalf("appending to Values overwrote the next property: b = %v", got)
	}
	if got := g.Values(us, "a"); !slices.Equal(got, []Value{Num(1), Num(2)}) {
		t.Fatalf("appending to Values changed the property: a = %v", got)
	}
}

// TestGraphConcurrentReads reads one graph from several goroutines, as
// kgserve does; under -race it fails if any read path writes.
func TestGraphConcurrentReads(t *testing.T) {
	g := NewGraph()
	for i := 0; i < 4; i++ {
		id := g.AddEntity(fmt.Sprintf("e%d", i), "Country")
		for p := 9; p >= 0; p-- {
			g.Set(id, fmt.Sprintf("p%d", p), Num(float64(p)))
		}
		g.Add(id, "multi", Str("x"))
		g.Add(id, "multi", Str("y"))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := EntityID(0); id < 4; id++ {
				for _, p := range g.Properties(id) {
					if len(g.Values(id, p)) == 0 {
						t.Errorf("entity %d lost %s", id, p)
					}
					g.Value(id, p)
				}
				if _, err := g.GetProperties(context.Background(), []EntityID{id}); err != nil {
					t.Error(err)
				}
			}
			g.ClassProperties("Country")
		}()
	}
	wg.Wait()
}

// TestWorldBytesPerTriple pins the structural size of the seed-11 world:
// capacity × element size over every run, value arena and the property
// vocabulary, per triple. The map-of-slices store it replaced took 167 B
// of live heap per triple.
func TestWorldBytesPerTriple(t *testing.T) {
	if s := unsafe.Sizeof(Value{}); s != 32 {
		t.Fatalf("Value is %d bytes, want 32", s)
	}
	if s := unsafe.Sizeof(run{}); s != 12 {
		t.Fatalf("run is %d bytes, want 12", s)
	}
	g := NewWorld(WorldConfig{Seed: 11}).Graph
	var bytes uintptr
	for _, e := range g.props {
		bytes += uintptr(cap(e.runs))*unsafe.Sizeof(run{}) + uintptr(cap(e.vals))*unsafe.Sizeof(Value{})
	}
	bytes += uintptr(cap(g.names))*unsafe.Sizeof("") + uintptr(cap(g.rank)+cap(g.byRank))*unsafe.Sizeof(int32(0))
	perTriple := float64(bytes) / float64(g.NumTriples())
	t.Logf("%d structural bytes over %d triples: %.1f B/triple", bytes, g.NumTriples(), perTriple)
	if perTriple > 64 {
		t.Fatalf("%.1f structural bytes per triple, want ≤ 64", perTriple)
	}
}
