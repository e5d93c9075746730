package kg

import (
	"fmt"
	"math/rand/v2"
	"testing"
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
	for _, m := range g.triples {
		for _, vs := range m {
			n += len(vs)
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
