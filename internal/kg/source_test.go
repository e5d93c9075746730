package kg

import (
	"context"
	"testing"
)

func TestGraphResolve(t *testing.T) {
	g := NewGraph()
	ru := g.AddEntity("Russia", "Country")
	g.AddEntity("United States", "Country")
	r1 := g.AddEntity("Ronaldo A", "Person")
	g.AddEntity("ronaldo a", "Person") // normalized collision with r1

	links, err := g.Resolve(context.Background(), []string{
		"Russia", "united   STATES", "Narnia", "", "Ronaldo A", "RONALDO A",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(links) != 6 {
		t.Fatalf("got %d links", len(links))
	}
	if l := links[0]; l.Outcome != Linked || l.ID != ru || !l.Exact {
		t.Fatalf("exact resolve = %+v", l)
	}
	if l := links[1]; l.Outcome != Linked || g.Entity(l.ID).Name != "United States" || l.Exact {
		t.Fatalf("normalized resolve = %+v", l)
	}
	if links[2].Outcome != Unlinked || links[3].Outcome != Unlinked {
		t.Fatalf("miss outcomes = %+v %+v", links[2], links[3])
	}
	// Exact beats the ambiguous normalized bucket; a non-exact form hits it.
	if l := links[4]; l.Outcome != Linked || l.ID != r1 || !l.Exact {
		t.Fatalf("exact-over-ambiguous = %+v", l)
	}
	if links[5].Outcome != Ambiguous {
		t.Fatalf("ambiguous resolve = %+v", links[5])
	}
}

func TestGraphSourceBatches(t *testing.T) {
	ctx := context.Background()
	g := NewGraph()
	de := g.AddEntity("Germany", "Country")
	eu := g.AddEntity("Euro", "Currency")
	g.Set(de, "HDI", Num(0.94))
	g.Set(de, "Currency", Ent(eu))
	g.Add(de, "Ethnic Group", Str("a"))
	g.Add(de, "Ethnic Group", Str("b"))

	ents, err := g.Entities(ctx, []EntityID{eu, de})
	if err != nil {
		t.Fatal(err)
	}
	if ents[0].Name != "Euro" || ents[1].Name != "Germany" {
		t.Fatalf("entities = %+v", ents)
	}
	if _, err := g.Entities(ctx, []EntityID{99}); err == nil {
		t.Fatal("expected error for unknown id")
	}

	props, err := g.GetProperties(ctx, []EntityID{de, eu})
	if err != nil {
		t.Fatal(err)
	}
	if len(props[0]) != 3 || props[0]["HDI"][0].Num != 0.94 || len(props[1]) != 0 {
		t.Fatalf("props = %+v", props)
	}
	if _, err := g.GetProperties(ctx, []EntityID{99}); err == nil {
		t.Fatal("expected error for unknown id")
	}
}

func TestEntitiesOfClassIndexed(t *testing.T) {
	g := NewGraph()
	var want []EntityID
	for i := 0; i < 10; i++ {
		class := "A"
		if i%3 == 0 {
			class = "B"
		}
		id := g.AddEntity(string(rune('a'+i)), class)
		if class == "B" {
			want = append(want, id)
		}
	}
	got := g.EntitiesOfClass("B")
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("insertion order broken: got %v want %v", got, want)
		}
	}
	// The returned slice is a copy: mutating it must not corrupt the index.
	got[0] = 999
	if g.EntitiesOfClass("B")[0] == 999 {
		t.Fatal("EntitiesOfClass exposed internal index")
	}
	if g.EntitiesOfClass("missing") != nil {
		t.Fatal("unknown class should yield nil")
	}
	// Duplicate AddEntity must not duplicate index entries.
	n := len(g.EntitiesOfClass("A"))
	g.AddEntity("b", "A")
	if len(g.EntitiesOfClass("A")) != n {
		t.Fatal("duplicate AddEntity grew the class index")
	}
}
