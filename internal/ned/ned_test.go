package ned

import (
	"context"
	"errors"
	"testing"

	"nexus/internal/kg"
)

func testGraph() (*kg.Graph, kg.EntityID, kg.EntityID) {
	g := kg.NewGraph()
	ru := g.AddEntity("Russia", "Country")
	us := g.AddEntity("United States", "Country")
	g.AddEntity("St. Louis", "City")
	return g, ru, us
}

// link resolves one value through ResolveBatch.
func link(t *testing.T, l *Linker, value string) (kg.EntityID, Outcome) {
	t.Helper()
	res, err := l.ResolveBatch(context.Background(), []string{value})
	if err != nil {
		t.Fatal(err)
	}
	return res[0].ID, res[0].Outcome
}

func TestNormalize(t *testing.T) {
	cases := map[string]string{
		"  United   States ": "united states",
		"St. Louis":          "st louis",
		"Winston-Salem":      "winston salem",
		"O'Brien":            "obrien",
		"":                   "",
		"ALL CAPS":           "all caps",
	}
	for in, want := range cases {
		if got := Normalize(in); got != want {
			t.Errorf("Normalize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestLinkExact(t *testing.T) {
	g, ru, _ := testGraph()
	l := NewLinker(g)
	id, out := link(t, l, "Russia")
	if out != Linked || id != ru {
		t.Fatalf("link = %v %v", id, out)
	}
}

func TestLinkNormalized(t *testing.T) {
	g, _, us := testGraph()
	l := NewLinker(g)
	id, out := link(t, l, "  united STATES ")
	if out != Linked || id != us {
		t.Fatalf("link = %v %v", id, out)
	}
	// Punctuation-insensitive.
	if id, out := link(t, l, "St Louis"); out != Linked || g.Entity(id).Name != "St. Louis" {
		t.Fatalf("St Louis link = %v", out)
	}
}

func TestLinkAlias(t *testing.T) {
	g, ru, _ := testGraph()
	l := NewLinker(g)
	// "Russian Federation" fails until an alias is registered — the paper's
	// reported failure mode.
	if _, out := link(t, l, "Russian Federation"); out != Unlinked {
		t.Fatalf("expected Unlinked, got %v", out)
	}
	l.AddAlias("Russian Federation", ru)
	if id, out := link(t, l, "Russian Federation"); out != Linked || id != ru {
		t.Fatal("alias link failed")
	}
}

// ambiguousGraph holds two entities whose names normalize alike, so only a
// verbatim name resolves either.
func ambiguousGraph() *kg.Graph {
	g := kg.NewGraph()
	g.AddEntity("Ronaldo", "Person")
	g.AddEntity("ronaldo", "Person")
	return g
}

func TestLinkAmbiguous(t *testing.T) {
	l := NewLinker(ambiguousGraph())
	if _, out := link(t, l, "RONALDO"); out != Ambiguous {
		t.Fatalf("expected Ambiguous, got %v", out)
	}
}

func TestLinkEmpty(t *testing.T) {
	g, _, _ := testGraph()
	l := NewLinker(g)
	if _, out := link(t, l, ""); out != Unlinked {
		t.Fatal("empty string should be Unlinked")
	}
}

func TestStatsAccumulate(t *testing.T) {
	l := NewLinker(ambiguousGraph())
	res, err := l.ResolveBatch(context.Background(), []string{"Ronaldo", "Narnia", "RONALDO"})
	if err != nil {
		t.Fatal(err)
	}
	var s Stats
	for _, r := range res {
		s.Add(r.Outcome)
	}
	if s != (Stats{Linked: 1, Unlinked: 1, Ambiguous: 1}) {
		t.Fatalf("stats = %+v", s)
	}
}

// flakySource fails its Resolve calls until failures is exhausted, then
// delegates to the wrapped source — the shape of a remote backend with
// transient transport errors.
type flakySource struct {
	kg.Source
	failures int
	err      error
	calls    int
}

func (f *flakySource) Resolve(ctx context.Context, values []string) ([]kg.Link, error) {
	f.calls++
	if f.failures > 0 {
		f.failures--
		return nil, f.err
	}
	return f.Source.Resolve(ctx, values)
}

// TestResolveBatchPropagatesErrors is the regression test for the remote
// backend: a transport failure must surface as an error, never be folded
// into Unlinked (which would poison the missing-value accounting).
func TestResolveBatchPropagatesErrors(t *testing.T) {
	g, ru, _ := testGraph()
	boom := errors.New("kg backend unreachable")
	src := &flakySource{Source: g, failures: 1, err: boom}
	l := NewLinker(src)

	_, err := l.ResolveBatch(context.Background(), []string{"Russia", "Narnia"})
	if !errors.Is(err, boom) {
		t.Fatalf("ResolveBatch error = %v, want %v", err, boom)
	}

	// The next attempt (backend recovered) resolves with unchanged
	// ambiguous/unlinked accounting.
	res, err := l.ResolveBatch(context.Background(), []string{"Russia", "Narnia", ""})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Outcome != Linked || res[0].ID != ru {
		t.Fatalf("res[0] = %+v", res[0])
	}
	if res[1].Outcome != Unlinked || res[2].Outcome != Unlinked {
		t.Fatalf("miss outcomes = %+v %+v", res[1], res[2])
	}
	if src.calls != 2 {
		t.Fatalf("backend calls = %d, want 2", src.calls)
	}
}

// TestSourceLinkerParity pins the alias precedence over a source-backed
// linker to the historical semantics: exact beats alias beats normalized.
func TestSourceLinkerParity(t *testing.T) {
	g := kg.NewGraph()
	ru := g.AddEntity("Russia", "Country")
	cr := g.AddEntity("Cristiano Ronaldo", "Person")
	l := NewLinker(g)
	l.AddAlias("Russian Federation", ru)
	// An alias whose key is also an entity's normalized name.
	l.AddAlias("cristiano ronaldo", ru)

	if id, out := link(t, l, "Russian Federation"); out != Linked || id != ru {
		t.Fatalf("alias resolve = %v %v", id, out)
	}
	// Exact name match wins over the alias.
	if id, out := link(t, l, "Cristiano Ronaldo"); out != Linked || id != cr {
		t.Fatalf("exact resolve = %v %v", id, out)
	}
	// A non-exact surface form: the alias wins over the normalized match.
	if id, out := link(t, l, "cristiano  ronaldo"); out != Linked || id != ru {
		t.Fatalf("alias over normalized = %v %v", id, out)
	}
}

func TestLinkerOnWorld(t *testing.T) {
	w := kg.NewWorld(kg.WorldConfig{Seed: 2})
	l := NewLinker(w.Graph)
	if id, out := link(t, l, "germany"); out != Linked || w.Graph.Entity(id).Name != "Germany" {
		t.Fatalf("world link failed: %v", out)
	}
}
