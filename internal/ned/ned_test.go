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
	id, out := l.Link("Russia")
	if out != Linked || id != ru {
		t.Fatalf("link = %v %v", id, out)
	}
}

func TestLinkNormalized(t *testing.T) {
	g, _, us := testGraph()
	l := NewLinker(g)
	id, out := l.Link("  united STATES ")
	if out != Linked || id != us {
		t.Fatalf("link = %v %v", id, out)
	}
	// Punctuation-insensitive.
	if id, out := l.Link("St Louis"); out != Linked || g.Entity(id).Name != "St. Louis" {
		t.Fatalf("St Louis link = %v", out)
	}
}

func TestLinkAlias(t *testing.T) {
	g, ru, _ := testGraph()
	l := NewLinker(g)
	// "Russian Federation" fails until an alias is registered — the paper's
	// reported failure mode.
	if _, out := l.Link("Russian Federation"); out != Unlinked {
		t.Fatalf("expected Unlinked, got %v", out)
	}
	l.AddAlias("Russian Federation", ru)
	if id, out := l.Link("Russian Federation"); out != Linked || id != ru {
		t.Fatal("alias link failed")
	}
}

func TestLinkAmbiguous(t *testing.T) {
	g := kg.NewGraph()
	r1 := g.AddEntity("Ronaldo Luis Nazario de Lima", "Person")
	r2 := g.AddEntity("Cristiano Ronaldo", "Person")
	l := NewLinker(g)
	l.AddAmbiguousAlias("Ronaldo", r1, r2)
	if _, out := l.Link("Ronaldo"); out != Ambiguous {
		t.Fatalf("expected Ambiguous, got %v", out)
	}
}

func TestLinkEmpty(t *testing.T) {
	g, _, _ := testGraph()
	l := NewLinker(g)
	if _, out := l.Link(""); out != Unlinked {
		t.Fatal("empty string should be Unlinked")
	}
}

func TestStatsAccumulate(t *testing.T) {
	g, ru, _ := testGraph()
	l := NewLinker(g)
	l.AddAmbiguousAlias("X", ru, ru)
	l.Link("Russia")
	l.Link("Narnia")
	l.Link("X")
	s := l.Stats()
	if s.Linked != 1 || s.Unlinked != 1 || s.Ambiguous != 1 || s.Total() != 3 {
		t.Fatalf("stats = %+v", s)
	}
	if r := s.SuccessRate(); r < 0.33 || r > 0.34 {
		t.Fatalf("success rate = %v", r)
	}
}

func TestSuccessRateEmpty(t *testing.T) {
	if (Stats{}).SuccessRate() != 1 {
		t.Fatal("empty stats success rate should be 1")
	}
}

func TestLinkColumn(t *testing.T) {
	g, _, _ := testGraph()
	l := NewLinker(g)
	res := l.LinkColumn([]string{"Russia", "Russia", "Narnia", "", "United States"})
	if len(res) != 2 {
		t.Fatalf("linked %d values, want 2", len(res))
	}
	// Duplicates counted once.
	if l.Stats().Total() != 3 {
		t.Fatalf("attempts = %d, want 3 distinct", l.Stats().Total())
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
// into Unlinked (which would poison the missing-value accounting), and must
// leave the linker's statistics untouched.
func TestResolveBatchPropagatesErrors(t *testing.T) {
	g, ru, _ := testGraph()
	boom := errors.New("kg backend unreachable")
	src := &flakySource{Source: g, failures: 1, err: boom}
	l := NewSourceLinker(src)

	_, err := l.ResolveBatch(context.Background(), []string{"Russia", "Narnia"})
	if !errors.Is(err, boom) {
		t.Fatalf("ResolveBatch error = %v, want %v", err, boom)
	}
	if s := l.Stats(); s.Total() != 0 {
		t.Fatalf("failed resolve leaked into stats: %+v", s)
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
// linker to the historical semantics: exact beats alias beats normalized,
// and ambiguous aliases merge with backend candidates.
func TestSourceLinkerParity(t *testing.T) {
	g := kg.NewGraph()
	ru := g.AddEntity("Russia", "Country")
	cr := g.AddEntity("Cristiano Ronaldo", "Person")
	l := NewSourceLinker(g)
	l.AddAlias("Russian Federation", ru)
	// An ambiguous alias with one id merges with the backend's normalized
	// candidate for the same key → two candidates → Ambiguous.
	l.AddAmbiguousAlias("cristiano ronaldo", ru)

	if id, out, _ := l.Resolve(context.Background(), "Russian Federation"); out != Linked || id != ru {
		t.Fatalf("alias resolve = %v %v", id, out)
	}
	// Exact name match still wins over the ambiguous alias.
	if id, out, _ := l.Resolve(context.Background(), "Cristiano Ronaldo"); out != Linked || id != cr {
		t.Fatalf("exact resolve = %v %v", id, out)
	}
	// Non-exact surface form hits alias + normalized merge → Ambiguous.
	if _, out, _ := l.Resolve(context.Background(), "cristiano  ronaldo"); out != Ambiguous {
		t.Fatalf("merged resolve = %v", out)
	}
	// A single ambiguous-alias id with no backend candidate links.
	l.AddAmbiguousAlias("the motherland", ru)
	if id, out, _ := l.Resolve(context.Background(), "The Motherland"); out != Linked || id != ru {
		t.Fatalf("single-candidate ambiguous alias = %v %v", id, out)
	}
}

func TestLinkerOnWorld(t *testing.T) {
	w := kg.NewWorld(kg.WorldConfig{Seed: 2})
	l := NewLinker(w.Graph)
	if id, out := l.Link("germany"); out != Linked || w.Graph.Entity(id).Name != "Germany" {
		t.Fatalf("world link failed: %v", out)
	}
}
