package kgwire

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"nexus/internal/kg"
)

// handGraph holds every shape a property map can take: multi-valued and
// mixed-kind properties, entity references, an entity with no properties,
// a property set to no values, strings shared across entities, and the
// floats JSON numbers cannot carry (NaN with two payloads, ±Inf, −0).
func handGraph() (*kg.Graph, []kg.EntityID) {
	g := kg.NewGraph()
	de := g.AddEntity("Germany", "Country")
	fr := g.AddEntity("France", "Country")
	eu := g.AddEntity("Euro", "Currency")
	bare := g.AddEntity("Atlantis", "Country")
	g.Set(de, "HDI", kg.Num(0.94))
	g.Set(fr, "HDI", kg.Num(0.90))
	g.Set(de, "Currency", kg.Ent(eu))
	g.Set(fr, "Currency", kg.Ent(eu))
	g.Add(de, "Ethnic Group", kg.Str("a"))
	g.Add(de, "Ethnic Group", kg.Str("b"))
	g.Add(fr, "Ethnic Group", kg.Str("b"))
	g.Set(de, "Mixed", kg.Str("x"), kg.Num(3), kg.Ent(fr), kg.Num(-1), kg.Str("x"))
	g.Set(fr, "Odd", kg.Num(math.NaN()), kg.Num(math.Float64frombits(0xfff8000000000042)),
		kg.Num(math.Inf(1)), kg.Num(math.Inf(-1)), kg.Num(math.Copysign(0, -1)), kg.Num(0))
	g.Set(eu, "Empty")
	g.Set(eu, "Code", kg.Str("EUR"))
	return g, []kg.EntityID{de, fr, eu, bare, de}
}

// diffProps names the first difference between two property-map lists,
// comparing numbers by their bits and values in order; "" when equal.
func diffProps(got, want []kg.Props) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d maps, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Sprintf("entity %d: %d properties, want %d", i, len(got[i]), len(want[i]))
		}
		for name, wv := range want[i] {
			gv, ok := got[i][name]
			if !ok || len(gv) != len(wv) || (gv == nil) != (wv == nil) {
				return fmt.Sprintf("entity %d, %q: %v, want %v", i, name, gv, wv)
			}
			for k := range wv {
				g, w := gv[k], wv[k]
				if g.Kind != w.Kind || g.Str != w.Str || g.Ent != w.Ent || math.Float64bits(g.Num) != math.Float64bits(w.Num) {
					return fmt.Sprintf("entity %d, %q, value %d: %#v (bits %#x), want %#v (bits %#x)",
						i, name, k, g, math.Float64bits(g.Num), w, math.Float64bits(w.Num))
				}
			}
		}
	}
	return ""
}

// throughJSON builds the table for props, sends it through JSON and
// rebuilds it.
func throughJSON(t testing.TB, props []kg.Props) ([]kg.Props, []byte) {
	t.Helper()
	blob, err := json.Marshal(BuildProperties(props))
	if err != nil {
		t.Fatal(err)
	}
	var r PropertiesResponse
	if err := json.Unmarshal(blob, &r); err != nil {
		t.Fatal(err)
	}
	got, err := r.Rebuild()
	if err != nil {
		t.Fatalf("rebuild of %s: %v", blob, err)
	}
	return got, blob
}

// TestPropertiesRoundTrip pins build → JSON → rebuild to the graph's own
// GetProperties, bit for bit and in value order, on the hand-built shapes
// and on every city, airline and country of a generated world.
func TestPropertiesRoundTrip(t *testing.T) {
	ctx := context.Background()
	g, ids := handGraph()
	world := kg.NewWorld(kg.WorldConfig{Seed: 11})
	var worldIDs []kg.EntityID
	for _, class := range []string{"City", "Airline", "Country"} {
		worldIDs = append(worldIDs, world.Graph.EntitiesOfClass(class)...)
	}
	if len(worldIDs) < 500 {
		t.Fatalf("generated world has %d cities, airlines and countries", len(worldIDs))
	}
	for _, tc := range []struct {
		name string
		g    *kg.Graph
		ids  []kg.EntityID
	}{{"hand-built", g, ids}, {"generated", world.Graph, worldIDs}, {"no entities", g, nil}} {
		want, err := tc.g.GetProperties(ctx, tc.ids)
		if err != nil {
			t.Fatal(err)
		}
		got, blob := throughJSON(t, want)
		if d := diffProps(got, want); d != "" {
			t.Errorf("%s: %s", tc.name, d)
		}
		if tc.name == "hand-built" {
			// Each name and each string crosses once, however often it occurs.
			for _, s := range []string{`"Ethnic Group"`, `"HDI"`, `"b"`, `"x"`} {
				if n := strings.Count(string(blob), s); n != 1 {
					t.Errorf("%s occurs %d times in %s", s, n, blob)
				}
			}
		}
	}
}

// TestPropertiesCountsOnlyWhenNeeded pins that a table whose every
// property holds one value sends no counts column.
func TestPropertiesCountsOnlyWhenNeeded(t *testing.T) {
	one := BuildProperties([]kg.Props{{"a": {kg.Num(1)}, "b": {kg.Str("s")}}, {}})
	if one.Counts != nil {
		t.Errorf("single-valued table sends counts %v", one.Counts)
	}
	two := BuildProperties([]kg.Props{{"a": {kg.Num(1), kg.Num(2)}, "b": {kg.Str("s")}}})
	if len(two.Counts) != 2 {
		t.Errorf("multi-valued table sends counts %v, want one per property", two.Counts)
	}
}

// TestPropertiesMalformed breaks a valid table one column at a time: every
// break is an error from Rebuild, never a panic or a silent answer.
func TestPropertiesMalformed(t *testing.T) {
	base := func() PropertiesResponse {
		return PropertiesResponse{
			Names:   []string{"p", "q"},
			Strings: []string{"s"},
			Runs:    []int32{2, 0},
			Props:   []int32{0, 1},
			Counts:  []int32{2, 1},
			Kinds:   "nse",
			Nums:    make([]byte, 8),
			Refs:    []int32{0, 7},
		}
	}
	valid := base()
	if _, err := valid.Rebuild(); err != nil {
		t.Fatalf("base table: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*PropertiesResponse)
		want   string
	}{
		{"negative run count", func(r *PropertiesResponse) { r.Runs = []int32{3, -1} }, "negative run count"},
		{"runs over the properties", func(r *PropertiesResponse) { r.Runs = []int32{2, 1} }, "runs add up"},
		{"runs under the properties", func(r *PropertiesResponse) { r.Runs = []int32{1, 0} }, "runs add up"},
		{"counts column short", func(r *PropertiesResponse) { r.Counts = []int32{3} }, "value counts"},
		{"negative value count", func(r *PropertiesResponse) { r.Counts = []int32{4, -1} }, "negative value count"},
		{"counts over the kinds", func(r *PropertiesResponse) { r.Counts = []int32{2, 2} }, "counts add up"},
		{"no counts, three values", func(r *PropertiesResponse) { r.Counts = nil }, "counts add up"},
		{"unknown kind", func(r *PropertiesResponse) { r.Kinds = "nsx" }, "unknown value kind"},
		{"number column short", func(r *PropertiesResponse) { r.Nums = r.Nums[:7] }, "number column ends"},
		{"number column long", func(r *PropertiesResponse) { r.Nums = make([]byte, 16) }, "left over"},
		{"reference column short", func(r *PropertiesResponse) { r.Refs = r.Refs[:1] }, "reference column ends"},
		{"reference column long", func(r *PropertiesResponse) { r.Refs = append(r.Refs, 1) }, "left over"},
		{"string index past the table", func(r *PropertiesResponse) { r.Refs[0] = 1 }, "string index 1 out of range"},
		{"negative string index", func(r *PropertiesResponse) { r.Refs[0] = -1 }, "string index -1 out of range"},
		{"property index past the table", func(r *PropertiesResponse) { r.Props[1] = 2 }, "property index 2 out of range"},
		{"negative property index", func(r *PropertiesResponse) { r.Props[0] = -3 }, "property index -3 out of range"},
		{"property listed twice", func(r *PropertiesResponse) { r.Props[1] = 0 }, "lists a property twice"},
	} {
		r := base()
		tc.mutate(&r)
		got, err := r.Rebuild()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Rebuild = %v, %v; want an error containing %q", tc.name, got, err, tc.want)
		}
	}
}

// FuzzPropertiesResponse sends arbitrary bytes through decode and rebuild:
// nothing panics, and a table that rebuilds re-encodes to equal maps.
func FuzzPropertiesResponse(f *testing.F) {
	g, ids := handGraph()
	props, err := g.GetProperties(context.Background(), ids)
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range [][]kg.Props{props, props[3:4], {{"a": {kg.Num(1)}}}} {
		blob, err := json.Marshal(BuildProperties(p))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Add([]byte(`{"names":["p"],"runs":[1],"props":[0],"kinds":"e","refs":[-5]}`))
	f.Add([]byte(`{"names":["p"],"strings":["s"],"runs":[1,0],"props":[0],"counts":[2],"kinds":"ns","nums":"AAAAAAAA+H8=","refs":[0]}`))
	f.Fuzz(func(t *testing.T, blob []byte) {
		var r PropertiesResponse
		if err := json.Unmarshal(blob, &r); err != nil {
			return // malformed JSON is the decoder's problem, not ours
		}
		first, err := r.Rebuild()
		if err != nil {
			return
		}
		again, _ := throughJSON(t, first)
		if d := diffProps(again, first); d != "" {
			t.Fatalf("table %s not stable across re-encode: %s", blob, d)
		}
	})
}
