// Package kg implements the knowledge-graph substrate: an in-memory triple
// store with typed property values (literals and entity references), plus a
// deterministic synthetic "DBpedia-like" world generator used by the
// experiments in place of the live DBpedia endpoint the paper queried.
//
// The generator plants the correlation structure the paper's examples rely
// on (development ↔ HDI/GDP/Gini, weather ↔ flight delay, net worth ↔
// celebrity pay, ...) along with realistic sparsity and selection bias, so
// extraction, IPW and MCIMR exercise the same code paths they would against
// the real graph.
package kg

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// EntityID identifies an entity inside a Graph.
type EntityID int32

// ValueKind tags the variant held by a Value.
type ValueKind uint8

// Value kinds.
const (
	NumValue ValueKind = iota // numeric literal
	StrValue                  // string literal
	EntValue                  // reference to another entity
)

// Value is a property value: a numeric literal, a string literal, or an
// entity reference. The fields are ordered so a Value packs into 32 bytes.
type Value struct {
	Num  float64
	Str  string
	Ent  EntityID
	Kind ValueKind
}

// Num returns a numeric literal value.
func Num(v float64) Value { return Value{Kind: NumValue, Num: v} }

// Str returns a string literal value.
func Str(v string) Value { return Value{Kind: StrValue, Str: v} }

// Ent returns an entity-reference value.
func Ent(id EntityID) Value { return Value{Kind: EntValue, Ent: id} }

// String renders the value for debugging.
func (v Value) String() string {
	switch v.Kind {
	case NumValue:
		return fmt.Sprintf("%g", v.Num)
	case StrValue:
		return v.Str
	default:
		return fmt.Sprintf("entity:%d", v.Ent)
	}
}

// Entity is a node in the graph.
type Entity struct {
	ID    EntityID
	Name  string
	Class string
}

// Graph is an in-memory triple store. It is not safe for concurrent
// mutation; reads may proceed concurrently after construction.
//
// Property names are interned once per graph. Each entity keeps its
// properties as runs in property-name order, each run naming a contiguous
// stretch of the entity's one value arena; runs hold no pointers, so the
// garbage collector never scans them. Slices handed out by Values and
// GetProperties are windows onto an arena and must be treated as
// read-only.
type Graph struct {
	entities []Entity
	byName   map[string]EntityID
	// norm indexes entities by normalized name (≥2 entries = ambiguous);
	// maintained incrementally so Resolve never scans.
	norm map[string][]EntityID
	// byClass indexes entity ids by class in insertion order; maintained
	// incrementally so EntitiesOfClass never scans (NED indexing and the
	// world generators call it repeatedly).
	byClass map[string][]EntityID
	// props[entity] holds the entity's properties.
	props []entityProps
	// The property vocabulary: names[p] is the name of property id p,
	// propID inverts it, and rank[p] is the position of names[p] in name
	// order (byRank lists the ids in that order). A new name shifts the
	// ranks after it but never reorders the names already there, so runs
	// stay sorted.
	names  []string
	propID map[string]int32
	rank   []int32
	byRank []int32
	// classProps records the property ids seen per class.
	classProps map[string]map[int32]struct{}
	// numTriples is the total number of values across every run, kept
	// current by Set, Add and Delete.
	numTriples int
}

// entityProps is one entity's properties: runs sorted by property rank over
// a value arena. Arena slots no run covers are holes; dead counts them, and
// the arena is rebuilt once they reach a quarter of it.
type entityProps struct {
	runs []run
	vals []Value
	dead int
}

// run places one property's values at vals[off : off+n] of its entity's
// arena. It is 12 bytes and pointer-free. A run with no values may keep a
// stale off; no off ever exceeds the arena's capacity, which only compact
// lowers, and compact reassigns every off.
type run struct {
	prop, off, n int32
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{
		byName:     make(map[string]EntityID),
		norm:       make(map[string][]EntityID),
		byClass:    make(map[string][]EntityID),
		propID:     make(map[string]int32),
		classProps: make(map[string]map[int32]struct{}),
	}
}

// Version implements the Versioned capability for the in-memory graph: a
// content-shape fingerprint over the entity and triple counts. Every
// AddEntity/Set/Add/Delete changes one of the counts in practice (the
// synthetic worlds only grow), so the serving tier can key report caches
// on it; replacing values in place at constant counts needs a restart of
// the serving daemon instead. Both counts are maintained, not scanned.
func (g *Graph) Version() string {
	return fmt.Sprintf("mem:%d:%d", g.NumEntities(), g.NumTriples())
}

// AddEntity registers an entity with a unique name and a class, returning
// its id. Adding a name twice returns the existing id.
func (g *Graph) AddEntity(name, class string) EntityID {
	if id, ok := g.byName[name]; ok {
		return id
	}
	id := EntityID(len(g.entities))
	g.entities = append(g.entities, Entity{ID: id, Name: name, Class: class})
	g.props = append(g.props, entityProps{})
	g.byName[name] = id
	key := Normalize(name)
	g.norm[key] = append(g.norm[key], id)
	g.byClass[class] = append(g.byClass[class], id)
	if g.classProps[class] == nil {
		g.classProps[class] = make(map[int32]struct{})
	}
	return id
}

// Lookup returns the entity id registered under the exact name.
func (g *Graph) Lookup(name string) (EntityID, bool) {
	id, ok := g.byName[name]
	return id, ok
}

// Entity returns the entity record for id.
func (g *Graph) Entity(id EntityID) Entity { return g.entities[id] }

// NumEntities returns the number of entities.
func (g *Graph) NumEntities() int { return len(g.entities) }

// EntitiesOfClass returns the ids of all entities of the given class, in
// insertion order. The result is served from a per-class index maintained
// by AddEntity (no entity scan) and is a copy the caller may mutate.
func (g *Graph) EntitiesOfClass(class string) []EntityID {
	ids := g.byClass[class]
	if len(ids) == 0 {
		return nil
	}
	return append([]EntityID(nil), ids...)
}

// intern returns the vocabulary id of a property name, adding the name
// when it is new.
func (g *Graph) intern(name string) int32 {
	if p, ok := g.propID[name]; ok {
		return p
	}
	p := int32(len(g.names))
	g.names = append(g.names, name)
	g.propID[name] = p
	pos, _ := slices.BinarySearchFunc(g.byRank, name, func(q int32, name string) int {
		return strings.Compare(g.names[q], name)
	})
	g.byRank = slices.Insert(g.byRank, pos, p)
	g.rank = append(g.rank, 0)
	for i := pos; i < len(g.byRank); i++ {
		g.rank[g.byRank[i]] = int32(i)
	}
	return p
}

// find returns the index of property id p in runs, or where it would be
// inserted, and whether it is there.
func (g *Graph) find(runs []run, p int32) (int, bool) {
	r := g.rank[p]
	i, j := 0, len(runs)
	for i < j {
		h := int(uint(i+j) >> 1)
		if g.rank[runs[h].prop] < r {
			i = h + 1
		} else {
			j = h
		}
	}
	return i, i < len(runs) && runs[i].prop == p
}

// lookup returns the index of prop in e.runs, and whether it is there.
func (g *Graph) lookup(e *entityProps, prop string) (int, bool) {
	p, ok := g.propID[prop]
	if !ok {
		return 0, false
	}
	return g.find(e.runs, p)
}

// at returns the values of run r, capacity-limited so that an append by
// the caller reallocates instead of overwriting the arena.
func (e *entityProps) at(r run) []Value {
	return e.vals[r.off : r.off+r.n : r.off+r.n]
}

// runFor returns the run of property prop on entity e, inserting an empty
// one at the end of the arena when the property is absent.
func (g *Graph) runFor(e *entityProps, id EntityID, prop string) *run {
	p := g.intern(prop)
	g.classProps[g.entities[id].Class][p] = struct{}{}
	i, ok := g.find(e.runs, p)
	if !ok {
		e.runs = slices.Insert(e.runs, i, run{prop: p, off: int32(len(e.vals))})
	}
	return &e.runs[i]
}

// free turns n arena slots at off into a hole (or trims them off the end
// of the arena), dropping their references.
func (e *entityProps) free(off, n int32) {
	clear(e.vals[off : off+n])
	if int(off+n) == len(e.vals) {
		e.vals = e.vals[:off]
		return
	}
	e.dead += int(n)
}

// compact rebuilds the arena without holes, and the runs without spare
// capacity, once the holes reach a quarter of the arena; each rebuild is
// paid for by the frees since the last one.
func (e *entityProps) compact() {
	if e.dead == 0 || 4*e.dead < len(e.vals) {
		return
	}
	vals := make([]Value, 0, len(e.vals)-e.dead)
	runs := make([]run, len(e.runs))
	for i, r := range e.runs {
		runs[i] = run{prop: r.prop, off: int32(len(vals)), n: r.n}
		vals = append(vals, e.at(r)...)
	}
	e.runs, e.vals, e.dead = runs, vals, 0
}

// Set sets (replacing) the values of a property on an entity. The values
// are copied into the graph.
func (g *Graph) Set(id EntityID, prop string, vals ...Value) {
	e := &g.props[id]
	r := g.runFor(e, id, prop)
	n := int32(len(vals))
	g.numTriples += len(vals) - int(r.n)
	switch {
	case n <= r.n:
		copy(e.vals[r.off:r.off+n], vals)
		e.free(r.off+n, r.n-n)
	case int(r.off+r.n) == len(e.vals):
		e.vals = append(e.vals[:r.off], vals...)
	default:
		e.free(r.off, r.n)
		r.off = int32(len(e.vals))
		e.vals = append(e.vals, vals...)
	}
	r.n = n
	e.compact()
}

// Add appends a value to a (possibly multi-valued) property.
func (g *Graph) Add(id EntityID, prop string, v Value) {
	e := &g.props[id]
	r := g.runFor(e, id, prop)
	if int(r.off+r.n) != len(e.vals) {
		off := int32(len(e.vals))
		e.vals = append(e.vals, e.at(*r)...)
		e.free(r.off, r.n)
		r.off = off
	}
	e.vals = append(e.vals, v)
	r.n++
	g.numTriples++
	e.compact()
}

// Delete removes a property from an entity (used for sparsity injection).
// Its arena slots are given back.
func (g *Graph) Delete(id EntityID, prop string) {
	e := &g.props[id]
	i, ok := g.lookup(e, prop)
	if !ok {
		return
	}
	r := e.runs[i]
	g.numTriples -= int(r.n)
	e.free(r.off, r.n)
	e.runs = slices.Delete(e.runs, i, i+1)
	e.compact()
}

// Values returns the values of prop on entity id (nil when absent). The
// slice is a read-only window onto the graph: its capacity ends with the
// property, so an append by the caller copies instead of overwriting the
// next property's values.
func (g *Graph) Values(id EntityID, prop string) []Value {
	e := &g.props[id]
	i, ok := g.lookup(e, prop)
	if !ok {
		return nil
	}
	return e.at(e.runs[i])
}

// Value returns the single value of prop on id; ok is false when the
// property is absent or multi-valued.
func (g *Graph) Value(id EntityID, prop string) (Value, bool) {
	e := &g.props[id]
	i, ok := g.lookup(e, prop)
	if !ok || e.runs[i].n != 1 {
		return Value{}, false
	}
	return e.vals[e.runs[i].off], true
}

// Properties returns the property names of an entity, sorted.
func (g *Graph) Properties(id EntityID) []string {
	runs := g.props[id].runs
	props := make([]string, len(runs))
	for i, r := range runs {
		props[i] = g.names[r.prop]
	}
	return props
}

// ClassProperties returns the union of property names appearing on any
// entity of the class, sorted. This is the candidate attribute universe the
// extractor flattens into the universal relation.
func (g *Graph) ClassProperties(class string) []string {
	set := g.classProps[class]
	ids := make([]int32, 0, len(set))
	for p := range set {
		ids = append(ids, p)
	}
	slices.SortFunc(ids, func(a, b int32) int { return cmp.Compare(g.rank[a], g.rank[b]) })
	props := make([]string, len(ids))
	for i, p := range ids {
		props[i] = g.names[p]
	}
	return props
}

// NumTriples returns the total number of (entity, property, value) triples.
func (g *Graph) NumTriples() int { return g.numTriples }
