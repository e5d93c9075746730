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
	"fmt"
	"sort"
)

// EntityID identifies an entity inside a Graph.
type EntityID int32

// ValueKind tags the variant held by a Value.
type ValueKind int

// Value kinds.
const (
	NumValue ValueKind = iota // numeric literal
	StrValue                  // string literal
	EntValue                  // reference to another entity
)

// Value is a property value: a numeric literal, a string literal, or an
// entity reference.
type Value struct {
	Kind ValueKind
	Num  float64
	Str  string
	Ent  EntityID
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
	// triples[entity][property] = values (one-to-many supported).
	triples []map[string][]Value
	// classProps caches the union of property names per class.
	classProps map[string]map[string]struct{}
	// numTriples is the total length of every triples value list, kept
	// current by Set, Add and Delete.
	numTriples int
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{
		byName:     make(map[string]EntityID),
		norm:       make(map[string][]EntityID),
		byClass:    make(map[string][]EntityID),
		classProps: make(map[string]map[string]struct{}),
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
	g.triples = append(g.triples, make(map[string][]Value))
	g.byName[name] = id
	key := Normalize(name)
	g.norm[key] = append(g.norm[key], id)
	g.byClass[class] = append(g.byClass[class], id)
	if g.classProps[class] == nil {
		g.classProps[class] = make(map[string]struct{})
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

// Set sets (replacing) the values of a property on an entity.
func (g *Graph) Set(id EntityID, prop string, vals ...Value) {
	g.numTriples += len(vals) - len(g.triples[id][prop])
	g.triples[id][prop] = vals
	g.classProps[g.entities[id].Class][prop] = struct{}{}
}

// Add appends a value to a (possibly multi-valued) property.
func (g *Graph) Add(id EntityID, prop string, v Value) {
	g.triples[id][prop] = append(g.triples[id][prop], v)
	g.numTriples++
	g.classProps[g.entities[id].Class][prop] = struct{}{}
}

// Delete removes a property from an entity (used for sparsity injection).
func (g *Graph) Delete(id EntityID, prop string) {
	g.numTriples -= len(g.triples[id][prop])
	delete(g.triples[id], prop)
}

// Values returns the values of prop on entity id (nil when absent).
func (g *Graph) Values(id EntityID, prop string) []Value {
	return g.triples[id][prop]
}

// Value returns the single value of prop on id; ok is false when the
// property is absent or multi-valued.
func (g *Graph) Value(id EntityID, prop string) (Value, bool) {
	vs := g.triples[id][prop]
	if len(vs) != 1 {
		return Value{}, false
	}
	return vs[0], true
}

// Properties returns the property names of an entity, sorted.
func (g *Graph) Properties(id EntityID) []string {
	props := make([]string, 0, len(g.triples[id]))
	for p := range g.triples[id] {
		props = append(props, p)
	}
	sort.Strings(props)
	return props
}

// ClassProperties returns the union of property names appearing on any
// entity of the class, sorted. This is the candidate attribute universe the
// extractor flattens into the universal relation.
func (g *Graph) ClassProperties(class string) []string {
	set := g.classProps[class]
	props := make([]string, 0, len(set))
	for p := range set {
		props = append(props, p)
	}
	sort.Strings(props)
	return props
}

// NumTriples returns the total number of (entity, property, value) triples.
func (g *Graph) NumTriples() int { return g.numTriples }
