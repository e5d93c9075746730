// Package kgwire defines the JSON wire protocol spoken between a remote
// knowledge-graph server (internal/kgserve, cmd/kgd) and the HTTP client
// (internal/kgremote). Both sides share these types so the protocol cannot
// drift; everything is plain JSON over POST, versioned under /kg/v2/.
//
// Endpoints:
//
//	POST /kg/v2/resolve      ResolveRequest    → ResolveResponse
//	POST /kg/v2/entities     EntitiesRequest   → EntitiesResponse
//	POST /kg/v2/properties   PropertiesRequest → PropertiesResponse
//	GET  /kg/v2/stats                          → StatsResponse
//	GET  /healthz                              → 200 "ok" (no fault injection)
//
// All batch responses are index-aligned with their requests, mirroring the
// kg.Source contract. A properties response is one columnar table rather
// than one JSON object per value: each property name and each string value
// crosses the wire once per response, and numbers cross as their IEEE-754
// bits, so every float64 — NaN, ±Inf and −0 included — arrives bit for bit.
// BuildProperties writes the table and PropertiesResponse.Rebuild reads it
// back. Errors are returned as plain-text bodies with HTTP status 400
// (invalid request — never retried) or 500 (server fault — retryable).
package kgwire

import (
	"encoding/binary"
	"fmt"
	"math"

	"nexus/internal/kg"
)

// Wire paths, shared by client and server.
const (
	PathResolve    = "/kg/v2/resolve"
	PathEntities   = "/kg/v2/entities"
	PathProperties = "/kg/v2/properties"
	PathStats      = "/kg/v2/stats"
)

// Entity is the wire form of kg.Entity.
type Entity struct {
	ID    int32  `json:"id"`
	Name  string `json:"name"`
	Class string `json:"class"`
}

// FromEntity converts kg.Entity to its wire form.
func FromEntity(e kg.Entity) Entity {
	return Entity{ID: int32(e.ID), Name: e.Name, Class: e.Class}
}

// ToEntity converts a wire entity back to kg.Entity.
func (e Entity) ToEntity() kg.Entity {
	return kg.Entity{ID: kg.EntityID(e.ID), Name: e.Name, Class: e.Class}
}

// Link is the wire form of kg.Link. Outcome is the integer value of
// kg.Outcome (0 Linked, 1 Unlinked, 2 Ambiguous).
type Link struct {
	ID      int32 `json:"id"`
	Outcome int   `json:"outcome"`
	Exact   bool  `json:"exact,omitempty"`
}

// FromLink converts kg.Link to its wire form.
func FromLink(l kg.Link) Link {
	return Link{ID: int32(l.ID), Outcome: int(l.Outcome), Exact: l.Exact}
}

// ToLink converts a wire link back to kg.Link.
func (l Link) ToLink() kg.Link {
	return kg.Link{ID: kg.EntityID(l.ID), Outcome: kg.Outcome(l.Outcome), Exact: l.Exact}
}

// ResolveRequest asks the server to resolve surface strings to entities.
type ResolveRequest struct {
	Values []string `json:"values"`
}

// ResolveResponse carries one link per requested value, index-aligned.
type ResolveResponse struct {
	Links []Link `json:"links"`
}

// EntitiesRequest asks for entity records by id.
type EntitiesRequest struct {
	IDs []int32 `json:"ids"`
}

// EntitiesResponse carries one entity per requested id, index-aligned.
type EntitiesResponse struct {
	Entities []Entity `json:"entities"`
}

// PropertiesRequest asks for the full property maps of entities by id.
type PropertiesRequest struct {
	IDs []int32 `json:"ids"`
}

// PropertiesResponse carries the property maps of the requested entities,
// index-aligned, as one table. Entity i owns the next Runs[i] runs; run j
// is the property Names[Props[j]] and owns the next Counts[j] values (one
// each when Counts is absent); value k is of kind Kinds[k] and takes its
// payload from the next slot of its column: 8 bytes of Nums for 'n', one
// Refs entry for 's' (a Strings index) and for 'e' (an entity id).
type PropertiesResponse struct {
	// Names and Strings are the response's property-name and string-value
	// tables; each name and each string appears in them once.
	Names   []string `json:"names"`
	Strings []string `json:"strings"`
	// Runs is the number of properties of each requested entity.
	Runs []int32 `json:"runs"`
	// Props is the Names index of each run.
	Props []int32 `json:"props"`
	// Counts is the number of values of each run, sent only when some run
	// holds other than one value.
	Counts []int32 `json:"counts,omitempty"`
	// Kinds holds one letter per value: 'n' number, 's' string, 'e' entity.
	Kinds string `json:"kinds"`
	// Nums holds the IEEE-754 bits of each number as a little-endian
	// uint64, in value order (base64 in JSON).
	Nums []byte `json:"nums"`
	// Refs holds, in value order, the Strings index of each string value
	// and the id of each entity value.
	Refs []int32 `json:"refs"`
}

// BuildProperties writes props, one map per requested entity, as a
// properties table. Values keep their order within a property; an
// entity's properties are listed in map iteration order.
func BuildProperties(props []kg.Props) PropertiesResponse {
	nRuns, nVals := 0, 0
	for _, p := range props {
		nRuns += len(p)
		for _, vs := range p {
			nVals += len(vs)
		}
	}
	r := PropertiesResponse{
		Runs:   make([]int32, len(props)),
		Props:  make([]int32, 0, nRuns),
		Counts: make([]int32, 0, nRuns),
	}
	kinds := make([]byte, 0, nVals)
	names, strs := make(map[string]int32), make(map[string]int32)
	single := true
	for i, p := range props {
		r.Runs[i] = int32(len(p))
		for name, vs := range p {
			r.Props = append(r.Props, intern(names, &r.Names, name))
			r.Counts = append(r.Counts, int32(len(vs)))
			single = single && len(vs) == 1
			for _, v := range vs {
				switch v.Kind {
				case kg.NumValue:
					kinds = append(kinds, 'n')
					r.Nums = binary.LittleEndian.AppendUint64(r.Nums, math.Float64bits(v.Num))
				case kg.StrValue:
					kinds = append(kinds, 's')
					r.Refs = append(r.Refs, intern(strs, &r.Strings, v.Str))
				default:
					kinds = append(kinds, 'e')
					r.Refs = append(r.Refs, int32(v.Ent))
				}
			}
		}
	}
	if single {
		r.Counts = nil
	}
	r.Kinds = string(kinds)
	return r
}

// intern returns s's index in table, appending it on first sight.
func intern(index map[string]int32, table *[]string, s string) int32 {
	i, ok := index[s]
	if !ok {
		i = int32(len(*table))
		index[s] = i
		*table = append(*table, s)
	}
	return i
}

// Rebuild reads the table back into one property map per requested entity.
// The maps share their name and string values with the table and their
// value slices with one another's backing array; like every kg.Source
// answer they are read-only. A table that breaks its own shape — a count
// that does not add up, an index out of range, an unknown kind, a value
// column too short or too long, a property listed twice for one entity —
// is an error, never a panic.
func (r *PropertiesResponse) Rebuild() ([]kg.Props, error) {
	nRuns := 0
	for _, n := range r.Runs {
		if n < 0 {
			return nil, fmt.Errorf("kgwire: negative run count %d", n)
		}
		nRuns += int(n)
	}
	if nRuns != len(r.Props) {
		return nil, fmt.Errorf("kgwire: runs add up to %d properties, table lists %d", nRuns, len(r.Props))
	}
	nVals := len(r.Props)
	if len(r.Counts) > 0 {
		if len(r.Counts) != len(r.Props) {
			return nil, fmt.Errorf("kgwire: %d value counts for %d properties", len(r.Counts), len(r.Props))
		}
		nVals = 0
		for _, c := range r.Counts {
			if c < 0 {
				return nil, fmt.Errorf("kgwire: negative value count %d", c)
			}
			nVals += int(c)
		}
	}
	if nVals != len(r.Kinds) {
		return nil, fmt.Errorf("kgwire: counts add up to %d values, kinds list %d", nVals, len(r.Kinds))
	}
	vals := make([]kg.Value, nVals)
	nums, refs := r.Nums, r.Refs
	for k := 0; k < len(r.Kinds); k++ {
		kind := r.Kinds[k]
		switch {
		case kind == 'n' && len(nums) >= 8:
			vals[k] = kg.Num(math.Float64frombits(binary.LittleEndian.Uint64(nums)))
			nums = nums[8:]
		case kind == 'n':
			return nil, fmt.Errorf("kgwire: number column ends before value %d", k)
		case (kind == 's' || kind == 'e') && len(refs) == 0:
			return nil, fmt.Errorf("kgwire: reference column ends before value %d", k)
		case kind == 's':
			s := refs[0]
			if s < 0 || int(s) >= len(r.Strings) {
				return nil, fmt.Errorf("kgwire: string index %d out of range [0,%d)", s, len(r.Strings))
			}
			vals[k] = kg.Str(r.Strings[s])
			refs = refs[1:]
		case kind == 'e':
			vals[k] = kg.Ent(kg.EntityID(refs[0]))
			refs = refs[1:]
		default:
			return nil, fmt.Errorf("kgwire: unknown value kind %q", kind)
		}
	}
	if len(nums) != 0 || len(refs) != 0 {
		return nil, fmt.Errorf("kgwire: %d number bytes and %d references left over", len(nums), len(refs))
	}
	out := make([]kg.Props, len(r.Runs))
	j, v := 0, 0
	for i, n := range r.Runs {
		m := make(kg.Props, n)
		for end := j + int(n); j < end; j++ {
			p := r.Props[j]
			if p < 0 || int(p) >= len(r.Names) {
				return nil, fmt.Errorf("kgwire: property index %d out of range [0,%d)", p, len(r.Names))
			}
			c := 1
			if len(r.Counts) > 0 {
				c = int(r.Counts[j])
			}
			m[r.Names[p]] = vals[v : v+c : v+c]
			v += c
		}
		if len(m) != int(n) {
			return nil, fmt.Errorf("kgwire: entity %d lists a property twice", i)
		}
		out[i] = m
	}
	return out, nil
}

// StatsResponse reports server-side request counters, keyed by endpoint
// path, plus the number of injected faults.
type StatsResponse struct {
	Requests map[string]int64 `json:"requests"`
	Injected int64            `json:"injected_faults"`
}
