// Package kgwire defines the JSON wire protocol spoken between a remote
// knowledge-graph server (internal/kgserve, cmd/kgd) and the HTTP client
// (internal/kgremote). Both sides share these types so the protocol cannot
// drift; everything is plain JSON over POST, versioned under /kg/v1/.
//
// Endpoints:
//
//	POST /kg/v1/resolve      ResolveRequest    → ResolveResponse
//	POST /kg/v1/entities     EntitiesRequest   → EntitiesResponse
//	POST /kg/v1/properties   PropertiesRequest → PropertiesResponse
//	GET  /kg/v1/stats                          → StatsResponse
//	GET  /healthz                              → 200 "ok" (no fault injection)
//
// All batch responses are index-aligned with their requests, mirroring the
// kg.Source contract. Errors are returned as plain-text bodies with HTTP
// status 400 (invalid request — never retried) or 500 (server fault —
// retryable).
package kgwire

import (
	"fmt"

	"nexus/internal/kg"
)

// Wire paths, shared by client and server.
const (
	PathResolve    = "/kg/v1/resolve"
	PathEntities   = "/kg/v1/entities"
	PathProperties = "/kg/v1/properties"
	PathStats      = "/kg/v1/stats"
)

// Value is the wire form of kg.Value: a tagged union keyed on Kind.
type Value struct {
	Kind string  `json:"kind"` // "num", "str", or "ent"
	Num  float64 `json:"num,omitempty"`
	Str  string  `json:"str,omitempty"`
	Ent  int32   `json:"ent,omitempty"`
}

// FromValue converts a kg.Value to its wire form.
func FromValue(v kg.Value) Value {
	switch v.Kind {
	case kg.NumValue:
		return Value{Kind: "num", Num: v.Num}
	case kg.StrValue:
		return Value{Kind: "str", Str: v.Str}
	default:
		return Value{Kind: "ent", Ent: int32(v.Ent)}
	}
}

// ToValue converts a wire value back to kg.Value.
func (v Value) ToValue() (kg.Value, error) {
	switch v.Kind {
	case "num":
		return kg.Num(v.Num), nil
	case "str":
		return kg.Str(v.Str), nil
	case "ent":
		return kg.Ent(kg.EntityID(v.Ent)), nil
	default:
		return kg.Value{}, fmt.Errorf("kgwire: unknown value kind %q", v.Kind)
	}
}

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

// Props is the wire form of kg.Props.
type Props map[string][]Value

// FromProps converts kg.Props to wire form.
func FromProps(p kg.Props) Props {
	out := make(Props, len(p))
	for k, vs := range p {
		ws := make([]Value, len(vs))
		for i, v := range vs {
			ws[i] = FromValue(v)
		}
		out[k] = ws
	}
	return out
}

// ToProps converts wire props back to kg.Props.
func (p Props) ToProps() (kg.Props, error) {
	out := make(kg.Props, len(p))
	for k, ws := range p {
		vs := make([]kg.Value, len(ws))
		for i, w := range ws {
			v, err := w.ToValue()
			if err != nil {
				return nil, err
			}
			vs[i] = v
		}
		out[k] = vs
	}
	return out, nil
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

// PropertiesResponse carries one property map per requested id,
// index-aligned.
type PropertiesResponse struct {
	Props []Props `json:"props"`
}

// StatsResponse reports server-side request counters, keyed by endpoint
// path, plus the number of injected faults.
type StatsResponse struct {
	Requests map[string]int64 `json:"requests"`
	Injected int64            `json:"injected_faults"`
}
