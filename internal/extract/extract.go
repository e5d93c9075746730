// Package extract mines candidate confounding attributes from a knowledge
// graph for the entities appearing in an input table (§3.1).
//
// Extraction is entity-level: each distinct value of a link column is
// resolved (package ned) to at most one entity, all reachable properties up
// to Options.Hops are flattened into per-entity attribute values (the
// universal relation), and row-level columns are materialized lazily, and
// only for the attributes that need one, by broadcasting through the
// row→entity mapping. This keeps extraction and encoding O(#entities) rather
// than O(#rows), which is what lets nexus explain the 5.8M-row Flights
// dataset in seconds.
package extract

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"nexus/internal/bins"
	"nexus/internal/kg"
	"nexus/internal/ned"
	"nexus/internal/obs"
	"nexus/internal/table"
)

// Options controls extraction.
type Options struct {
	// Hops is the property-path depth (paper default 1; §5.4 evaluates 2).
	Hops int
	// Trace, when non-nil, receives per-link-column NED and graph-walk
	// spans plus entity-linking and per-hop attribute counters.
	Trace *obs.Trace
}

// Attribute is one extracted candidate attribute. Values live at entity
// level (one row per slot of the link column); row-level views are produced
// on demand.
type Attribute struct {
	// Name is the flattened property name ("HDI", "Leader Age",
	// "Avg Population size of Ethnic Group", ...).
	Name string
	// LinkColumn is the base-table column whose entities carry the value.
	LinkColumn string
	// Hops is the path depth this attribute was extracted at (1-based).
	Hops int
	// Col holds the entity-level values, one row per slot.
	Col *table.Column

	rowSlot []int32 // shared per link column; base row → slot, -1 unresolved

	// Entity-level encoding cache: both prunes, the IPW detector and the
	// permutation tests all read the same entity column's encoding under the
	// same options; one binning pass serves them all.
	encMu  sync.Mutex
	encKey bins.Options
	entEnc *bins.Encoded
	entErr error
	encOK  bool
}

// Materialize broadcasts the entity-level values to a row-level column
// aligned with the base table.
func (a *Attribute) Materialize() *table.Column {
	out := table.NewColumn(a.Name, a.Col.Typ)
	for _, s := range a.rowSlot {
		if s < 0 || a.Col.IsNull(int(s)) {
			out.AppendNull()
			continue
		}
		switch a.Col.Typ {
		case table.Float:
			out.AppendFloat(a.Col.Float(int(s)))
		case table.String:
			out.AppendString(a.Col.StringAt(int(s)))
		case table.Int:
			v, _ := a.Col.Int(int(s))
			out.AppendInt(v)
		case table.Bool:
			v, _ := a.Col.BoolAt(int(s))
			out.AppendBool(v)
		}
	}
	return out
}

// Encode discretizes the attribute at entity level and broadcasts the codes
// to row level: a fresh n-long vector per call. Binning thresholds therefore
// reflect the entity-value distribution (documented deviation: pyitlib binned
// row-level, which differs only when group sizes are very uneven). The
// pipeline does not call it: the scoring core reads a candidate's entity form
// through the row→slot map, and a candidate broadcasts it (core.FromEntity),
// once, only for callers outside the core.
func (a *Attribute) Encode(opts bins.Options) (*bins.Encoded, error) {
	ent, err := a.EntityEncode(opts)
	if err != nil {
		return nil, err
	}
	out := ent.Broadcast(a.rowSlot)
	out.Name = a.Name
	return out, nil
}

// EntityEncode discretizes at entity level only (one code per slot). The
// result is cached per options and shared — callers must not mutate it.
func (a *Attribute) EntityEncode(opts bins.Options) (*bins.Encoded, error) {
	a.encMu.Lock()
	defer a.encMu.Unlock()
	if a.encOK && a.encKey == opts {
		return a.entEnc, a.entErr
	}
	a.entEnc, a.entErr = bins.Encode(a.Col, opts)
	a.encKey, a.encOK = opts, true
	return a.entEnc, a.entErr
}

// RowSlots exposes the base-row → entity-slot mapping (-1 = unresolved).
func (a *Attribute) RowSlots() []int32 { return a.rowSlot }

// WithColumn returns a copy of the attribute carrying a replacement
// entity-level column (same length and slot alignment). Used by the
// robustness harness to inject controlled missingness.
func (a *Attribute) WithColumn(col *table.Column) *Attribute {
	if col.Len() != a.Col.Len() {
		panic(fmt.Sprintf("extract: WithColumn length %d != %d", col.Len(), a.Col.Len()))
	}
	return &Attribute{
		Name:       a.Name,
		LinkColumn: a.LinkColumn,
		Hops:       a.Hops,
		Col:        col,
		rowSlot:    a.rowSlot,
	}
}

// Extraction is the result of mining a knowledge source.
type Extraction struct {
	Base  *table.Table
	Attrs []*Attribute
	// LinkStats records NED outcomes per link column (distinct values).
	LinkStats map[string]ned.Stats
}

// Attr returns the named attribute, or nil.
func (e *Extraction) Attr(name string) *Attribute {
	for _, a := range e.Attrs {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Names returns the attribute names in extraction order.
func (e *Extraction) Names() []string {
	out := make([]string, len(e.Attrs))
	for i, a := range e.Attrs {
		out[i] = a.Name
	}
	return out
}

// ExtractCtx mines attributes for the entities referenced by linkCols of
// base, honouring ctx: entity linking and graph walking check for
// cancellation between slots, so a deadline or a disconnected client stops
// the walk promptly. On cancellation the returned error wraps ctx.Err().
// Concurrent calls are safe as long as the linker's aliases are no longer
// being registered (linking uses the stateless ned.Linker.ResolveBatch).
//
// The source may be any kg.Source. A backend that also implements the local
// accessor surface (notably the in-memory *kg.Graph) is walked in place;
// any other backend — a remote graph — is first snapshotted with per-hop
// batched fetches (one GetProperties plus one Entities round trip per hop
// frontier per link column, and one Resolve round trip per link column), so
// remote extraction costs O(hops) round trips instead of O(entities).
// (The suffix stays until a benchmark PR can rename the call in
// bench/pipeline.go; there is no non-ctx form.)
func ExtractCtx(ctx context.Context, base *table.Table, linkCols []string, src kg.Source, linker *ned.Linker, opts Options) (*Extraction, error) {
	if opts.Hops <= 0 {
		opts.Hops = 1
	}
	res := &Extraction{Base: base, LinkStats: make(map[string]ned.Stats)}
	seenName := make(map[string]bool)

	for _, lc := range linkCols {
		col := base.Column(lc)
		if col == nil {
			return nil, fmt.Errorf("extract: link column %q not in table", lc)
		}
		if col.Typ != table.String {
			return nil, fmt.Errorf("extract: link column %q must be a string column", lc)
		}
		attrs, err := extractColumn(ctx, base, col, src, linker, opts, res)
		if err != nil {
			return nil, err
		}
		for _, a := range attrs {
			if seenName[a.Name] {
				a.Name = fmt.Sprintf("%s (%s)", a.Name, lc)
			}
			if seenName[a.Name] {
				continue // still colliding; drop
			}
			seenName[a.Name] = true
			res.Attrs = append(res.Attrs, a)
		}
	}
	if opts.Trace != nil {
		opts.Trace.Add(obs.KGAttrs, int64(len(res.Attrs)))
		for _, a := range res.Attrs {
			opts.Trace.Add(obs.HopCounter(a.Hops), 1)
		}
	}
	return res, nil
}

// cancelCheckStride is how many loop iterations the extraction hot loops run
// between context checks — frequent enough that a cancelled request stops
// within microseconds, rare enough that the atomic load in ctx.Err is free.
const cancelCheckStride = 256

// graphView is the local accessor surface the flattening walk reads. The
// in-memory *kg.Graph satisfies it natively; remote sources are first
// snapshotted into one (prefetchView) with per-hop batched fetches. Keeping
// the walk itself backend-agnostic is what guarantees a remote extraction
// is byte-identical to an in-memory one: both run the exact same
// flattening code, only the data transport differs.
type graphView interface {
	Properties(id kg.EntityID) []string
	Values(id kg.EntityID, prop string) []kg.Value
	Value(id kg.EntityID, prop string) (kg.Value, bool)
	Entity(id kg.EntityID) kg.Entity
}

func extractColumn(ctx context.Context, base *table.Table, col *table.Column, src kg.Source, linker *ned.Linker, opts Options, res *Extraction) ([]*Attribute, error) {
	n := col.Len()

	// Slot per distinct value; resolve each once, in one batched backend
	// round trip. Outcome statistics are counted locally (not on the
	// linker) so concurrent extractions over a shared linker do not race.
	var nsp *obs.Span
	if opts.Trace != nil {
		nsp = opts.Trace.Start("ned " + col.Name)
	}
	slotOf := make(map[string]int32)
	var slotVals []string // distinct values in first-appearance order
	rowSlot := make([]int32, n)
	for i := 0; i < n; i++ {
		if i%cancelCheckStride == 0 && ctx.Err() != nil {
			nsp.End()
			return nil, fmt.Errorf("extract: entity linking %q: %w", col.Name, ctx.Err())
		}
		if col.IsNull(i) {
			rowSlot[i] = -1
			continue
		}
		v := col.StringAt(i)
		s, ok := slotOf[v]
		if !ok {
			s = int32(len(slotVals))
			slotOf[v] = s
			slotVals = append(slotVals, v)
		}
		rowSlot[i] = s
	}
	resolved, err := linker.ResolveBatch(ctx, slotVals)
	if err != nil {
		nsp.End()
		return nil, fmt.Errorf("extract: entity linking %q: %w", col.Name, err)
	}
	var st ned.Stats
	slotEnt := make([]kg.EntityID, len(resolved)) // entity per slot, -1 unresolved
	for s, r := range resolved {
		st.Add(r.Outcome)
		slotEnt[s] = -1
		if r.Outcome == ned.Linked {
			slotEnt[s] = r.ID
		}
	}
	res.LinkStats[col.Name] = st
	st.Record(opts.Trace)
	nsp.SetInt("distinct-values", int64(len(slotOf)))
	nsp.SetInt("linked", int64(st.Linked))
	nsp.SetInt("unlinked", int64(st.Unlinked))
	nsp.SetInt("ambiguous", int64(st.Ambiguous))
	nsp.End()

	// Materialize a local view of everything the walk will touch. Local
	// backends are walked in place (zero copies); remote backends are
	// snapshotted with one batched fetch round per hop.
	gv, ok := src.(graphView)
	if !ok {
		var psp *obs.Span
		if opts.Trace != nil {
			psp = opts.Trace.Start("kg-prefetch " + col.Name)
		}
		snap, err := prefetchView(ctx, src, slotEnt, opts.Hops)
		if err != nil {
			psp.End()
			return nil, fmt.Errorf("extract: kg prefetch %q: %w", col.Name, err)
		}
		psp.SetInt("entities", int64(len(snap.props)))
		psp.End()
		gv = snap
	}

	// Flatten properties per slot into attribute builders.
	var wsp *obs.Span
	if opts.Trace != nil {
		wsp = opts.Trace.Start("kg-walk " + col.Name)
	}
	b := newBuilderSet(len(slotEnt))
	for s, ent := range slotEnt {
		if s%cancelCheckStride == 0 && ctx.Err() != nil {
			wsp.End()
			return nil, fmt.Errorf("extract: kg walk %q: %w", col.Name, ctx.Err())
		}
		if ent < 0 {
			continue
		}
		walkEntity(gv, ent, "", 1, opts.Hops, b, s)
	}
	attrs := b.build(col.Name, rowSlot)
	wsp.SetInt("hops", int64(opts.Hops))
	wsp.SetInt("attributes", int64(len(attrs)))
	wsp.End()
	return attrs, nil
}

// snapshotView is the prefetched neighborhood of one link column's
// entities: property maps plus the entity records referenced by
// single-valued entity properties. It implements graphView over in-process
// maps, so the walk never touches the network.
type snapshotView struct {
	props  map[kg.EntityID]kg.Props
	sorted map[kg.EntityID][]string
	ents   map[kg.EntityID]kg.Entity
}

func (s *snapshotView) Properties(id kg.EntityID) []string { return s.sorted[id] }

func (s *snapshotView) Values(id kg.EntityID, prop string) []kg.Value { return s.props[id][prop] }

func (s *snapshotView) Value(id kg.EntityID, prop string) (kg.Value, bool) {
	vs := s.props[id][prop]
	if len(vs) != 1 {
		return kg.Value{}, false
	}
	return vs[0], true
}

func (s *snapshotView) Entity(id kg.EntityID) kg.Entity { return s.ents[id] }

// prefetchView fetches, hop frontier by hop frontier, every property map
// and entity name the flattening walk can reach from roots within hops.
// Each hop costs one batched GetProperties call (the frontier's property
// maps) and one batched Entities call (names of newly referenced
// entities), independent of the frontier's size — the backend client is
// free to split oversized batches and fetch chunks concurrently.
func prefetchView(ctx context.Context, src kg.Source, roots []kg.EntityID, hops int) (*snapshotView, error) {
	snap := &snapshotView{
		props:  make(map[kg.EntityID]kg.Props),
		sorted: make(map[kg.EntityID][]string),
		ents:   make(map[kg.EntityID]kg.Entity),
	}
	frontier := make([]kg.EntityID, 0, len(roots))
	seen := make(map[kg.EntityID]bool)
	for _, id := range roots {
		if id >= 0 && !seen[id] {
			seen[id] = true
			frontier = append(frontier, id)
		}
	}
	for depth := 1; depth <= hops && len(frontier) > 0; depth++ {
		props, err := src.GetProperties(ctx, frontier)
		if err != nil {
			return nil, err
		}
		if len(props) != len(frontier) {
			return nil, fmt.Errorf("extract: backend returned %d property maps, want %d", len(props), len(frontier))
		}
		var nameIDs, next []kg.EntityID
		nameSeen := make(map[kg.EntityID]bool)
		nextSeen := make(map[kg.EntityID]bool)
		for i, id := range frontier {
			m := props[i]
			names := make([]string, 0, len(m))
			for p := range m {
				names = append(names, p)
			}
			sort.Strings(names)
			snap.props[id] = m
			snap.sorted[id] = names
			for _, p := range names {
				vs := m[p]
				for _, v := range vs {
					if v.Kind != kg.EntValue {
						continue
					}
					// Single-valued references become categorical
					// attributes at this depth: their names are needed.
					if len(vs) == 1 && !nameSeen[v.Ent] {
						if _, ok := snap.ents[v.Ent]; !ok {
							nameSeen[v.Ent] = true
							nameIDs = append(nameIDs, v.Ent)
						}
					}
					// Both single- and multi-valued reference targets are
					// read one hop deeper (recursive walk / numeric
					// sub-property aggregation).
					if depth < hops && !nextSeen[v.Ent] && snap.props[v.Ent] == nil {
						nextSeen[v.Ent] = true
						next = append(next, v.Ent)
					}
				}
			}
		}
		if len(nameIDs) > 0 {
			ents, err := src.Entities(ctx, nameIDs)
			if err != nil {
				return nil, err
			}
			if len(ents) != len(nameIDs) {
				return nil, fmt.Errorf("extract: backend returned %d entities, want %d", len(ents), len(nameIDs))
			}
			for i, id := range nameIDs {
				snap.ents[id] = ents[i]
			}
		}
		frontier = next
	}
	return snap, nil
}

// walkEntity flattens the properties of one entity into the builder set,
// recursing through entity-valued properties up to hops.
func walkEntity(g graphView, ent kg.EntityID, prefix string, depth, hops int, b *builderSet, slot int) {
	for _, prop := range g.Properties(ent) {
		vals := g.Values(ent, prop)
		if len(vals) == 0 {
			continue
		}
		name := prefix + prop
		switch {
		case len(vals) == 1 && vals[0].Kind == kg.NumValue:
			b.setNum(name, depth, slot, vals[0].Num)
		case len(vals) == 1 && vals[0].Kind == kg.StrValue:
			b.setStr(name, depth, slot, vals[0].Str)
		case len(vals) == 1 && vals[0].Kind == kg.EntValue:
			target := vals[0].Ent
			// The reference itself becomes a categorical attribute
			// (e.g. Currency = "Euro").
			b.setStr(name, depth, slot, g.Entity(target).Name)
			if depth < hops {
				walkEntity(g, target, name+" ", depth+1, hops, b, slot)
			}
		default:
			// Multi-valued property.
			if vals[0].Kind == kg.NumValue {
				nums := make([]float64, 0, len(vals))
				for _, v := range vals {
					if v.Kind == kg.NumValue {
						nums = append(nums, v.Num)
					}
				}
				b.setNum("Avg "+name, depth, slot, table.AggMean.Apply(nums))
				continue
			}
			// Multi-valued entity references: count at this hop, aggregate
			// numeric sub-properties one hop deeper.
			b.setNum("Num "+name, depth, slot, float64(len(vals)))
			if depth < hops {
				aggEntityTargets(g, vals, name, depth, b, slot)
			}
		}
	}
}

// aggEntityTargets averages the numeric sub-properties of a multi-valued
// entity property ("Avg Population size of Ethnic Group"), the one-to-many
// aggregate of §3.1.
func aggEntityTargets(g graphView, vals []kg.Value, name string, depth int, b *builderSet, slot int) {
	subVals := make(map[string][]float64)
	for _, v := range vals {
		if v.Kind != kg.EntValue {
			continue
		}
		for _, sub := range g.Properties(v.Ent) {
			if sv, ok := g.Value(v.Ent, sub); ok && sv.Kind == kg.NumValue {
				subVals[sub] = append(subVals[sub], sv.Num)
			}
		}
	}
	subs := make([]string, 0, len(subVals))
	for s := range subVals {
		subs = append(subs, s)
	}
	sort.Strings(subs)
	for _, sub := range subs {
		b.setNum("Avg "+sub+" of "+name, depth+1, slot, table.AggMean.Apply(subVals[sub]))
	}
}

// builderSet accumulates per-slot attribute values with per-attribute kind
// resolution (first value wins; later mismatched kinds become null).
type builderSet struct {
	slots int
	m     map[string]*builder
	order []string
}

type builder struct {
	hops  int
	isNum bool
	nums  []float64 // NaN = unset
	strs  []string  // "" = unset
}

func newBuilderSet(slots int) *builderSet {
	return &builderSet{slots: slots, m: make(map[string]*builder)}
}

func (bs *builderSet) get(name string, hops int, num bool) *builder {
	b, ok := bs.m[name]
	if !ok {
		b = &builder{hops: hops, isNum: num}
		if num {
			b.nums = makeNaN(bs.slots)
		} else {
			b.strs = make([]string, bs.slots)
		}
		bs.m[name] = b
		bs.order = append(bs.order, name)
	}
	return b
}

func (bs *builderSet) setNum(name string, hops, slot int, v float64) {
	b := bs.get(name, hops, true)
	if b.isNum {
		b.nums[slot] = v
	}
}

func (bs *builderSet) setStr(name string, hops, slot int, v string) {
	b := bs.get(name, hops, false)
	if !b.isNum {
		b.strs[slot] = v
	}
}

func (bs *builderSet) build(linkCol string, rowSlot []int32) []*Attribute {
	names := append([]string(nil), bs.order...)
	sort.Strings(names)
	out := make([]*Attribute, 0, len(names))
	for _, name := range names {
		b := bs.m[name]
		var col *table.Column
		if b.isNum {
			col = table.NewFloatColumn(name, b.nums)
		} else {
			col = table.NewStringColumn(name, b.strs)
		}
		out = append(out, &Attribute{
			Name:       name,
			LinkColumn: linkCol,
			Hops:       b.hops,
			Col:        col,
			rowSlot:    rowSlot,
		})
	}
	return out
}

func makeNaN(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.NaN()
	}
	return out
}
