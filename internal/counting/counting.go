// Package counting is the unified contingency/group-by counting engine
// behind every tally loop of the scoring pipeline. The information-theoretic
// estimators (package infotheory), the fused online-prune screen, the
// composite-variable coding (JoinVars), the subgroup-lattice partitioner and
// table group-by all reduce to the same primitive: walk the rows once,
// skip incomplete cases, and accumulate optionally-IPW-weighted counts into
// a contingency table keyed by one, two or three dense code axes.
//
// Before this package each of those sites maintained its own loop — exactly
// where silent correctness drift breeds. Now they share:
//
//   - one composite dense-ID coding (IDs), the product indexing shared with
//     bins.Encoded codes and JoinVars, with a first-seen dense fallback when
//     the cardinality product leaves the dense bound; under the bound a
//     tally can take the composite as a column (Product) whose ids it
//     computes a run of rows at a time, never building the id vector;
//   - one dense-array fast path under MaxDense with a hash-map fallback,
//     gated identically everywhere so a call site can never disagree with
//     the estimator it feeds about which representation is in play;
//   - one pooled scratch (Release() recycling) so the hot paths — the online
//     prune runs a pass per surviving candidate, MCIMR a pass per considered
//     candidate per iteration — stop paying a GC churn of one allocation per
//     statistic. A pooled buffer is all zero whenever it is in the pool:
//     Release zeroes what the pass wrote, so grab hands it out as it is. A
//     three-way tally's finalize and Release cost the cells its rows filled,
//     not its domain: after the rows it lists its occupied strata and (z, y)
//     pairs (Occupancy), the finalize walks only those, and Release zeroes
//     only them (TestReleasedBuffersAreZero, infotheory's
//     TestTouchedFinalizeMatchesFullWalk);
//   - one missing-row convention (code < 0 is skipped; a row is counted by a
//     pass only when every axis of that pass is present) and one weight
//     convention (nil = uniform 1.0);
//   - two input forms for every column and weight vector (Dim, Weights):
//     one value per row, or one per entity slot read through the row→slot
//     map, so a knowledge-graph attribute is tallied from its slot codes and
//     slot weights without ever becoming an n-long vector.
//
// Bit-identity discipline: every Count* accumulation loop preserves the
// per-row visit order and the exact float-add sequence of the pre-migration
// loop it replaced, so the buffers it fills are bit-identical to the ones
// the old code built and every downstream finalize produces byte-identical
// statistics. The differential oracles live with the call sites
// (infotheory/oracle_test.go, table, subgroups); this package's own fuzz
// test (FuzzCountParity) pins dense path == map path == naive per-row tally
// cell for cell.
//
// The package is dependency-free except for the obs counter names, and all
// types operate on raw []int32 code columns so that package table (which
// bins depends on) can use it without an import cycle. Missing mirrors
// bins.Missing; the equality is pinned by a test in infotheory.
package counting

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"nexus/internal/obs"
)

// Missing is the code of a null value, mirroring bins.Missing. Any negative
// code is treated as missing by every pass.
const Missing int32 = -1

// MaxDense bounds the contingency-array size of the dense fast path; larger
// joint domains fall back to hash maps. It is also the bound of the
// composite-ID product coding (IDs). The value predates this package
// (infotheory's maxDense) and every dense/sparse gate in the pipeline keys
// off it, so changing it changes which representation — not which value —
// every statistic is computed with.
const MaxDense = 1 << 22

// Dim is one code column feeding a counting pass, in one of two input forms.
// Direct: row r's code is Codes[r]. Indirect (Slots set): Codes holds one
// code per entity slot and Slots is the row→slot map, so row r's code is
// Codes[Slots[r]], or Missing where Slots[r] < 0 (an unresolved row). Either
// way a code is in [0, Card) or negative for missing. A Dim with neither
// Codes nor Slots is the constant column: every row has code 0, the single
// stratum of an unconditioned pass (Card 1).
//
// A pass reads an indirect column through its map and never builds the
// n-long vector. It visits the same rows in the same order and adds the same
// weights as over the broadcast column, so every tally is bit-identical to
// the direct form's.
//
// A Dim with Parts is a composite column: row r's code is the product id of
// the parts' codes (IDs' product coding), computed a run of rows at a time
// inside the pass, so the n-long id vector is never built (see Product).
type Dim struct {
	Codes []int32
	Card  int
	Slots []int32
	Parts []Dim
}

// Product returns the composite of dims (two or more, each direct or
// indirect) as a Dim whose codes a pass computes run by run: the ids IDs
// would return, without the vector. It reports false where IDs would not use
// product ids — a zero card, or a product past MaxDense — and the caller
// then builds the ids. Like IDs it counts an id join.
func Product(dims []Dim) (Dim, bool) {
	product := 1
	for _, g := range dims {
		if g.Card == 0 {
			return Dim{}, false
		}
		if product *= g.Card; product > MaxDense {
			return Dim{}, false
		}
	}
	idJoins.Add(1)
	return Dim{Card: product, Parts: dims}, true
}

// Weights is a per-row weight vector in the same two forms: row r weighs
// W[r], or, with Slots set, W[Slots[r]] and 0 for an unresolved row — what
// broadcasting the slot weights to rows gives. A nil W weighs every row 1.
type Weights struct {
	W     []float64
	Slots []int32
}

// Rows returns w as a fresh row vector: a copy of W, or W broadcast through
// Slots; nil for uniform weights.
func (w Weights) Rows() []float64 {
	switch {
	case w.W == nil:
		return nil
	case w.Slots == nil:
		return append([]float64(nil), w.W...)
	}
	out := make([]float64, len(w.Slots))
	for r, s := range w.Slots {
		if s >= 0 {
			out[r] = w.W[s]
		}
	}
	return out
}

// rows returns how many rows d spans.
func (d Dim) rows() int {
	switch {
	case d.Parts != nil:
		n := 0
		for _, p := range d.Parts {
			n = max(n, p.rows())
		}
		return n
	case d.Slots != nil:
		return len(d.Slots)
	}
	return len(d.Codes)
}

func (d Dim) direct() bool { return d.Slots == nil && d.Codes != nil }

// runRows is how many rows a pass over an indirect input gathers at a time:
// the gathered columns then sit in L1 beside the tallies.
const runRows = 512

// zeros is the constant column's codes for one run.
var zeros [runRows]int32

// forRuns hands f the codes of dims (at most three) and the weights of the
// rows in order — every row, or the listed rows when list is non-nil — as
// direct slices, cols[j] belonging to dims[j]. When every input is direct and
// there is no list, the one run is the inputs themselves, so the direct form
// pays nothing; otherwise the rows are gathered, through each row→slot map
// and the list, into runs of at most runRows rows. Either way f sees the same
// rows in the same order, so a tally loop over the runs adds exactly the
// terms, in exactly the order, that it adds over the broadcast columns.
func forRuns(list []int32, dims []Dim, w Weights, f func(cols [3][]int32, w []float64)) {
	n := len(list)
	if list == nil {
		all := w.Slots == nil
		var cols [3][]int32
		for j, d := range dims {
			all = all && d.direct()
			cols[j] = d.Codes
			n = max(n, d.rows())
		}
		if all {
			f(cols, w.W)
			return
		}
	}
	gatherRuns(n, list, dims, w, f)
}

// runScratch is gatherRuns' buffers; pooled, because f may keep nothing but
// escape analysis cannot know it.
type runScratch struct {
	codes [3][runRows]int32
	w     [runRows]float64
}

var runPool = sync.Pool{New: func() any { return new(runScratch) }}

func gatherRuns(n int, list []int32, dims []Dim, w Weights, f func(cols [3][]int32, w []float64)) {
	sc := runPool.Get().(*runScratch)
	defer runPool.Put(sc)
	buf, wbuf := &sc.codes, &sc.w
	for lo := 0; lo < n; lo += runRows {
		hi := min(lo+runRows, n)
		var rows []int32
		if list != nil {
			rows = list[lo:hi]
		}
		var cols [3][]int32
		for j, d := range dims {
			cols[j] = d.gather(lo, hi, rows, buf[j][:])
		}
		f(cols, w.gather(lo, hi, rows, wbuf[:]))
	}
}

// gather returns the codes of rows [lo, hi) — of rows, list[lo:hi], when it
// is non-nil: a sub-slice of a direct column without a list, else the first
// hi−lo cells of buf filled.
func (d Dim) gather(lo, hi int, rows, buf []int32) []int32 {
	switch {
	case d.Parts != nil:
		return d.gatherProduct(lo, hi, rows, buf)
	case d.Codes == nil && d.Slots == nil:
		return zeros[:hi-lo]
	case d.Slots == nil && rows == nil:
		return d.Codes[lo:hi]
	case d.Slots == nil:
		buf = buf[:len(rows)]
		for i, r := range rows {
			buf[i] = d.Codes[r]
		}
		return buf
	case len(d.Codes) == 0: // no slot has a code
		buf = buf[:hi-lo]
		for i := range buf {
			buf[i] = Missing
		}
		return buf
	}
	src := d.Slots[lo:hi]
	if rows != nil { // the listed rows' slots, decoded in place below
		src = buf[:len(rows)]
		for i, r := range rows {
			src[i] = d.Slots[r]
		}
	}
	// Without a branch on the slot: an unresolved row (s < 0, so neg = -1)
	// reads slot 0 and ORs in all ones, which is Missing.
	codes := d.Codes
	buf = buf[:len(src)]
	for i, s := range src {
		neg := s >> 31
		buf[i] = codes[s&^neg] | neg
	}
	return buf
}

// gatherProduct is gather for a composite column: productIDs' fold over the
// parts' codes of the run.
func (d Dim) gatherProduct(lo, hi int, rows, buf []int32) []int32 {
	out := buf[:hi-lo]
	clear(out)
	var part [runRows]int32
	for _, g := range d.Parts {
		card := int32(g.Card)
		for i, c := range g.gather(lo, hi, rows, part[:]) {
			switch {
			case out[i] < 0:
			case c < 0:
				out[i] = -1
			default:
				out[i] = out[i]*card + c
			}
		}
	}
	return out
}

// gather is Dim.gather for weights; nil for uniform weights.
func (w Weights) gather(lo, hi int, rows []int32, buf []float64) []float64 {
	switch {
	case w.W == nil:
		return nil
	case w.Slots == nil && rows == nil:
		return w.W[lo:hi]
	case w.Slots == nil:
		buf = buf[:len(rows)]
		for i, r := range rows {
			buf[i] = w.W[r]
		}
		return buf
	case len(w.W) == 0: // no slot has a weight: every row is unresolved
		buf = buf[:hi-lo]
		clear(buf)
		return buf
	}
	// As Dim.gather, an unresolved row reads slot 0 and clears every bit,
	// which is +0.
	ws := w.W
	at := func(s int32) float64 {
		neg := int64(s >> 31)
		return math.Float64frombits(math.Float64bits(ws[s&^int32(neg)]) &^ uint64(neg))
	}
	if rows != nil {
		buf = buf[:len(rows)]
		for i, r := range rows {
			buf[i] = at(w.Slots[r])
		}
		return buf
	}
	src := w.Slots[lo:hi]
	buf = buf[:len(src)]
	for i, s := range src {
		buf[i] = at(s)
	}
	return buf
}

// ---------------------------------------------------------------------------
// Effort counters. Process-wide atomics: the kernel is called from parallel
// workers that cannot carry a per-run sink, so callers (core.Explain, the
// subgroup search) snapshot before/after and publish the delta into their
// trace. A window publishes every pass the process made over its span, so a
// pass made while two runs' windows are open is counted by both: a set fed
// by overlapping runs (a server's) over-counts, runs in sequence do not.

var (
	densePasses  atomic.Int64
	sparsePasses atomic.Int64
	idJoins      atomic.Int64
	partitions   atomic.Int64
)

// Counters is a snapshot of the kernel's process-wide effort counters.
type Counters struct {
	// DensePasses counts tally passes served by the dense-array fast path
	// (vector, pair, three-way and fused-screen passes alike); SparsePasses
	// counts hash-map fallback passes.
	DensePasses  int64
	SparsePasses int64
	// IDJoins counts composite dense-ID builds over ≥ 2 variables (the
	// JoinVars / conditioning-set coding).
	IDJoins int64
	// Partitions counts row-partition passes (the subgroup lattice's fused
	// child-size histogram, one per expanded node, and table group-by row
	// grouping).
	Partitions int64
}

// Stats returns the current counter snapshot.
func Stats() Counters {
	return Counters{
		DensePasses:  densePasses.Load(),
		SparsePasses: sparsePasses.Load(),
		IDJoins:      idJoins.Load(),
		Partitions:   partitions.Load(),
	}
}

// Delta returns c - prev, field by field.
func (c Counters) Delta(prev Counters) Counters {
	return Counters{
		DensePasses:  c.DensePasses - prev.DensePasses,
		SparsePasses: c.SparsePasses - prev.SparsePasses,
		IDJoins:      c.IDJoins - prev.IDJoins,
		Partitions:   c.Partitions - prev.Partitions,
	}
}

// Each calls f for every nonzero counter under its canonical obs name
// (counting_*). f is typically (*obs.Trace).Add or a wrapper over
// (*obs.Counters).Add.
func (c Counters) Each(f func(name string, v int64)) {
	if c.DensePasses != 0 {
		f(obs.CountingDensePasses, c.DensePasses)
	}
	if c.SparsePasses != 0 {
		f(obs.CountingSparsePasses, c.SparsePasses)
	}
	if c.IDJoins != 0 {
		f(obs.CountingIDJoins, c.IDJoins)
	}
	if c.Partitions != 0 {
		f(obs.CountingPartitions, c.Partitions)
	}
}

// ---------------------------------------------------------------------------
// Pooled scratch. One backing array per pass, carved into the pass's tally
// buffers; Release returns it for reuse. Invariant: a buffer in the pool is
// zero over its whole capacity. A new one is; Release zeroes what its pass
// wrote before it puts the buffer back — every cell, or for a three-way tally
// only its occupied cells (XYZ.Release) — so grab clears nothing. Without
// reuse the online prune's allocation churn is GBs per query and the GC
// becomes a top profile entry; without the invariant a wide conditioning set
// would pay a clear of its whole domain on every pass.

type scratch struct {
	buf []float64
	// occ holds the occupancy lists of the tallies carved from buf: one for a
	// three-way tally or a pair, two for a screen's two tests.
	occ [2]Occupancy
}

var pool = sync.Pool{New: func() any { return new(scratch) }}

// grab returns a float64 buffer of length need backed by the pool, zero by
// the pool's invariant: it clears nothing.
func grab(need int) *scratch {
	sc := pool.Get().(*scratch)
	if cap(sc.buf) < need {
		sc.buf = make([]float64, need)
	} else {
		sc.buf = sc.buf[:need]
	}
	return sc
}

// release zeroes the whole buffer and returns it to the pool.
func (sc *scratch) release() {
	if sc != nil {
		clear(sc.buf)
		pool.Put(sc)
	}
}

func weightAt(w []float64, i int) float64 {
	if w == nil {
		return 1
	}
	return w[i]
}

// ---------------------------------------------------------------------------
// Composite dense-ID coding.

// IDs maps each row to a dense id identifying the combination of codes of
// the given dimensions (-1 when any is missing), and returns the number of
// distinct ids. With no dimensions every row maps to id 0; with one the
// dimension's own codes are returned — its code column itself (aliased, not
// copied) in the direct form, read through the map in the indirect form.
// While the cardinality product stays within MaxDense the id is the direct
// product index (so incremental joins compose, see infotheory.JoinVars);
// beyond it observed combinations are numbered densely in first-seen order —
// the partition, and hence every downstream count, is unaffected. Indirect
// dimensions are read through their maps a run of rows at a time.
func IDs(dims []Dim, n int) (ids []int32, card int) {
	switch {
	case len(dims) == 0:
		return make([]int32, n), 1
	case len(dims) == 1 && dims[0].Slots == nil:
		return dims[0].Codes, max(dims[0].Card, 1)
	case len(dims) == 1:
		return productIDs(dims, n), max(dims[0].Card, 1)
	}
	idJoins.Add(1)
	// Try direct product indexing while the domain stays small.
	product := 1
	ok := true
	for _, g := range dims {
		if g.Card == 0 {
			ok = false
			break
		}
		product *= g.Card
		if product > MaxDense {
			ok = false
			break
		}
	}
	if ok {
		return productIDs(dims, n), product
	}
	// Fall back to dense assignment of observed combinations, in row order.
	ids = make([]int32, n)
	seen := make(map[string]int32)
	key := make([]byte, 0, len(dims)*4)
	cols := make([][]int32, len(dims))
	bufs := make([]int32, len(dims)*runRows)
	for lo := 0; lo < n; lo += runRows {
		hi := min(lo+runRows, n)
		for j, g := range dims {
			cols[j] = g.gather(lo, hi, nil, bufs[j*runRows:])
		}
	row:
		for i := range hi - lo {
			key = key[:0]
			for _, col := range cols {
				c := col[i]
				if c < 0 {
					ids[lo+i] = -1
					continue row
				}
				key = append(key, byte(c), byte(c>>8), byte(c>>16), byte(c>>24))
			}
			id, found := seen[string(key)]
			if !found {
				id = int32(len(seen))
				seen[string(key)] = id
			}
			ids[lo+i] = id
		}
	}
	return ids, max(len(seen), 1)
}

// productIDs is IDs' product indexing, id = (…(c₁·card₂ + c₂)…)·cardₖ + cₖ,
// folded one dimension at a time over a run of rows; the caller has checked
// that the product of the cards fits in MaxDense.
func productIDs(dims []Dim, n int) []int32 {
	ids := make([]int32, n)
	var buf [runRows]int32
	for lo := 0; lo < n; lo += runRows {
		hi := min(lo+runRows, n)
		out := ids[lo:hi]
		for _, g := range dims {
			card := int32(g.Card)
			for i, c := range g.gather(lo, hi, nil, buf[:]) {
				switch {
				case out[i] < 0:
				case c < 0:
					out[i] = -1
				default:
					out[i] = out[i]*card + c
				}
			}
		}
	}
	return ids
}

// ---------------------------------------------------------------------------
// One-axis pass.

// Vec is a weighted one-axis tally: Counts[c] is the weight of the rows with
// code c, Total their sum. Backed by pooled storage — call Release when done.
type Vec struct {
	Counts []float64
	Total  float64
	sc     *scratch
}

// CountVecOf tallies one code column, skipping missing rows.
func CountVecOf(x Dim, w Weights) Vec {
	densePasses.Add(1)
	sc := grab(x.Card)
	v := Vec{Counts: sc.buf, sc: sc}
	forRuns(nil, []Dim{x}, w, v.tally)
	return v
}

func (v *Vec) tally(cols [3][]int32, w []float64) {
	counts, total := v.Counts, v.Total
	for i, c := range cols[0] {
		if c < 0 {
			continue
		}
		wt := weightAt(w, i)
		counts[c] += wt
		total += wt
	}
	v.Total = total
}

// Release returns the tally storage to the pool; the Vec must not be read
// afterwards.
func (v *Vec) Release() {
	v.Counts = nil
	v.sc.release()
	v.sc = nil
}

// ---------------------------------------------------------------------------
// Two-axis pass with both margins.

// Pair is a weighted (x, e) tally with both margins: Joint[x*Ce+e],
// XMargin[x], EMargin[e] and the complete-case weight Total, all over rows
// where both axes are present. Backed by pooled storage — call Release when
// done.
type Pair struct {
	Cx, Ce  int
	Joint   []float64
	XMargin []float64
	EMargin []float64
	Total   float64
	sc      *scratch
}

func newPair(cx, ce int) Pair {
	sc := grab(cx*ce + cx + ce)
	buf := sc.buf
	cut := func(n int) []float64 { part := buf[:n:n]; buf = buf[n:]; return part }
	return Pair{Cx: cx, Ce: ce, Joint: cut(cx * ce), XMargin: cut(cx), EMargin: cut(ce), sc: sc}
}

// Occupancy returns the tally's occupancy as a one-stratum three-way tally
// (z = {Total}, y = e), in storage the Pair owns until Release.
func (p *Pair) Occupancy() *Occupancy {
	o := &p.sc.occ[0]
	o.fill([]float64{p.Total}, p.EMargin, p.Ce)
	return o
}

// Release returns the tally storage to the pool.
func (p *Pair) Release() {
	p.Joint, p.EMargin = nil, nil
	p.sc.release()
	p.sc = nil
}

// ---------------------------------------------------------------------------
// Three-axis pass (z strata × x × y) with all margins — the CMI tally.

// Cell is one (z, x, y) coordinate of a sparse three-axis tally.
type Cell struct{ Z, X, Y int32 }

// Occupancy lists the cells of a dense (z, x, y) tally that hold weight:
// Strata are the z with Z[z] ≠ 0, ascending, and Ys(i) are the y with
// ZY[z·Cy+y] ≠ 0 in stratum Strata[i], ascending. Every other cell is +0,
// because weights are never negative: a row of weight 0 adds +0 and leaves
// its margins at 0, and a NaN weight makes them NaN, which is ≠ 0. The lists
// are read off the margins once the rows are in — |Z| reads plus one ZY row
// per occupied stratum, nothing per row — and live in the pooled scratch, so
// filling them allocates only while a buffer's lists grow.
type Occupancy struct {
	Strata []int32
	ys     []int32 // the occupied y codes, stratum by stratum
	ends   []int32 // those of Strata[i] end at ys[ends[i]]
}

// Ys returns the occupied y codes of the stratum Strata[i], ascending.
func (o *Occupancy) Ys(i int) []int32 {
	lo := int32(0)
	if i > 0 {
		lo = o.ends[i-1]
	}
	return o.ys[lo:o.ends[i]]
}

// pairs returns the number of occupied (z, y) pairs.
func (o *Occupancy) pairs() int { return len(o.ys) }

// fill lists the occupancy of a tally with z margin z and (z, y) margin
// zy[z·cy+y], reusing o's storage; each list grows at most once, to its
// bound.
func (o *Occupancy) fill(z, zy []float64, cy int) {
	o.Strata = slices.Grow(o.Strata[:0], len(z))
	for zi, pz := range z {
		if pz != 0 {
			o.Strata = append(o.Strata, int32(zi))
		}
	}
	o.ends = slices.Grow(o.ends[:0], len(o.Strata))
	o.ys = slices.Grow(o.ys[:0], len(o.Strata)*cy)
	for _, zi := range o.Strata {
		for y, pzy := range zy[int(zi)*cy : (int(zi)+1)*cy] {
			if pzy != 0 {
				o.ys = append(o.ys, int32(y))
			}
		}
		o.ends = append(o.ends, int32(len(o.ys)))
	}
}

// XYZ is a weighted three-axis contingency tally with the zx, zy and z
// margins and the weight sums the debiased estimators need. Dense selects
// the representation: the array fields when true, the map fields when the
// joint domain exceeded MaxDense. Backed by pooled storage on the dense
// path — call Release when done (a no-op for the sparse representation). A
// dense tally lists the cells its rows filled (Occupancy): a finalize that
// walks only those, and Release, cost the cells filled, not |Z|·|X|·|Y|.
type XYZ struct {
	Dense         bool
	Cx, Cy, Zcard int
	Joint, ZX, ZY []float64 // dense: Joint[(z*Cx+x)*Cy+y], ZX[z*Cx+x], ZY[z*Cy+y]
	Z             []float64 // dense: Z[z]
	MJoint        map[Cell]float64
	MZX, MZY      map[[2]int32]float64
	MZ            map[int32]float64
	XSeen, YSeen  map[int32]struct{} // sparse only: distinct codes observed
	WeightSum     float64
	WeightSqSum   float64
	sc            *scratch
}

// CountXYZOf tallies x and y against the z strata (the conditioning column:
// one variable, or a pre-joined composite, see IDs), every input in either
// form. The dense path applies when the joint domain |Z|·|X|·|Y| is positive
// and within MaxDense — the same gate the pre-migration estimators used, so
// the fallback routes exactly the passes the old code sent to its hash-map
// tally.
func CountXYZOf(x, y, z Dim, w Weights) XYZ {
	t := newXYZ(x.Card, y.Card, z.Card)
	forRuns(nil, []Dim{x, y, z}, w, t.tally)
	t.occupy()
	return t
}

// occupy lists a dense tally's occupied cells once its rows are in.
func (t *XYZ) occupy() {
	if t.Dense {
		t.sc.occ[0].fill(t.Z, t.ZY, t.Cy)
	}
}

// Occupancy returns the occupied cells of a dense tally, in storage the XYZ
// owns until Release.
func (t *XYZ) Occupancy() *Occupancy { return &t.sc.occ[0] }

func newXYZ(cx, cy, zcard int) XYZ {
	if size := zcard * cx * cy; size > 0 && size <= MaxDense {
		return newDenseXYZ(cx, cy, zcard)
	}
	return newSparseXYZ(cx, cy, zcard)
}

// tally adds the rows of one run, cols = (x, y, z), in row order.
func (t *XYZ) tally(cols [3][]int32, w []float64) {
	x, y, zids := cols[0], cols[1], cols[2]
	if !t.Dense {
		for i := range zids {
			t.addSparse(zids[i], x[i], y[i], weightAt(w, i))
		}
		return
	}
	// Locals, not t's fields: a store into a tally could alias *t as far as
	// the compiler knows, which would reload every field per row.
	cx, cy := t.Cx, t.Cy
	joint, zx, zy, zm := t.Joint, t.ZX, t.ZY, t.Z
	ws, wsq := t.WeightSum, t.WeightSqSum
	for i := 0; i < len(zids); i++ {
		zi := zids[i]
		xc, yc := x[i], y[i]
		if zi < 0 || xc < 0 || yc < 0 {
			continue
		}
		wt := weightAt(w, i)
		joint[(int(zi)*cx+int(xc))*cy+int(yc)] += wt
		zx[int(zi)*cx+int(xc)] += wt
		zy[int(zi)*cy+int(yc)] += wt
		zm[zi] += wt
		ws += wt
		wsq += wt * wt
	}
	t.WeightSum, t.WeightSqSum = ws, wsq
}

func newDenseXYZ(cx, cy, zcard int) XYZ {
	densePasses.Add(1)
	need := zcard*cx*cy + zcard*cx + zcard*cy + zcard
	sc := grab(need)
	buf := sc.buf
	cut := func(n int) []float64 { part := buf[:n:n]; buf = buf[n:]; return part }
	t := XYZ{Dense: true, Cx: cx, Cy: cy, Zcard: zcard, sc: sc}
	t.Joint = cut(zcard * cx * cy)
	t.ZX = cut(zcard * cx)
	t.ZY = cut(zcard * cy)
	t.Z = cut(zcard)
	return t
}

func newSparseXYZ(cx, cy, zcard int) XYZ {
	sparsePasses.Add(1)
	return XYZ{
		Cx: cx, Cy: cy, Zcard: zcard,
		MJoint: make(map[Cell]float64),
		MZX:    make(map[[2]int32]float64),
		MZY:    make(map[[2]int32]float64),
		MZ:     make(map[int32]float64),
		XSeen:  make(map[int32]struct{}),
		YSeen:  make(map[int32]struct{}),
	}
}

// addSparse tallies one row into the map form; an incomplete row is skipped.
func (t *XYZ) addSparse(zi, xc, yc int32, wt float64) {
	if zi < 0 || xc < 0 || yc < 0 {
		return
	}
	t.MJoint[Cell{zi, xc, yc}] += wt
	t.MZX[[2]int32{zi, xc}] += wt
	t.MZY[[2]int32{zi, yc}] += wt
	t.MZ[zi] += wt
	t.XSeen[xc] = struct{}{}
	t.YSeen[yc] = struct{}{}
	t.WeightSum += wt
	t.WeightSqSum += wt * wt
}

// CountXYZRowsOf is CountXYZOf restricted to the listed rows, visited in
// slice order. Over an ascending list it adds, cell by cell, exactly the
// terms the full pass adds under a weight vector that is zero off the list (a
// zero-weight row adds +0.0 everywhere), so the dense tally is bit-identical
// to that masked pass at the cost of len(rows) visits instead of a table's.
// The sparse tally differs from it on purpose: only listed rows create cells,
// so no cell, margin or seen-set entry exists for a row outside the group.
// Direct inputs are read at the listed rows in place; an indirect input makes
// the pass gather every input's listed rows a run at a time.
func CountXYZRowsOf(x, y, z Dim, w Weights, rows []int32) XYZ {
	t := newXYZ(x.Card, y.Card, z.Card)
	t.tallyRows(x, y, z, w, rows)
	t.occupy()
	return t
}

func (t *XYZ) tallyRows(x, y, z Dim, w Weights, rows []int32) {
	if len(rows) == 0 {
		return // and not forRuns' every row
	}
	if !x.direct() || !y.direct() || !z.direct() || w.Slots != nil {
		forRuns(rows, []Dim{x, y, z}, w, t.tally)
		return
	}
	xs, ys, zids, cx, cy := x.Codes, y.Codes, z.Codes, x.Card, y.Card
	if !t.Dense {
		for _, r := range rows {
			t.addSparse(zids[r], xs[r], ys[r], weightAt(w.W, int(r)))
		}
		return
	}
	// Locals, as in tally.
	joint, zx, zy, zm := t.Joint, t.ZX, t.ZY, t.Z
	ws, wsq := t.WeightSum, t.WeightSqSum
	for _, r := range rows {
		zi, xc, yc := zids[r], xs[r], ys[r]
		if zi < 0 || xc < 0 || yc < 0 {
			continue
		}
		wt := weightAt(w.W, int(r))
		joint[(int(zi)*cx+int(xc))*cy+int(yc)] += wt
		zx[int(zi)*cx+int(xc)] += wt
		zy[int(zi)*cy+int(yc)] += wt
		zm[zi] += wt
		ws += wt
		wsq += wt * wt
	}
	t.WeightSum, t.WeightSqSum = ws, wsq
}

// Release returns the dense tally storage to the pool, zeroed; the XYZ must
// not be read afterwards. A no-op for the sparse representation (maps are
// simply garbage-collected).
func (t *XYZ) Release() {
	if t.sc == nil {
		return
	}
	t.zero()
	t.Joint, t.ZX, t.ZY, t.Z = nil, nil, nil, nil
	pool.Put(t.sc)
	t.sc = nil
}

// zero restores the pool's invariant: it zeroes the occupied strata's Z cell
// and ZX row, and the occupied pairs' ZY cell and Joint cells — the only
// cells the rows can have written — or clears the whole buffer when those
// are at least a quarter of it and a clear is the cheaper store.
func (t *XYZ) zero() {
	o := t.Occupancy()
	cx, cy := t.Cx, t.Cy
	if 4*(len(o.Strata)+o.pairs())*(1+cx) >= len(t.sc.buf) {
		clear(t.sc.buf)
		return
	}
	for i, z := range o.Strata {
		zi := int(z)
		t.Z[zi] = 0
		clear(t.ZX[zi*cx : (zi+1)*cx])
		ys := o.Ys(i)
		for _, y := range ys {
			t.ZY[zi*cy+int(y)] = 0
		}
		for x := range cx {
			row := t.Joint[(zi*cx+x)*cy : (zi*cx+x+1)*cy]
			for _, y := range ys {
				row[y] = 0
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Fused online-prune screen pass.

// Screen is the fused tally of the online prune's three statistics over one
// (o, t, e) triple — the FD entropies over (O,T,E) complete rows, the
// marginal O ⊥ E tallies over (O,E) complete rows, and the conditional
// O ⊥ E | T tallies over the (O,T,E) rows — all from a single pass in the
// same per-row order as the unfused estimators, so every statistic finalized
// from these buffers is bit-identical to its unfused counterpart. Backed by
// pooled storage — call Release once the verdicts have been read.
type Screen struct {
	Co, Ct, Ce int
	EO, ZE     []float64 // z = e margins over (O,T,E) complete rows (FD tests)
	JointT     []float64 // [(t·Co+o)·Ce+e] over (O,T,E) complete rows
	TO, TE, TM []float64 // z = t margins over the same rows (conditional test)
	WS3, WSQ3  float64   // weight sums over (O,T,E) complete rows
	OE         []float64 // [o·Ce+e] over (O,E) complete rows
	OM, EM     []float64
	WS2, WSQ2  float64
	sc         *scratch
}

// newScreen allocates the zeroed tallies of one screen, or returns nil when
// the joint domain leaves the dense bound (degenerate cards, ce·co > MaxDense
// or ce·co·ct > MaxDense) — exactly the condition under which the unfused
// estimators would abandon their dense path, so the caller's fallback routes
// precisely the candidates the unfused pipeline would have sent to the
// sparse estimator.
func newScreen(co, ct, ce int) *Screen {
	if co <= 0 || ct <= 0 || ce <= 0 {
		return nil
	}
	size := ce * co
	if size > MaxDense || size*ct > MaxDense {
		return nil
	}
	densePasses.Add(1)
	need := ce*co + ce + ct*co*ce + ct*co + ct*ce + ct + co*ce + co + ce
	sc := grab(need)
	buf := sc.buf
	cut := func(n int) []float64 { part := buf[:n:n]; buf = buf[n:]; return part }
	s := &Screen{Co: co, Ct: ct, Ce: ce, sc: sc}
	s.EO = cut(ce * co)
	s.ZE = cut(ce)
	s.JointT = cut(ct * co * ce)
	s.TO = cut(ct * co)
	s.TE = cut(ct * ce)
	s.TM = cut(ct)
	s.OE = cut(co * ce)
	s.OM = cut(co)
	s.EM = cut(ce)
	return s
}

// CountScreen is CountScreenOf over direct columns, the signature the
// benchmark harness calls; the pipeline calls CountScreenOf.
func CountScreen(o, t, e []int32, co, ct, ce int, w []float64) *Screen {
	return CountScreenOf(Dim{Codes: o, Card: co}, Dim{Codes: t, Card: ct}, Dim{Codes: e, Card: ce}, Weights{W: w})
}

// CountScreenOf runs the fused pass over the rows, or returns nil under
// newScreen's gate. It is the general kernel — any code column in either
// form, any weights; SlotCube.Screen is its aggregate form for unweighted
// per-slot codes.
func CountScreenOf(o, t, e Dim, w Weights) *Screen {
	s := newScreen(o.Card, t.Card, e.Card)
	if s == nil {
		return nil
	}
	forRuns(nil, []Dim{o, t, e}, w, s.tally)
	return s
}

// tally adds the rows of one run, cols = (o, t, e), in row order.
func (s *Screen) tally(cols [3][]int32, w []float64) {
	o, t, e := cols[0], cols[1], cols[2]
	co, ce := s.Co, s.Ce
	eo, zE := s.EO, s.ZE
	jointT, to, te, tM := s.JointT, s.TO, s.TE, s.TM
	oe, oM, eM := s.OE, s.OM, s.EM
	ws2, wsq2, ws3, wsq3 := s.WS2, s.WSQ2, s.WS3, s.WSQ3
	for i := 0; i < len(e); i++ {
		oc, tc, ec := o[i], t[i], e[i]
		if oc < 0 || ec < 0 {
			continue
		}
		oci, eci := int(oc), int(ec)
		wt := weightAt(w, i)
		oe[oci*ce+eci] += wt
		oM[oci] += wt
		eM[eci] += wt
		ws2 += wt
		wsq2 += wt * wt
		if tc < 0 {
			continue
		}
		tci := int(tc)
		eo[eci*co+oci] += wt
		zE[eci] += wt
		jointT[(tci*co+oci)*ce+eci] += wt
		to[tci*co+oci] += wt
		te[tci*ce+eci] += wt
		tM[tci] += wt
		ws3 += wt
		wsq3 += wt * wt
	}
	s.WS2, s.WSQ2, s.WS3, s.WSQ3 = ws2, wsq2, ws3, wsq3
}

// CondOccupancy returns the occupancy of the conditional test's tally
// (z = t: TM, TE) and MarginalOccupancy that of the one-stratum (O, E) tally
// (z = {WS2}: EM), each in storage the Screen owns until Release.
func (s *Screen) CondOccupancy() *Occupancy {
	o := &s.sc.occ[0]
	o.fill(s.TM, s.TE, s.Ce)
	return o
}

func (s *Screen) MarginalOccupancy() *Occupancy {
	o := &s.sc.occ[1]
	o.fill([]float64{s.WS2}, s.EM, s.Ce)
	return o
}

// Release returns the tally storage to the pool; the Screen must not be read
// afterwards.
func (s *Screen) Release() {
	if s == nil || s.sc == nil {
		return
	}
	s.EO, s.ZE = nil, nil
	s.JointT, s.TO, s.TE, s.TM = nil, nil, nil, nil
	s.OE, s.OM, s.EM = nil, nil, nil
	s.sc.release()
	s.sc = nil
}

// ---------------------------------------------------------------------------
// Row partitioning (group-by).

// Packed is a row-major matrix of the codes of several columns, built once
// so that every later pass over a row subset reads one short contiguous run
// per row instead of one scattered load per column. Cell (r, j) holds column
// j's code of row r plus one (0 = missing), in the narrowest unsigned width
// that fits the widest column.
type Packed struct {
	cols int
	off  []int // column j's histogram bins are [off[j], off[j+1]); bin 0 = missing
	u8   []uint8
	u16  []uint16
	u32  []uint32 // exactly one of u8, u16, u32 is set
}

// Pack builds the matrix over n rows. A code outside [0, Card) is an error:
// the histogram bins are sized from Card.
func Pack(dims []Dim, n int) (*Packed, error) {
	p := &Packed{cols: len(dims), off: make([]int, len(dims)+1)}
	widest := 0
	for j, d := range dims {
		p.off[j+1] = p.off[j] + d.Card + 1
		widest = max(widest, d.Card)
	}
	var err error
	switch {
	case widest < 1<<8:
		p.u8, err = packCells[uint8](dims, n)
	case widest < 1<<16:
		p.u16, err = packCells[uint16](dims, n)
	default:
		p.u32, err = packCells[uint32](dims, n)
	}
	return p, err
}

// Bins returns the histogram length Histogram needs.
func (p *Packed) Bins() int { return p.off[p.cols] }

// Column returns column j's part of a histogram, indexed by code.
func (p *Packed) Column(hist []int32, j int) []int32 { return hist[p.off[j]+1 : p.off[j+1]] }

// Histogram adds, for every column j ≥ from at once, the number of listed
// rows per code to hist — the sizes of all one-condition refinements of the
// row set from a single pass over it.
func (p *Packed) Histogram(rows []int32, from int, hist []int32) {
	partitions.Add(1)
	switch {
	case p.u8 != nil:
		histCells(p.u8, p.cols, p.off, rows, from, hist)
	case p.u16 != nil:
		histCells(p.u16, p.cols, p.off, rows, from, hist)
	default:
		histCells(p.u32, p.cols, p.off, rows, from, hist)
	}
}

// Select returns the listed rows whose column-j code is code, in input
// order. size is how many there are, as Histogram counted them.
func (p *Packed) Select(rows []int32, j int, code int32, size int) []int32 {
	switch {
	case p.u8 != nil:
		return selectCells(p.u8, p.cols, rows, j, uint8(code+1), size)
	case p.u16 != nil:
		return selectCells(p.u16, p.cols, rows, j, uint16(code+1), size)
	default:
		return selectCells(p.u32, p.cols, rows, j, uint32(code+1), size)
	}
}

type cell interface{ uint8 | uint16 | uint32 }

func packCells[C cell](dims []Dim, n int) ([]C, error) {
	cells := make([]C, n*len(dims))
	var buf [runRows]int32
	for j, d := range dims {
		for lo := 0; lo < n; lo += runRows {
			hi := min(lo+runRows, n)
			for i, c := range d.gather(lo, hi, nil, buf[:]) {
				if int(c) >= d.Card {
					return nil, fmt.Errorf("counting: column %d row %d has code %d outside [0, %d)", j, lo+i, c, d.Card)
				}
				if c >= 0 {
					cells[(lo+i)*len(dims)+j] = C(c + 1)
				}
			}
		}
	}
	return cells, nil
}

func histCells[C cell](cells []C, cols int, off []int, rows []int32, from int, hist []int32) {
	for _, r := range rows {
		row := cells[int(r)*cols : (int(r)+1)*cols]
		for j := from; j < cols; j++ {
			hist[off[j]+int(row[j])]++
		}
	}
}

// selectCells stores every row and advances past it only on a match, so the
// loop has no data-dependent branch around the store; it stops at size.
func selectCells[C cell](cells []C, cols int, rows []int32, j int, want C, size int) []int32 {
	out := make([]int32, size)
	k := 0
	for _, r := range rows {
		if k == size {
			break
		}
		out[k] = r
		if cells[int(r)*cols+j] == want {
			k++
		}
	}
	return out[:k]
}

// GroupRows partitions the row indices [0, len(ids)) by their dense group id
// (negative ids are skipped): rowsets[id] lists the id's rows in ascending
// order. The rowsets share one backing array — a two-pass fill, so the whole
// partition costs two allocations regardless of group count.
func GroupRows(ids []int32, card int) [][]int {
	partitions.Add(1)
	sizes := make([]int, card)
	total := 0
	for _, id := range ids {
		if id >= 0 {
			sizes[id]++
			total++
		}
	}
	backing := make([]int, total)
	rowsets := make([][]int, card)
	off := 0
	for g, n := range sizes {
		rowsets[g] = backing[off : off : off+n]
		off += n
	}
	for row, id := range ids {
		if id >= 0 {
			rowsets[id] = append(rowsets[id], row)
		}
	}
	return rowsets
}
