// Package subgroups implements Algorithm 2 of the paper (§4.3): finding the
// top-k largest data subgroups — context refinements of the query — for
// which a given explanation is NOT satisfactory (its explanation score
// I(O;T|C',E) exceeds a threshold τ). The refinement lattice is traversed
// best-first by group size with a max-heap, generating each node at most
// once and pruning descendants of qualifying groups.
//
// The traversal is batch-parallel: the scoring of frontier nodes — the only
// expensive step, one debiased-CMI evaluation per node — runs on a worker
// pool, while every traversal decision (pop order, expansion, result
// insertion, stop conditions) is replayed on a single goroutine in exactly
// the serial order. Output is therefore byte-identical at any Parallelism;
// see TopUnexplained.
//
// A node whose every condition, and the explanation, is a function of one
// link column's entity slot (a slot node) is carried as its list of slots:
// its size, its children's sizes and its score are read off the slots and
// the column's (slot, O, T) cube, not off its rows (see TopUnexplained).
//
// The search reports its span and counters to the trace on ctx alone.
package subgroups

import (
	"container/heap"
	"context"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nexus/internal/bins"
	"nexus/internal/core"
	"nexus/internal/counting"
	"nexus/internal/infotheory"
	"nexus/internal/obs"
)

// RefinementAttr is a categorical attribute usable as a refinement
// dimension (numeric attributes are assumed pre-binned, per §4.3).
type RefinementAttr struct {
	Name string
	// Enc is the attribute over the analysis view in the form it is held: one
	// code per row for an input column; for a knowledge-graph attribute its
	// entity form, one code per slot of the link column it is reached through
	// under that column's row→slot map (bins.Encoded.Slots, shared by every
	// attribute of the column: the same backing array).
	Enc *bins.Encoded
}

// Assignment is one attr = value condition of a refinement.
type Assignment struct {
	AttrIdx int
	Attr    string
	Code    int32
	Value   string
}

// Group is a context refinement with its size and explanation score.
type Group struct {
	Conds []Assignment
	Size  int
	// Score is I(O;T|C',E) — above τ means the explanation fails here.
	Score float64
}

// String renders the refinement like "Continent == Europe".
func (g Group) String() string {
	parts := make([]string, len(g.Conds))
	for i, c := range g.Conds {
		parts[i] = fmt.Sprintf("%s == %s", c.Attr, c.Value)
	}
	return strings.Join(parts, " AND ")
}

// isAncestorOf reports whether g's conditions are a strict subset of
// other's.
func (g Group) isAncestorOf(other Group) bool {
	if len(g.Conds) >= len(other.Conds) {
		return false
	}
	have := make(map[[2]int32]bool, len(other.Conds))
	for _, c := range other.Conds {
		have[[2]int32{int32(c.AttrIdx), c.Code}] = true
	}
	for _, c := range g.Conds {
		if !have[[2]int32{int32(c.AttrIdx), c.Code}] {
			return false
		}
	}
	return true
}

// Options controls the search.
type Options struct {
	// K is the number of groups to return (default 5, as in Table 4).
	K int
	// Tau is the explanation-score threshold; groups scoring above it are
	// unexplained.
	Tau float64
	// Parallelism bounds the scoring workers (default GOMAXPROCS). It also
	// sets the frontier batch size (Parallelism × 4 heap nodes are scored
	// per batch); 1 scores each node inline on pop, with no goroutines.
	// Results and Stats are identical at any setting.
	Parallelism int
}

// Stats reports search effort. Every field is schedule-independent: it
// follows from the serial traversal order alone, not from the speculative
// scoring work (which the groups_scored counter tracks and which grows with
// Parallelism).
type Stats struct {
	Explored int // nodes whose score was consumed by the traversal
	// Pushed counts the nodes pushed onto the heap: the refinements of
	// expanded nodes that pass the minimum size, refine their parent and were,
	// when generated, still within reach of the maxExplored budget.
	Pushed int
	// Exhausted reports that the heap emptied before maxExplored was spent,
	// so every refinement up to maxDepth was consumed or lies under a
	// returned group: search.expand leaves a child unpushed only when the
	// budget would end the search before its turn.
	Exhausted bool
}

// The lattice bounds of Algorithm 2.
const (
	// maxDepth bounds refinement depth.
	maxDepth = 3
	// minSizeFloor is the least a group's minimum size can be: groups
	// smaller than 1% of the rows, or than minSizeFloor, are skipped — tiny
	// groups have meaningless CMI estimates.
	minSizeFloor = 10
	// maxExplored caps the number of lattice nodes the traversal consumes.
	// When the explanation holds everywhere, the exhaustive traversal is
	// polynomial but large; the cap keeps the search interactive — in
	// practice unexplained groups surface within a handful of nodes (§5.4).
	// It is also what bounds the frontier: a child that the remaining budget
	// cannot reach is never pushed (see search.expand).
	maxExplored = 1500
)

// batchFactor sizes the frontier batch: up to Parallelism × batchFactor
// heap nodes are scored per round. A factor > 1 amortizes the pool
// start/join over more work per round; nodes scored beyond the ones the
// traversal consumes are wasted speculation, so the factor stays small.
const batchFactor = 4

// TopUnexplained runs Algorithm 2: it returns the k largest context
// refinements whose explanation score exceeds τ, together with search
// statistics. Cancellation is checked before every batch and between worker
// evaluations, so a deadline or an abandoned request stops the search within
// one CMI evaluation per worker. On cancellation the returned error wraps
// ctx.Err() and no worker goroutines outlive the call.
//
// The traversal is parallel but its output is byte-identical to the serial
// one at any Options.Parallelism. The argument:
//
//   - The heap's comparison is a total order (size, then depth, then the
//     (AttrIdx, Code) condition sequence — no two distinct nodes tie), so
//     the minimum is unique and the pop sequence depends only on the heap's
//     contents, never on the physical array layout batching reshuffles.
//   - Scoring batches pop the top nodes, score the not-yet-scored ones
//     concurrently (the score is stored on the node), and push every node
//     back — the contents are unchanged, so the consume order is unchanged.
//   - A node's score is a pure function of its row list (of a slot node's
//     slot list), and the list is the same ascending one whichever worker
//     carves it from the parent's: each evaluation runs the same float
//     operations in the same order, so stored scores are bit-identical to
//     serially computed ones.
//   - All state transitions — Explored counting, τ comparison, ancestor
//     suppression, child expansion and the reachability cut, the K and
//     maxExplored stop conditions — happen on one goroutine, consuming
//     stored scores in pop order.
//
// Only scheduling-effort counters (subgroup_batches, groups_scored,
// subgroup_rows_visited, subgroup_slot_scored) vary with Parallelism;
// results and Stats do not.
//
// Every dimension and explanation attribute is read in its own form: a
// row-level column, or a knowledge-graph attribute's entity form
// (bins.Encoded.Slots). A node whose conditions are all on dimensions of one
// link column, when the explanation is empty or every explanation attribute
// is on that column too, is a slot node (see search.child): it is carried as
// the ascending list of the slots that satisfy its conditions, sized by rows
// per slot and scored by folding the column's (slot, O, T) cube
// (counting.SlotCube.FoldSlots) through the explanation's stratum per slot.
// Unweighted counts are integers, so the folded tally is the row tally cell
// for cell and the score is math.Float64bits-equal: the groups and Stats are
// those of the same attributes broadcast to rows.
func TopUnexplained(ctx context.Context, t, o *bins.Encoded, explanation []*bins.Encoded, attrs []RefinementAttr, opts Options) ([]Group, Stats, error) {
	return topUnexplained(ctx, t, o, explanation, attrs, opts, max(t.Len()/100, minSizeFloor), maxExplored, nil)
}

// topUnexplained is TopUnexplained with the minimum group size and the node
// budget as parameters, for tests; consumed, when non-nil, observes every
// node the traversal consumes, in order (the cut-exactness test's probe).
func topUnexplained(ctx context.Context, t, o *bins.Encoded, explanation []*bins.Encoded, attrs []RefinementAttr, opts Options, minSize, explored int, consumed func(Group)) ([]Group, Stats, error) {
	if opts.K <= 0 {
		opts.K = 5
	}
	if opts.Parallelism <= 0 {
		opts.Parallelism = runtime.GOMAXPROCS(0)
	}
	tr := obs.TraceFrom(ctx)
	sp := tr.Start("subgroup-search")
	defer sp.End()
	// Publish the search's counting-kernel effort (dense/sparse passes, ID
	// joins, partitions) as the delta of the kernel's process-wide counters
	// over this call. The capture windows never nest: core.Explain (the
	// only other capture site) and the subgroup search are sibling phases,
	// so a call counts no pass twice.
	countBase := counting.Stats()
	defer func() { counting.Stats().Delta(countBase).Each(tr.Add) }()

	s, err := newSearch(t, o, explanation, attrs, &opts, minSize, explored)
	if err != nil {
		return nil, Stats{}, err
	}
	if len(explanation) > 1 {
		tr.Add(obs.CompositeRebuilds, 1)
	}
	// Where the time goes, without a span per batch or expansion.
	var scoreDur, expandDur time.Duration
	defer func() {
		tr.Add(obs.SubgroupRowsVisited, s.visited.Load())
		tr.Add(obs.SubgroupSlotScored, s.slotScored.Load())
		sp.SetFloat("score-ms", float64(scoreDur)/float64(time.Millisecond))
		sp.SetFloat("expand-ms", float64(expandDur)/float64(time.Millisecond))
		sp.SetInt("slot-nodes", s.slotScored.Load())
	}()

	start := time.Now()
	s.expand(s.root())
	expandDur += time.Since(start)

	var results []Group
	for s.heap.Len() > 0 && len(results) < opts.K && s.stats.Explored < explored {
		if err := ctx.Err(); err != nil {
			return nil, s.stats, fmt.Errorf("subgroups: lattice search: %w", err)
		}
		if !s.heap[0].scored {
			// The next node to consume is unscored: score a frontier batch —
			// the top Parallelism × batchFactor nodes — concurrently, then
			// put them back. Heap contents (and thus the consume order) are
			// unchanged; only scores (and row lists) fill in.
			var batch []*node
			limit := opts.Parallelism * batchFactor
			for len(batch) < limit && s.heap.Len() > 0 {
				batch = append(batch, heap.Pop(&s.heap).(*node))
			}
			start := time.Now()
			err := s.scoreBatch(ctx, batch)
			scoreDur += time.Since(start)
			for _, g := range batch {
				heap.Push(&s.heap, g)
			}
			tr.Add(obs.SubgroupFrontierBatches, 1)
			if err != nil {
				return nil, s.stats, fmt.Errorf("subgroups: lattice search: %w", err)
			}
		}
		g := heap.Pop(&s.heap).(*node)
		s.sizes.add(g.Size, -1)
		s.stats.Explored++
		if consumed != nil {
			consumed(g.Group)
		}
		if g.Score > opts.Tau {
			// update(R, C'): insert unless an ancestor already qualified.
			// Descendants of a qualifying group are pruned (not expanded).
			dominated := false
			for _, r := range results {
				if r.isAncestorOf(g.Group) {
					dominated = true
					break
				}
			}
			if !dominated {
				results = append(results, g.Group)
			}
			continue
		}
		if len(g.Conds) < maxDepth {
			start := time.Now()
			s.expand(g)
			expandDur += time.Since(start)
		}
	}
	s.stats.Exhausted = s.heap.Len() == 0 && s.stats.Explored < explored
	tr.Add(obs.SubgroupNodesExplored, int64(s.stats.Explored))
	tr.Add(obs.SubgroupNodesPushed, int64(s.stats.Pushed))
	sp.SetInt("explored", int64(s.stats.Explored))
	sp.SetInt("pushed", int64(s.stats.Pushed))
	sp.SetInt("groups-found", int64(len(results)))
	return results, s.stats, nil
}

// newSearch prepares a traversal: the explanation as one row-level stratum
// column, the dimensions' codes packed, and the slot views of the admitted
// link columns.
func newSearch(t, o *bins.Encoded, explanation []*bins.Encoded, attrs []RefinementAttr, opts *Options, minSize, explored int) (*search, error) {
	n := t.Len()
	dims := make([]counting.Dim, len(attrs))
	for i, a := range attrs {
		if a.Enc.Len() != n {
			return nil, fmt.Errorf("subgroups: attribute %q has %d rows, view has %d", a.Name, a.Enc.Len(), n)
		}
		dims[i] = counting.Dim{Codes: a.Enc.Codes, Card: a.Enc.Card, Slots: a.Enc.Slots}
	}
	// Every scored lattice node conditions on the same explanation, so hand
	// the per-node estimator one row-level column it can use as its stratum
	// ids unchanged: the explanation joined into its composite
	// (infotheory.JoinVars, which also reads a lone entity form into rows), an
	// empty one as the single all-rows stratum. The row partition — and hence
	// every score — is identical.
	stratum := infotheory.JoinVars("explanation", explanation...)
	if stratum == nil {
		stratum = &bins.Encoded{Name: "explanation", Codes: make([]int32, n), Card: 1}
	}
	codes, err := counting.Pack(dims, n)
	if err != nil {
		return nil, fmt.Errorf("subgroups: %w", err)
	}
	s := &search{t: t, o: o, explanation: []*bins.Encoded{stratum}, attrs: attrs, opts: opts,
		minSize: minSize, explored: explored,
		codes: codes, hist: make([]int32, codes.Bins()), sizes: make(sizeIndex, n+2),
		cols: make([][]int32, len(attrs)), linkOf: make([]*link, len(attrs))}
	for i := range attrs {
		s.cols[i] = codes.Column(s.hist, i)
	}
	s.admitLinks(explanation)
	return s, nil
}

// root is the lattice's root: every row, carved.
func (s *search) root() *node {
	n := s.t.Len()
	root := &node{Group: Group{Size: n}, rows: make([]int32, n), carved: true}
	for i := range root.rows {
		root.rows[i] = int32(i)
	}
	return root
}

// node is a lattice node on the frontier. Until the node is carved, rows is
// its parent's row list, from which its last condition selects its own; a
// node is carved when it is first scored or expanded — so a pushed node that
// is never reached costs its conditions and nothing per row. A slot node
// (link set) carries its slots the same way — its parent's until cut, on
// scoring — and is carved only when it is expanded over rows; below a slot
// node whose expansion read only slots, rows is nil: no descendant ever needs
// them.
type node struct {
	Group
	rows   []int32 // ascending view rows
	carved bool
	link   *link   // the column every condition and E is a function of
	slots  []int32 // ascending slots of link
	cut    bool
	scored bool
}

// link is one link column's slot view of the search, made for the columns
// that carry dimensions when the explanation is empty or on that column too.
type link struct {
	rows  []int32 // rows per slot
	e     []int32 // E's stratum per slot, Missing for a slot without rows
	ce    int     // E's card
	every []int32 // every slot: the slot list of the root
	// tail is the least dimension index from which every dimension is on
	// this column: a slot node refining from there needs no rows.
	tail int
	cube *counting.SlotCube // parts (·, O, T)
}

// search is the state of one lattice traversal. Everything but visited and
// slotScored is owned by the traversal goroutine; scoring workers touch only
// the nodes of their batch, one worker per node, and are joined before the
// traversal reads them.
type search struct {
	t, o        *bins.Encoded
	explanation []*bins.Encoded
	attrs       []RefinementAttr
	opts        *Options
	minSize     int // groups smaller than this are skipped
	explored    int // the node budget

	codes  *counting.Packed // attrs' codes, row-major
	hist   []int32          // expand's scratch, codes.Bins() long
	cols   [][]int32        // each dimension's part of hist, by code
	linkOf []*link          // per dimension: its column's, when admitted
	heap   nodeHeap
	sizes  sizeIndex // the heap's nodes by size
	stats  Stats

	visited    atomic.Int64 // rows touched by histogram, carve and tally passes
	slotScored atomic.Int64 // nodes scored from slots
}

// admitLinks makes the slot view of every link column whose dimensions can
// head slot nodes: any column when the explanation is empty, else the one
// every explanation attribute is reached through, the row→slot map they all
// share. Nothing is admitted where the row tally would not be dense, the
// fold's one gate.
func (s *search) admitLinks(explanation []*bins.Encoded) {
	var explSlots []int32
	for i, e := range explanation {
		if i == 0 {
			explSlots = e.Slots
		}
		if len(e.Slots) == 0 || len(explSlots) == 0 || &e.Slots[0] != &explSlots[0] {
			return
		}
	}
	e := s.explanation[0]
	if s.t.Slots != nil || s.o.Slots != nil || s.t.Len() == 0 {
		return
	}
	size := 1
	for _, card := range []int{s.o.Card, s.t.Card, e.Card} {
		if card <= 0 {
			return
		}
		if size *= card; size > counting.MaxDense {
			return
		}
	}
	byMap := map[*int32]*link{}
	for i, a := range s.attrs {
		slots := a.Enc.Slots
		if len(slots) == 0 || explSlots != nil && &explSlots[0] != &slots[0] {
			continue
		}
		l := byMap[&slots[0]]
		if l == nil {
			l = s.newLink(slots)
			byMap[&slots[0]] = l
		}
		s.linkOf[i] = l
	}
	for _, l := range byMap {
		for l.tail > 0 && s.linkOf[l.tail-1] == l {
			l.tail--
		}
	}
}

// newLink makes the slot view of the row→slot map slots. The explanation is
// empty or on this column, so its stratum is a function of the slot: it is
// read off the row-level column — the composite that JoinVars numbered over
// rows — at any of the slot's rows, so the fold's strata are the row tally's,
// in the same order.
func (s *search) newLink(slots []int32) *link {
	rows := counting.RowsPerSlot(slots)
	e := s.explanation[0]
	strata := make([]int32, len(rows))
	every := make([]int32, len(rows))
	for i := range every {
		strata[i], every[i] = counting.Missing, int32(i)
	}
	for r, sl := range slots {
		if sl >= 0 {
			strata[sl] = e.Codes[r]
		}
	}
	return &link{
		rows: rows, e: strata, ce: e.Card, every: every, tail: len(s.attrs),
		cube: counting.NewSlotCube(slots, counting.Dim{},
			counting.Dim{Codes: s.o.Codes, Card: s.o.Card}, counting.Dim{Codes: s.t.Codes, Card: s.t.Card}),
	}
}

// carve replaces the parent's row list on n by n's own: one pass over the
// parent's rows keeping those with the last condition's code, in order.
func (s *search) carve(n *node) {
	if n.carved {
		return
	}
	last := n.Conds[len(n.Conds)-1]
	s.visited.Add(int64(len(n.rows)))
	n.rows = s.codes.Select(n.rows, last.AttrIdx, last.Code, n.Size)
	n.carved = true
}

// cut is carve for a slot node's slots: the parent's slots with the last
// condition's code, in order.
func (s *search) cut(n *node) {
	if n.cut {
		return
	}
	last := n.Conds[len(n.Conds)-1]
	codes := s.attrs[last.AttrIdx].Enc.Codes // one per slot: an admitted dimension
	var slots []int32
	for _, sl := range n.slots {
		if codes[sl] == last.Code {
			slots = append(slots, sl)
		}
	}
	n.slots, n.cut = slots, true
}

// score evaluates n in process: a slot node by folding its column's cube
// over its slots, with E's stratum per slot, then finalizing the tally as
// core.ScoreGroupRows finalizes the row tally; any other node from its rows.
func (s *search) score(n *node) {
	if l := n.link; l != nil {
		s.cut(n)
		// Dense: admitLinks checked the fold's gate.
		t, _ := l.cube.FoldSlots(l.e, l.ce, counting.AxisZ, n.slots)
		n.Score = infotheory.TallyCondMutualInfoDebiased(&t)
		s.slotScored.Add(1)
	} else {
		s.carve(n)
		s.visited.Add(int64(len(n.rows)))
		n.Score = core.ScoreGroupRows(s.t, s.o, s.explanation, n.rows, nil)
	}
	n.scored = true
}

// scoreBatch evaluates every not-yet-scored node of the batch, fanning the
// evaluations out over up to Parallelism workers. Workers stop claiming new
// nodes once ctx is cancelled and are always joined before return, so none
// outlives the call; a cancelled batch reports ctx.Err() and leaves the
// nodes it did not reach unscored.
func (s *search) scoreBatch(ctx context.Context, batch []*node) error {
	todo := make([]*node, 0, len(batch))
	for _, g := range batch {
		if !g.scored {
			todo = append(todo, g)
		}
	}
	obs.TraceFrom(ctx).Add(obs.GroupsScored, int64(len(todo)))
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(todo) || ctx.Err() != nil {
				return
			}
			s.score(todo[i])
		}
	}
	workers := min(s.opts.Parallelism, len(todo))
	if workers <= 1 {
		work()
		return ctx.Err()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// expand pushes the children of g: refinements extending it with one
// assignment of an attribute whose index exceeds the last used index (so
// every lattice node is generated exactly once), in ascending attribute and
// code order. One pass over g's rows counts the sizes of all of them — or,
// for a slot node whose every refinement is on its own column, one pass over
// its slots, weighted by rows per slot; a child is pushed with that size and
// g's row and slot lists, not its own.
//
// A child is not pushed when the budget cannot reach it. The heap pops by
// size, so a child is consumed only after every node strictly larger than it
// has been, and every pop spends one unit of the budget: with at least
// s.explored − Explored strictly larger nodes already on the heap, the
// search stops before the child's turn whatever is pushed later. Such a
// child is never popped, scored into a result or expanded, so leaving it out
// changes no pop, score, result or Explored — only Stats.Pushed and the
// speculative tail of groups_scored.
func (s *search) expand(g *node) {
	from := 0
	if len(g.Conds) > 0 {
		from = g.Conds[len(g.Conds)-1].AttrIdx + 1
	}
	if from >= len(s.attrs) {
		return
	}
	clear(s.hist)
	var rows []int32 // the children's parent rows: none below a slot pass
	if g.link != nil {
		s.cut(g)
	}
	if l := g.link; l != nil && from >= l.tail {
		for _, sl := range g.slots {
			k := l.rows[sl]
			for ai := from; ai < len(s.attrs); ai++ {
				if c := s.attrs[ai].Enc.Codes[sl]; c >= 0 {
					s.cols[ai][c] += k
				}
			}
		}
	} else {
		s.carve(g)
		rows = g.rows
		s.codes.Histogram(rows, from, s.hist)
		s.visited.Add(int64(len(rows)))
	}
	for ai := from; ai < len(s.attrs); ai++ {
		enc := s.attrs[ai].Enc
		for code, count := range s.cols[ai] {
			size := int(count)
			if size < s.minSize || size == g.Size {
				// Too small, or the assignment does not refine (constant
				// within the group).
				continue
			}
			if s.heap.Len()-s.sizes.upTo(size) >= s.explored-s.stats.Explored {
				continue
			}
			label := strconv.Itoa(code)
			if code < len(enc.Labels) {
				label = enc.Labels[code]
			}
			heap.Push(&s.heap, s.child(g, rows, Assignment{
				AttrIdx: ai, Attr: s.attrs[ai].Name, Code: int32(code), Value: label,
			}, size))
			s.sizes.add(size, 1)
			s.stats.Pushed++
		}
	}
}

// child is g refined by a, of the given size, carrying g's lists. It is a
// slot node when a's column is admitted and g is the root or a slot node of
// that column: then every condition, and the explanation, is a function of
// the column's slot.
func (s *search) child(g *node, rows []int32, a Assignment, size int) *node {
	n := &node{rows: rows, Group: Group{
		Conds: append(append([]Assignment(nil), g.Conds...), a),
		Size:  size,
	}}
	if l := s.linkOf[a.AttrIdx]; l != nil && (len(g.Conds) == 0 || g.link == l) {
		n.link, n.slots = l, g.slots
		if g.link == nil {
			n.slots = l.every
		}
	}
	return n
}

// sizeIndex counts the heap's nodes by size: a Fenwick tree over [0, n].
type sizeIndex []int32

func (f sizeIndex) add(size int, d int32) {
	for i := size + 1; i < len(f); i += i & -i {
		f[i] += d
	}
}

// upTo returns how many nodes have Size ≤ size.
func (f sizeIndex) upTo(size int) (c int) {
	for i := size + 1; i > 0; i -= i & -i {
		c += int(f[i])
	}
	return c
}

// nodeHeap is a max-heap of nodes by size. Ties are broken on a total
// order — depth, then the (AttrIdx, Code) condition sequence — so the pop
// order, and therefore TopUnexplained's output, is identical across runs
// even when many groups share a size (container/heap is not stable), and
// independent of the physical array layout the batched frontier reshuffles.
type nodeHeap []*node

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].Size != h[j].Size {
		return h[i].Size > h[j].Size
	}
	ci, cj := h[i].Conds, h[j].Conds
	if len(ci) != len(cj) {
		return len(ci) < len(cj) // shallower refinements first
	}
	for k := range ci {
		if ci[k].AttrIdx != cj[k].AttrIdx {
			return ci[k].AttrIdx < cj[k].AttrIdx
		}
		if ci[k].Code != cj[k].Code {
			return ci[k].Code < cj[k].Code
		}
	}
	return false
}
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(*node)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}
