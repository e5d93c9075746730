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
	Enc  *bins.Encoded // row-level over the analysis view
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
	// MaxDepth bounds refinement depth (default 3).
	MaxDepth int
	// MinSize skips groups smaller than this (default 1% of rows, min 10) —
	// tiny groups have meaningless CMI estimates.
	MinSize int
	// MaxExplored caps the number of lattice nodes the traversal consumes
	// (default 1500). When the explanation holds everywhere, the exhaustive
	// traversal is polynomial but large; the cap keeps the search interactive
	// — in practice unexplained groups surface within a handful of nodes
	// (§5.4). It is also what bounds the frontier: a child that the remaining
	// budget cannot reach is never pushed (see search.expand).
	MaxExplored int
	// Parallelism bounds the scoring workers (default GOMAXPROCS). It also
	// sets the frontier batch size (Parallelism × 4 heap nodes are scored
	// per batch); 1 scores each node inline on pop, with no goroutines.
	// Results and Stats are identical at any setting.
	Parallelism int
	// Weights are optional IPW weights over the analysis view. When set,
	// the slice must cover every view row.
	Weights []float64
	// Scorer, when non-nil, routes frontier-batch scoring through the
	// core.Scorer seam — e.g. a distremote.Scorer fanning the batch out to
	// a worker fleet. Workers re-derive each group's row list by an ascending
	// view scan, the order the coordinator's carving keeps, and score it with
	// the same core.ScoreGroupRows, so results stay byte-identical to
	// in-process scoring at any fleet size. Nil scores in process.
	Scorer core.Scorer
	// ScoreTag qualifies the dataset fingerprint shipped to remote scoring
	// workers (see core.ScoreContext.Tag). Ignored when Scorer is nil.
	ScoreTag string
	// Counters, when non-nil, receives the node counters of a search whose
	// context carries no trace; a trace on the context (obs.WithTrace)
	// receives the lattice-search span, and its counter set replaces this.
	Counters *obs.Counters
}

// Stats reports search effort. Every field is schedule-independent: it
// follows from the serial traversal order alone, not from the speculative
// scoring work (which the groups_scored counter tracks and which grows with
// Parallelism).
type Stats struct {
	Explored int // nodes whose score was consumed by the traversal
	// Pushed counts the nodes pushed onto the heap: the refinements of
	// expanded nodes that pass MinSize, refine their parent and were, when
	// generated, still within reach of the MaxExplored budget.
	Pushed int
	// Exhausted reports that the heap emptied before MaxExplored was spent,
	// so every refinement up to MaxDepth was consumed or lies under a
	// returned group: search.expand leaves a child unpushed only when the
	// budget would end the search before its turn.
	Exhausted bool
}

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
//   - A node's score is a pure function of its row list, and the list is the
//     same ascending one whichever worker carves it from the parent's: each
//     evaluation runs the same float operations in the same order, so
//     stored scores are bit-identical to serially computed ones.
//   - All state transitions — Explored counting, τ comparison, ancestor
//     suppression, child expansion and the reachability cut, the K and
//     MaxExplored stop conditions — happen on one goroutine, consuming
//     stored scores in pop order.
//
// Only scheduling-effort counters (subgroup_batches, groups_scored,
// subgroup_rows_visited) vary with Parallelism; results and Stats do not.
func TopUnexplained(ctx context.Context, t, o *bins.Encoded, explanation []*bins.Encoded, attrs []RefinementAttr, opts Options) ([]Group, Stats, error) {
	return topUnexplained(ctx, t, o, explanation, attrs, opts, nil)
}

// topUnexplained is TopUnexplained; consumed, when non-nil, observes every
// node the traversal consumes, in order (the cut-exactness test's probe).
func topUnexplained(ctx context.Context, t, o *bins.Encoded, explanation []*bins.Encoded, attrs []RefinementAttr, opts Options, consumed func(Group)) ([]Group, Stats, error) {
	if opts.K <= 0 {
		opts.K = 5
	}
	if opts.MaxDepth <= 0 {
		opts.MaxDepth = 3
	}
	n := t.Len()
	if opts.MinSize <= 0 {
		opts.MinSize = n / 100
		if opts.MinSize < 10 {
			opts.MinSize = 10
		}
	}
	if opts.MaxExplored <= 0 {
		opts.MaxExplored = 1500
	}
	if opts.Parallelism <= 0 {
		opts.Parallelism = runtime.GOMAXPROCS(0)
	}
	dims := make([]counting.Dim, len(attrs))
	for i, a := range attrs {
		if a.Enc.Len() != n {
			return nil, Stats{}, fmt.Errorf("subgroups: attribute %q has %d rows, view has %d", a.Name, a.Enc.Len(), n)
		}
		dims[i] = counting.Dim{Codes: a.Enc.Codes, Card: a.Enc.Card}
	}
	// A short weight vector would panic inside a scoring worker (weights are
	// indexed by view row); reject it up front instead.
	if opts.Weights != nil && len(opts.Weights) != n {
		return nil, Stats{}, fmt.Errorf("subgroups: weights cover %d rows, view has %d", len(opts.Weights), n)
	}

	tr := obs.TraceFrom(ctx)
	if c := tr.Counters(); c != nil {
		opts.Counters = c
	}
	sp := tr.Start("subgroup-search")
	defer sp.End()
	// Publish the search's counting-kernel effort (dense/sparse passes, ID
	// joins, partitions) as the delta of the kernel's process-wide counters
	// over this call. The capture windows never nest: core.Explain (the
	// only other capture site) and the subgroup search are sibling phases,
	// so no pass is counted twice.
	countBase := counting.Stats()
	defer func() { counting.Stats().Delta(countBase).Each(opts.Counters.Add) }()

	// Every scored lattice node conditions on the same explanation, so hand
	// the per-node estimator one column it can use as its stratum ids
	// unchanged: a multi-attribute explanation pre-joined into its composite
	// (infotheory.JoinVars), an empty one as the single all-rows stratum. The
	// row partition — and hence every score — is identical.
	switch len(explanation) {
	case 0:
		explanation = []*bins.Encoded{{Name: "explanation", Codes: make([]int32, n), Card: 1}}
	case 1:
	default:
		vars := make([]infotheory.Var, len(explanation))
		for i, e := range explanation {
			vars[i] = e
		}
		explanation = []*bins.Encoded{infotheory.JoinVars("explanation", vars...)}
		opts.Counters.Add(obs.CompositeRebuilds, 1)
	}

	codes, err := counting.Pack(dims, n)
	if err != nil {
		return nil, Stats{}, fmt.Errorf("subgroups: %w", err)
	}
	s := &search{t: t, o: o, explanation: explanation, attrs: attrs, opts: &opts,
		codes: codes, hist: make([]int32, codes.Bins()), sizes: make(sizeIndex, n+2)}
	if opts.Scorer != nil {
		attrEncs := make([]*bins.Encoded, len(attrs))
		for i, a := range attrs {
			attrEncs[i] = a.Enc
		}
		s.gc = &core.GroupContext{T: t, O: o, Explanation: explanation,
			Attrs: attrEncs, Base: opts.Weights, Tag: opts.ScoreTag}
	}
	defer func() { opts.Counters.Add(obs.SubgroupRowsVisited, s.visited.Load()) }()

	root := &node{Group: Group{Size: n}, rows: make([]int32, n), carved: true}
	for i := range root.rows {
		root.rows[i] = int32(i)
	}
	s.expand(root)

	var results []Group
	for s.heap.Len() > 0 && len(results) < opts.K && s.stats.Explored < opts.MaxExplored {
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
			err := s.scoreBatch(ctx, batch)
			for _, g := range batch {
				heap.Push(&s.heap, g)
			}
			opts.Counters.Add(obs.SubgroupBatches, 1)
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
		if len(g.Conds) < opts.MaxDepth {
			s.expand(g)
		}
	}
	s.stats.Exhausted = s.heap.Len() == 0 && s.stats.Explored < opts.MaxExplored
	opts.Counters.Add(obs.SubgroupNodesExplored, int64(s.stats.Explored))
	opts.Counters.Add(obs.SubgroupNodesPushed, int64(s.stats.Pushed))
	sp.SetInt("explored", int64(s.stats.Explored))
	sp.SetInt("pushed", int64(s.stats.Pushed))
	sp.SetInt("groups-found", int64(len(results)))
	return results, s.stats, nil
}

// node is a lattice node on the frontier. Until the node is carved, rows is
// its parent's row list, from which its last condition selects its own; a
// node is carved when it is first scored in process, or when it is expanded
// after a remote Scorer scored it — so a pushed node that is never reached
// costs its conditions and nothing per row.
type node struct {
	Group
	rows   []int32 // ascending view rows
	carved bool
	scored bool
}

// search is the state of one lattice traversal. Everything but visited is
// owned by the traversal goroutine; scoring workers touch only the nodes of
// their batch, one worker per node, and are joined before the traversal
// reads them.
type search struct {
	t, o        *bins.Encoded
	explanation []*bins.Encoded
	attrs       []RefinementAttr
	opts        *Options
	gc          *core.GroupContext // set when opts.Scorer is

	codes *counting.Packed // attrs' codes, row-major
	hist  []int32          // expand's scratch, codes.Bins() long
	heap  nodeHeap
	sizes sizeIndex // the heap's nodes by size
	stats Stats

	visited atomic.Int64 // rows touched by histogram, carve and tally passes
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
	s.opts.Counters.Add(obs.GroupsScored, int64(len(todo)))
	if s.gc != nil {
		// Remote scoring: ship the batch as (attr, code) condition specs;
		// nothing is carved here.
		specs := make([]core.GroupSpec, len(todo))
		for i, g := range todo {
			conds := make([]core.GroupCond, len(g.Conds))
			for j, c := range g.Conds {
				conds[j] = core.GroupCond{Attr: c.AttrIdx, Code: c.Code}
			}
			specs[i] = core.GroupSpec{Conds: conds}
		}
		vals, err := s.opts.Scorer.SubgroupBatch(ctx, s.gc, specs)
		if err != nil {
			return err
		}
		for i, g := range todo {
			g.Score, g.scored = vals[i], true
		}
		return ctx.Err()
	}
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(todo) || ctx.Err() != nil {
				return
			}
			g := todo[i]
			s.carve(g)
			s.visited.Add(int64(len(g.rows)))
			g.Score = core.ScoreGroupRows(s.t, s.o, s.explanation, g.rows, s.opts.Weights)
			g.scored = true
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
// code order. One pass over g's rows counts the sizes of all of them; a
// child is pushed with that size and g's row list, not its own.
//
// A child is not pushed when the budget cannot reach it. The heap pops by
// size, so a child is consumed only after every node strictly larger than it
// has been, and every pop spends one unit of MaxExplored: with at least
// MaxExplored − Explored strictly larger nodes already on the heap, the
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
	s.carve(g)
	clear(s.hist)
	s.codes.Histogram(g.rows, from, s.hist)
	s.visited.Add(int64(len(g.rows)))
	for ai := from; ai < len(s.attrs); ai++ {
		enc := s.attrs[ai].Enc
		for code, count := range s.codes.Column(s.hist, ai) {
			size := int(count)
			if size < s.opts.MinSize || size == g.Size {
				// Too small, or the assignment does not refine (constant
				// within the group).
				continue
			}
			if s.heap.Len()-s.sizes.upTo(size) >= s.opts.MaxExplored-s.stats.Explored {
				continue
			}
			label := strconv.Itoa(code)
			if code < len(enc.Labels) {
				label = enc.Labels[code]
			}
			heap.Push(&s.heap, &node{rows: g.rows, Group: Group{
				Conds: append(append([]Assignment(nil), g.Conds...), Assignment{
					AttrIdx: ai, Attr: s.attrs[ai].Name, Code: int32(code), Value: label,
				}),
				Size: size,
			}})
			s.sizes.add(size, 1)
			s.stats.Pushed++
		}
	}
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
