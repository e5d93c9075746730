package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"sync"

	"nexus/internal/bins"
	"nexus/internal/counting"
	"nexus/internal/infotheory"
	"nexus/internal/stats"
)

// Scorer abstracts the three expensive inner loops of an explanation — the
// MCIMR relevance pass, the permutation significance tests, and the subgroup
// frontier batches — behind one seam, so they can run in-process (Local) or
// be sharded across worker processes (internal/distremote).
//
// Every method is a pure function of its inputs: results depend only on the
// context's encoded columns, the explicit candidate indices / seeds / group
// conditions, never on evaluation order or placement. A remote
// implementation that runs the same Go functions on the same inputs and
// merges replies in argument order is therefore byte-identical to Local,
// which stays in-tree as the oracle. Implementations must be safe for
// concurrent use: one Scorer in a session's options serves every
// explanation and subgroup search that session runs at once.
type Scorer interface {
	// Relevance returns I(O;T|E_i) for each listed candidate, index-aligned
	// with cands (indices into sc.Cands), using the candidate's IPW weights.
	Relevance(ctx context.Context, sc *ScoreContext, cands []int) ([]float64, error)

	// PermBlock evaluates a block of permutation-test statistics, one per
	// seed, returning whether each permuted statistic reached the observed
	// one (exceed, index-aligned with spec.Seeds) and how many permutations
	// actually ran. Once a block's exceed count passes spec.Allow the reject
	// verdict is determined, so implementations may skip remaining seeds —
	// unevaluated entries stay false, exactly like the in-process early
	// exit; the verdict derived from the counts is deterministic regardless.
	PermBlock(ctx context.Context, sc *ScoreContext, spec PermSpec) (exceed []bool, ran int, err error)

	// SubgroupBatch scores a batch of subgroup lattice nodes: for each
	// group, the debiased I(O;T|E) restricted to the rows matching the
	// group's conditions (ScoreGroupRows). Results are index-aligned with
	// groups.
	SubgroupBatch(ctx context.Context, gc *GroupContext, groups []GroupSpec) ([]float64, error)
}

// ScoreContext is the immutable dataset of one MCIMR run: the exposure T,
// the outcome O, and the candidate encodings with their per-candidate IPW
// weights (nil entries = unweighted). A KG candidate's encoding is indirect
// (bins.Encoded.Slots) and its weights are then per slot, under the same
// map. It is built once per run and shared by every Relevance / PermBlock
// call, so remote scorers can register it with workers once, keyed by
// Fingerprint.
type ScoreContext struct {
	T, O    *bins.Encoded
	Cands   []*bins.Encoded
	Weights [][]float64
	// Tag folds an external dataset identity into the fingerprint —
	// sessions pass their DatasetFingerprint+KGVersion (the Session.ReportKey
	// components), so a worker never conflates two sources whose encoded
	// columns happen to collide.
	Tag string

	// folds serves the unweighted statistics of entity-form candidates from
	// slot cubes in the process that made the context (MCIMRCtx); nil — a
	// context a worker registered — computes every statistic over the rows.
	folds *slotFolds

	fpOnce sync.Once
	fp     string
}

// relevance returns I(O;T|E) for candidate i under its IPW weights, folded
// from its link column's (slot, O, T) cube when it is an unweighted entity
// form and the context has folds: the same bits either way.
func (sc *ScoreContext) relevance(i int) float64 {
	e, w := sc.Cands[i], sc.Weights[i]
	if w == nil {
		if v, ok := sc.folds.cmi(e, nil, sc.O, sc.T, counting.AxisZ); ok {
			return v
		}
	}
	return infotheory.CondMutualInfo(sc.O, sc.T, []infotheory.Var{e}, weightsOf(e, w))
}

// Fingerprint returns a content hash of the full context (tag, shape, codes,
// row→slot maps, weight bits), computed once. Two contexts with equal
// fingerprints score identically, so workers cache registered datasets under
// it.
func (sc *ScoreContext) Fingerprint() string {
	sc.fpOnce.Do(func() {
		h := fnv.New64a()
		io.WriteString(h, sc.Tag)
		hashEnc(h, sc.T)
		hashEnc(h, sc.O)
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(len(sc.Cands)))
		h.Write(b[:])
		for i, c := range sc.Cands {
			hashEnc(h, c)
			hashWeights(h, sc.Weights[i])
		}
		sc.fp = fmt.Sprintf("mcimr:%016x", h.Sum64())
	})
	return sc.fp
}

// PermOp selects which permutation statistic a PermBlock evaluates.
type PermOp string

// Permutation-test operations.
const (
	// PermResp is the responsibility test (Lemma 4.2): the permuted
	// statistic is I(O; perm(E) | given) and exceed means perm >= observed.
	PermResp PermOp = "resp"
	// PermGain is the calibrated gain test: the permuted statistic is
	// I(O;T | given, perm(E)) and exceed means perm <= observed (the
	// permuted copy "explains" as much as the real candidate).
	PermGain PermOp = "gain"
)

// PermSpec describes one permutation-test block. Seeds are explicit so the
// schedule is owned by the coordinator: permutation i's statistic depends
// only on Seeds[i], never on where or in what order it runs.
type PermSpec struct {
	// Cand indexes the candidate under test in ScoreContext.Cands. Its
	// permuted copies are row-level shuffles of the observed codes
	// (ShuffleObserved) — candidates with a custom source-granularity
	// Permute never reach a Scorer (see Candidate.WirePerm).
	Cand int
	// Given is the pre-joined composite of the selected prefix, nil when
	// the prefix is empty.
	Given *bins.Encoded
	// Op selects the statistic (PermResp / PermGain).
	Op PermOp
	// Observed is the statistic of the unpermuted candidate.
	Observed float64
	// Seeds lists the RNG seed of every permutation in the block.
	Seeds []uint64
	// Allow is the early-exit bound: once more than Allow permutations
	// exceed, the remaining ones are skippable.
	Allow int
}

// GroupContext is the immutable dataset of one subgroup search: exposure,
// outcome, the (already folded) explanation composite and the refinement
// attribute encodings, each in its own form (row-level, or indirect).
type GroupContext struct {
	T, O        *bins.Encoded
	Explanation []*bins.Encoded
	Attrs       []*bins.Encoded
	// Tag: see ScoreContext.Tag.
	Tag string

	fpOnce sync.Once
	fp     string
}

// Fingerprint returns the content hash of the group context (see
// ScoreContext.Fingerprint).
func (gc *GroupContext) Fingerprint() string {
	gc.fpOnce.Do(func() {
		h := fnv.New64a()
		io.WriteString(h, gc.Tag)
		hashEnc(h, gc.T)
		hashEnc(h, gc.O)
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(len(gc.Explanation)))
		h.Write(b[:])
		for _, e := range gc.Explanation {
			hashEnc(h, e)
		}
		binary.LittleEndian.PutUint64(b[:], uint64(len(gc.Attrs)))
		h.Write(b[:])
		for _, a := range gc.Attrs {
			hashEnc(h, a)
		}
		gc.fp = fmt.Sprintf("subgroup:%016x", h.Sum64())
	})
	return gc.fp
}

// GroupCond is one attr = code condition of a subgroup work unit. Attr
// indexes GroupContext.Attrs.
type GroupCond struct {
	Attr int
	Code int32
}

// GroupSpec identifies one subgroup by its conditions. The row list is
// re-derived by scanning the view (Rows), which yields the identical
// ascending list the coordinator carves from the parent's — that
// equivalence is what makes remote subgroup scores byte-identical.
type GroupSpec struct {
	Conds []GroupCond
}

// Rows returns the ascending row indices of the view matching every
// condition of spec, an indirect attribute read through its map.
func (gc *GroupContext) Rows(spec GroupSpec) []int32 {
	n := gc.T.Len()
	out := make([]int32, 0, n/4)
scan:
	for r := 0; r < n; r++ {
		for _, c := range spec.Conds {
			if gc.Attrs[c.Attr].Code(r) != c.Code {
				continue scan
			}
		}
		out = append(out, int32(r))
	}
	return out
}

func hashEnc(h io.Writer, e *bins.Encoded) {
	var b [8]byte
	io.WriteString(h, e.Name)
	binary.LittleEndian.PutUint64(b[:], uint64(e.Card))
	h.Write(b[:])
	binary.LittleEndian.PutUint64(b[:], uint64(len(e.Codes)))
	h.Write(b[:])
	for _, c := range e.Codes {
		binary.LittleEndian.PutUint32(b[:4], uint32(c))
		h.Write(b[:4])
	}
	if e.Slots == nil {
		return
	}
	// Codes per slot under a map: a different column from the same codes per
	// row, so the map is part of the content.
	io.WriteString(h, "slots")
	binary.LittleEndian.PutUint64(b[:], uint64(len(e.Slots)))
	h.Write(b[:])
	for _, s := range e.Slots {
		binary.LittleEndian.PutUint32(b[:4], uint32(s))
		h.Write(b[:4])
	}
}

func hashWeights(h io.Writer, w []float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(w)))
	h.Write(b[:])
	for _, v := range w {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

// ShuffleObserved returns a copy of enc whose observed codes are shuffled
// among the observed positions, preserving the missingness pattern (the
// valid null under biased missingness). It is the canonical row-level
// permutation: Candidate.Permute of input columns, the Local scorer and the
// distributed workers all draw it (permSignificant and the scorer into lent
// vectors, drawVectors), so their permuted statistics are bit-identical for
// the same seed. For an indirect enc the positions are the entity slots and
// the copy keeps enc's row→slot map: the entity-level null of a KG attribute,
// at the cost of its slots.
func ShuffleObserved(enc *bins.Encoded, rng *stats.RNG) *bins.Encoded {
	out := *enc
	out.Codes = make([]int32, len(enc.Codes))
	shuffleObservedInto(out.Codes, enc.Codes, rng)
	return &out
}

// shuffleObservedInto writes ShuffleObserved's codes into dst (len(codes)):
// it gathers the observed codes at the front of dst, shuffles them there with
// the swaps the shuffle of the observed positions makes, and spreads them back
// to those positions from the last one down — the m-th observed code moves to
// a position ≥ m, so no code is overwritten before it is read.
func shuffleObservedInto(dst, codes []int32, rng *stats.RNG) {
	// Without a branch on the code: a code is observed when it is not negative
	// (bins.Missing), that is when its complement is.
	dst = dst[:len(codes)]
	k := 0
	for _, cd := range codes {
		dst[k] = cd
		k += int(uint32(^cd) >> 31)
	}
	observed := dst[:k]
	rng.Shuffle(k, func(a, b int) { observed[a], observed[b] = observed[b], observed[a] })
	for i := len(codes) - 1; i >= 0; i-- {
		seen := int(uint32(^codes[i]) >> 31)
		k -= seen
		dst[i] = dst[k] | int32(seen-1) // Missing where unobserved
	}
}

// drawVectors lends the workers of one permutation test the code vectors
// their draws are written into: a vector goes back on the list after each
// draw, so a test of an n-long column holds at most one per worker.
type drawVectors struct {
	mu   sync.Mutex
	free [][]int32
}

// stat returns stat of ShuffleObserved(enc, stats.NewRNG(seed)), the copy
// drawn into a lent vector that stat must not keep.
func (d *drawVectors) stat(enc *bins.Encoded, seed uint64, stat func(*bins.Encoded) float64) float64 {
	d.mu.Lock()
	var buf []int32
	if k := len(d.free); k > 0 {
		buf, d.free = d.free[k-1], d.free[:k-1]
	}
	d.mu.Unlock()
	if buf == nil {
		buf = make([]int32, len(enc.Codes))
	}
	defer func() {
		d.mu.Lock()
		d.free = append(d.free, buf)
		d.mu.Unlock()
	}()
	pe := *enc
	pe.Codes = buf
	shuffleObservedInto(buf, enc.Codes, stats.NewRNG(seed))
	return stat(&pe)
}

// Local is the in-process Scorer: today's code path, and the oracle every
// remote implementation must match byte for byte. The zero value is valid
// (Parallelism defaults to GOMAXPROCS).
type Local struct {
	// Parallelism bounds worker goroutines per call (default GOMAXPROCS).
	Parallelism int
}

// Statically assert the seam contract.
var _ Scorer = Local{}

func (l Local) par() int {
	if l.Parallelism > 0 {
		return l.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// Relevance implements Scorer with one CMI evaluation per listed candidate
// (ScoreContext.relevance), in parallel.
func (l Local) Relevance(ctx context.Context, sc *ScoreContext, cands []int) ([]float64, error) {
	out := make([]float64, len(cands))
	parallelFor(ctx, len(cands), l.par(), func(i int) {
		out[i] = sc.relevance(cands[i])
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// PermBlock implements Scorer via the shared early-exit permutation driver,
// with the statistic and exceedance rule permSignificant's other arm uses.
func (l Local) PermBlock(ctx context.Context, sc *ScoreContext, spec PermSpec) ([]bool, int, error) {
	enc := sc.Cands[spec.Cand]
	var given []infotheory.Var
	if spec.Given != nil {
		given = []infotheory.Var{spec.Given}
	}
	exceed := make([]bool, len(spec.Seeds))
	stat := func(pe *bins.Encoded) float64 { return spec.Op.stat(sc.T, sc.O, pe, given) }
	var draws drawVectors
	_, ran, err := permTest(ctx, len(spec.Seeds), spec.Allow, l.par(), func(i int) (bool, error) {
		exceed[i] = spec.Op.exceeds(draws.stat(enc, spec.Seeds[i], stat), spec.Observed)
		return exceed[i], nil
	})
	if err != nil {
		return nil, 0, err
	}
	return exceed, ran, nil
}

// SubgroupBatch implements Scorer: each group's rows are re-derived from its
// conditions and scored with ScoreGroupRows, in parallel.
func (l Local) SubgroupBatch(ctx context.Context, gc *GroupContext, groups []GroupSpec) ([]float64, error) {
	out := make([]float64, len(groups))
	parallelFor(ctx, len(groups), l.par(), func(i int) {
		out[i] = ScoreGroupRows(gc.T, gc.O, gc.Explanation, gc.Rows(groups[i]), nil)
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// ScoreGroupRows computes I(O;T|E) over a subgroup's rows (ascending view
// row indices; base, when non-nil, holds per-view-row weights) with the
// bias-corrected estimator — the plug-in CMI inflates as groups shrink, which
// would make every small group look unexplained. It tallies from the row
// list, so it costs the group, not the view. It is the single scoring
// function behind the subgroup lattice search, the Local scorer and the
// distributed workers, so all three produce bit-identical scores.
func ScoreGroupRows(t, o *bins.Encoded, explanation []*bins.Encoded, rows []int32, base []float64) float64 {
	return infotheory.CondMutualInfoDebiasedRows(o, t, explanation, base, rows)
}
