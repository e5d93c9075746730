package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"time"

	"nexus/internal/bins"
	"nexus/internal/counting"
	"nexus/internal/infotheory"
	"nexus/internal/obs"
)

// Options configures Explain / MCIMR.
type Options struct {
	// K bounds the explanation size (paper default 5). MCIMR may stop
	// earlier via the responsibility test.
	K int
	// Seed makes the permutation test deterministic.
	Seed uint64
	// Parallelism bounds the worker goroutines of the relevance pass, the
	// redundancy pass and every permutation test (default GOMAXPROCS).
	// Selection is identical at any setting.
	Parallelism int
	// Prune switches off the permutation variant of §4.2's low-relevance
	// test; the zero value runs it.
	Prune PruneOptions
	// DisableOfflinePrune / DisableOnlinePrune switch the optimizations off
	// (the paper's MESA- and "No Pruning"/"Offline Pruning" baselines).
	DisableOfflinePrune bool
	DisableOnlinePrune  bool
	// DisableStopping turns off the responsibility test and the gain guard,
	// selecting exactly K attributes — the MRMR-style fixed-k behaviour the
	// paper contrasts with its stopping criterion (§6, Feature Selection).
	// Used by the ablation harness.
	DisableStopping bool
	// Trace, when non-nil, receives per-phase spans (pruning, relevance
	// pass, each MCIMR iteration with candidate name and CMI) and counters
	// (CI tests, permutations, per-rule prune drops). Nil disables
	// instrumentation at near-zero cost.
	Trace *obs.Trace
	// Scorer routes the expensive inner loops — the relevance pass and the
	// permutation-test blocks of wire-permutable candidates — through the
	// distributed-scoring seam. Nil uses Local (the in-process oracle);
	// results are byte-identical either way. Pruning, candidates with a
	// custom source-granularity Permute and the subgroup search (Alg. 2)
	// always score in process.
	Scorer Scorer
	// ScoreTag folds the session's dataset/KG identity into the
	// ScoreContext fingerprint shipped to workers (see ScoreContext.Tag).
	ScoreTag string
}

// The stopping tests of Algorithm 1 run at one fixed level.
const (
	// permTests is the number of permutations of the permutation-based
	// responsibility test (candidates that provide Permute; the others use
	// the analytic debiased-CMI test) and of the calibrated gain test.
	permTests = 19
	// permAllow is the number of permuted statistics allowed to reach the
	// observed one before the candidate is declared independent: none. With
	// 19 permutations that is a one-sided test at p ≤ (0+1)/(19+1) = 0.05.
	// The argmin ordering of Algorithm 1 preferentially surfaces the
	// candidates whose *chance* correlation is largest, so the strictest
	// per-candidate level is appropriate.
	permAllow = 0
	// minGain is the minimum reduction of the joint score required to accept
	// an attribute, as a fraction of the base score I(O;T|C). For candidates
	// that provide Permute the gain is additionally calibrated against a
	// permutation null (see gainSignificant); minGain alone guards the rest.
	minGain = 0.05
	// respThreshold is the normalized-CMI threshold of the analytic
	// responsibility test (Lemma 4.2), used by candidates without Permute.
	respThreshold = 0.02
	// skipBudget bounds how many failing candidates (responsibility test or
	// gain guard) are set aside across the whole run before MCIMR stops.
	// Algorithm 1 as published stops at the *first* failing candidate; a
	// bounded skip list keeps that behaviour in spirit while tolerating the
	// occasional degenerate attribute (near-FD with a low-cardinality
	// exposure) that reaches the argmin position first.
	skipBudget = 10
)

// DefaultOptions returns the paper's default configuration.
func DefaultOptions() Options {
	return Options{K: 5}
}

func (o *Options) applyDefaults() {
	if o.K <= 0 {
		o.K = 5
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
}

// SelectedAttr is one member of an explanation.
type SelectedAttr struct {
	Name   string
	Origin Origin
	Hops   int
	// Relevance is the attribute's individual conditional mutual
	// information I(O;T|C,E) — lower explains more on its own.
	Relevance float64
	// Responsibility is the Def. 2.5 degree of responsibility within the
	// final explanation.
	Responsibility float64
}

// Explanation is the result of Explain.
type Explanation struct {
	Attrs []SelectedAttr
	// BaseScore is I(O;T|C) — the unexplained correlation.
	BaseScore float64
	// Score is I(O;T|C,E) for the full selected set (the explainability
	// score of §5.1; 0 = perfectly explained).
	Score float64
	// OfflineStats / OnlineStats summarize pruning.
	OfflineStats PruneStats
	OnlineStats  PruneStats
	// Elapsed is the wall-clock duration of the whole Explain call.
	Elapsed time.Duration
}

// Names returns the selected attribute names in selection order.
func (e *Explanation) Names() []string {
	out := make([]string, len(e.Attrs))
	for i, a := range e.Attrs {
		out[i] = a.Name
	}
	return out
}

// Explain solves Correlation-Explanation for exposure t and outcome o over
// the candidate attributes: prune (§4.2), select with MCIMR (Alg. 1), rank
// by responsibility (Def. 2.5). Every phase — both pruning passes, the MCIMR
// relevance/redundancy passes and permutation tests, the final scoring —
// carries cooperative cancellation checkpoints, so a deadline or an
// abandoned request stops the run promptly (typically within one
// per-candidate unit of work). On cancellation the returned error wraps
// ctx.Err(), so errors.Is(err, context.DeadlineExceeded) and
// errors.Is(err, context.Canceled) distinguish the two server cases.
//
// Every phase reads a candidate's encoding and IPW weights from the candidate
// itself, which computes them once; a KG candidate's stay in entity form,
// read through the row→slot map, so Explain builds no n-long vector for it.
// The online prune and MCIMR fold such candidates from one store of slot
// cubes (slotFolds), so a link column's cube that both read is built once.
func Explain(ctx context.Context, t, o *bins.Encoded, cands []*Candidate, opts Options) (*Explanation, error) {
	opts.applyDefaults()
	start := time.Now()
	tr := opts.Trace
	esp := tr.Start("core-explain")
	defer esp.End()
	// Publish the run's counting-kernel effort (dense/sparse passes, ID
	// joins, partitions) as the delta of the kernel's process-wide counters
	// over this call. The prune and MCIMR phases below all tally through the
	// kernel; the only other capture window (the subgroup search) is a
	// sibling phase, so no pass is counted twice.
	countBase := counting.Stats()
	defer func() { counting.Stats().Delta(countBase).Each(tr.Add) }()

	res := &Explanation{BaseScore: infotheory.MutualInfo(o, t, nil)}
	folds := newSlotFolds(t, o)
	working := cands
	if !opts.DisableOfflinePrune {
		var err error
		var stats PruneStats
		sp := tr.Start("offline-prune")
		working, stats, err = OfflinePruneCtx(ctx, tr, working, opts.Prune)
		recordPruneSpan(tr, sp, "offline", stats)
		if err != nil {
			return nil, err
		}
		res.OfflineStats = stats
	}
	if !opts.DisableOnlinePrune {
		var err error
		var stats PruneStats
		sp := tr.Start("online-prune")
		working, stats, err = onlinePrune(ctx, tr, folds, working, opts.Prune)
		recordPruneSpan(tr, sp, "online", stats)
		if err != nil {
			return nil, err
		}
		res.OnlineStats = stats
	}

	sel, err := mcimr(ctx, folds, working, opts)
	if err != nil {
		return nil, err
	}
	res.Attrs = sel.Attrs

	var shares []float64
	res.Score, shares = scoreSet(tr, t, o, sel.Encs, sel.Weights)
	for i, share := range shares {
		res.Attrs[i].Responsibility = share
	}
	res.Elapsed = time.Since(start)
	esp.SetFloat("base-score", res.BaseScore)
	esp.SetFloat("score", res.Score)
	return res, nil
}

// recordPruneSpan closes a prune-phase span with its input/kept counts and
// mirrors the per-rule drop counts into the trace's counter set
// (pruned.<phase>.<rule>).
func recordPruneSpan(tr *obs.Trace, sp *obs.Span, phase string, st PruneStats) {
	if tr != nil {
		for reason, n := range st.Dropped {
			tr.Add(obs.PrunedCounter(phase, string(reason)), int64(n))
		}
	}
	sp.SetInt("input", int64(st.Input))
	sp.SetInt("kept", int64(st.Kept))
	sp.End()
}

// Selection is the raw MCIMR output: the chosen attributes with their
// encodings and per-attribute IPW weights (needed for joint scoring), each
// weight vector in its encoding's form.
type Selection struct {
	Attrs   []SelectedAttr
	Encs    []*bins.Encoded
	Weights [][]float64
}

// considerEval is the outcome of evaluating one candidate at the current
// selection state: the responsibility-test verdict and, when that passes,
// the joint score with the candidate added plus the calibrated-gain verdict.
type considerEval struct {
	enc      *bins.Encoded
	w        []float64
	respSkip bool    // responsibility test says O ⊥ E | selected
	newScore float64 // I(O;T|C,selected,E); valid when !respSkip
	gainOK   bool    // calibrated gain verdict; valid when the minGain threshold passed
	err      error
}

// MCIMRCtx implements Algorithm 1: incremental selection by minimal
// conditional mutual information and minimal redundancy, stopping at K
// attributes or when the responsibility test (Lemma 4.2) fails for the next
// attribute. Cancellation is checked before every iteration, before every
// candidate consideration, and inside the parallel relevance/redundancy
// passes and permutation tests; on cancellation the returned error wraps
// ctx.Err(). (The suffix stays until a benchmark PR can rename the call in
// bench/pipeline.go; there is no non-ctx form.)
//
// Two representation tricks keep the consider loop off the hot path's
// original cost curve without changing a single verdict:
//
//   - The selected prefix is folded into one pre-joined composite variable
//     (infotheory.JoinVars), rebuilt only when an attribute is accepted.
//     Conditioning on the composite partitions rows identically to
//     conditioning on the set, and because the composite's codes are the
//     DenseIDs product of the set, every downstream statistic is
//     bit-identical — but each estimator call now joins 2 columns instead
//     of k+1. The combined IPW weights of the prefix are folded
//     incrementally alongside (same left-to-right order as
//     weightProduct over the full set).
//
//   - Candidates are ranked once per iteration by the Eq. 5 objective
//     (score ascending, candidate index as tie-break — exactly the order
//     the argmin visits them, and frozen for the iteration because
//     relevance and redundancy only change on accept). The consider loop
//     then tests them one at a time in that order, each under its own
//     span, until one passes; no candidate ranked after the accepted one
//     is evaluated.
func MCIMRCtx(ctx context.Context, t, o *bins.Encoded, cands []*Candidate, opts Options) (*Selection, error) {
	opts.applyDefaults()
	return mcimr(ctx, newSlotFolds(t, o), cands, opts)
}

// mcimr is MCIMRCtx folding from the cubes of folds, which may hold the
// online prune's: the relevance pass and the first iteration's tests read
// the (·, O, T) and (·, O, ·) cubes it built. opts has its defaults applied.
func mcimr(ctx context.Context, folds *slotFolds, cands []*Candidate, opts Options) (*Selection, error) {
	t, o := folds.t, folds.o
	tr := opts.Trace
	msp := tr.Start("mcimr")
	defer msp.End()
	sel := &Selection{}
	if len(cands) == 0 {
		return sel, nil
	}

	type state struct {
		cand      *Candidate
		relevance float64 // I(O;T|C,E), computed once
		redSum    float64 // Σ_{Ei selected} I(E;Ei), accumulated
		selected  bool
		skipped   bool
		err       error
	}
	states := make([]*state, len(cands))
	baseScore := infotheory.MutualInfo(o, t, nil)
	currentScore := baseScore
	scorer := opts.Scorer
	if scorer == nil {
		scorer = Local{Parallelism: opts.Parallelism}
	}

	// Pass 1: individual relevance of every candidate. Encodings and IPW
	// weights materialize in parallel, then the assembled ScoreContext — the
	// immutable dataset a remote scorer ships to its workers once — is handed
	// to the Scorer seam. Local evaluates the same per-candidate CMI the
	// inline loop used to.
	rsp := tr.Start("relevance-pass")
	sctx := &ScoreContext{T: t, O: o, Tag: opts.ScoreTag, folds: folds,
		Cands: make([]*bins.Encoded, len(cands)), Weights: make([][]float64, len(cands))}
	parallelFor(ctx, len(cands), opts.Parallelism, func(i int) {
		st := &state{cand: cands[i]}
		states[i] = st
		sctx.Cands[i], sctx.Weights[i], st.err = cands[i].Vectors()
	})
	if err := ctx.Err(); err != nil {
		rsp.End()
		return nil, fmt.Errorf("core: MCIMR relevance pass: %w", err)
	}
	for _, st := range states {
		if st.err != nil {
			rsp.End()
			return nil, fmt.Errorf("core: MCIMR relevance pass: %w", st.err)
		}
	}
	all := make([]int, len(cands))
	for i := range all {
		all[i] = i
	}
	rel, err := scorer.Relevance(ctx, sctx, all)
	tr.Add(obs.CandidatesScored, int64(len(cands)))
	rsp.SetInt("candidates", int64(len(cands)))
	rsp.End()
	if err != nil {
		return nil, fmt.Errorf("core: MCIMR relevance pass: %w", err)
	}
	for i, st := range states {
		st.relevance = rel[i]
	}

	// Pre-joined composite of the selected prefix and its combined weights.
	var selJoin infotheory.Var
	var selW infotheory.Weights
	given := func() []infotheory.Var {
		if selJoin == nil {
			return nil
		}
		return []infotheory.Var{selJoin}
	}

	evalOne := func(cst *state, idx, iter int) *considerEval {
		ev := &considerEval{}
		if ev.enc, ev.w, ev.err = cst.cand.Vectors(); ev.err != nil {
			return ev
		}
		// Responsibility test (Lemma 4.2): O ⊥ E | selected means the
		// attribute's responsibility would be ≈ 0.
		if !opts.DisableStopping {
			ind, err := respIndependent(ctx, cst.cand, ev.enc, ev.w, given(), selW, len(sel.Encs), opts, iter, scorer, sctx, idx)
			if err != nil {
				ev.err = err
				return ev
			}
			if ind {
				ev.respSkip = true
				return ev
			}
		}
		// Objective guard (Def. 2.3): accepting an attribute must reduce
		// the joint score, and the reduction must be *real* — plug-in CMI
		// shrinks under any extra conditioning (stratum shattering), so the
		// gain is calibrated against permuted copies of the candidate,
		// which shatter identically. The calibration only runs when the
		// minGain threshold passed (currentScore is frozen per iteration).
		folded := false
		if selW.W == nil && ev.w == nil {
			ev.newScore, folded = folds.perm(PermGain, ev.enc, given())
		}
		if !folded {
			ev.newScore = infotheory.CondMutualInfo(o, t, append(given(), ev.enc), weightProduct(selW, weightsOf(ev.enc, ev.w)))
		}
		if !opts.DisableStopping && ev.newScore < currentScore-minGain*baseScore {
			ev.gainOK, ev.err = gainSignificant(ctx, cst.cand, ev.enc, given(), opts, iter, scorer, sctx, idx)
		}
		return ev
	}

	skipsLeft := skipBudget
	for iter := 0; iter < opts.K; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: MCIMR iteration %d: %w", iter+1, err)
		}
		var isp *obs.Span
		if tr != nil {
			isp = tr.Start("iteration " + strconv.Itoa(iter+1))
		}
		// NextBestAtt: minimize relevance + redundancy/|E| (Eq. 5).
		// Candidates that fail the responsibility test or the gain guard
		// are skipped (bounded by skipBudget) and the next-best is tried.
		type rankedCand struct {
			idx   int
			score float64
		}
		open := make([]rankedCand, 0, len(states))
		for i, cst := range states {
			if cst.selected || cst.skipped {
				continue
			}
			score := cst.relevance
			if len(sel.Encs) > 0 {
				score += cst.redSum / float64(len(sel.Encs))
			}
			open = append(open, rankedCand{idx: i, score: score})
		}
		sort.Slice(open, func(a, b int) bool {
			if open[a].score != open[b].score {
				return open[a].score < open[b].score
			}
			return open[a].idx < open[b].idx
		})

		var chosen *state
		var chosenEnc *bins.Encoded
		var chosenW []float64
		for _, rc := range open {
			if err := ctx.Err(); err != nil {
				isp.End()
				return nil, fmt.Errorf("core: MCIMR iteration %d: %w", iter+1, err)
			}
			cst := states[rc.idx]
			var csp *obs.Span
			if tr != nil {
				csp = tr.Start("consider " + cst.cand.Name)
			}
			ev := evalOne(cst, rc.idx, iter)
			if ev.err != nil {
				csp.End()
				isp.End()
				return nil, ev.err
			}
			if ev.respSkip || (!opts.DisableStopping && (ev.newScore >= currentScore-minGain*baseScore || !ev.gainOK)) {
				cst.skipped = true
				skipsLeft--
				tr.Add(obs.MCIMRSkips, 1)
				if ev.respSkip {
					csp.SetStr("outcome", "skip:responsibility-test")
				} else {
					csp.SetStr("outcome", "skip:gain-guard")
					csp.SetFloat("cmi", ev.newScore)
				}
				csp.End()
				if skipsLeft < 0 {
					isp.SetStr("outcome", "skip-budget-exhausted")
					isp.End()
					return sel, nil
				}
				continue
			}
			currentScore = ev.newScore
			chosen, chosenEnc, chosenW = cst, ev.enc, ev.w
			csp.SetStr("outcome", "selected")
			csp.SetFloat("cmi", ev.newScore)
			csp.End()
			break
		}
		if chosen == nil {
			isp.SetStr("outcome", "pool-exhausted")
			isp.End()
			return sel, nil
		}

		chosen.selected = true
		tr.Add(obs.MCIMRIterations, 1)
		isp.SetStr("candidate", chosen.cand.Name)
		isp.SetFloat("cmi", currentScore)
		isp.SetFloat("relevance", chosen.relevance)
		sel.Attrs = append(sel.Attrs, SelectedAttr{
			Name:      chosen.cand.Name,
			Origin:    chosen.cand.Origin,
			Hops:      chosen.cand.Hops,
			Relevance: chosen.relevance,
		})
		sel.Encs = append(sel.Encs, chosenEnc)
		sel.Weights = append(sel.Weights, chosenW)
		tr.Add(obs.CompositeRebuilds, 1)
		selW = weightProduct(selW, weightsOf(chosenEnc, chosenW))

		if iter == opts.K-1 {
			isp.End()
			break
		}
		// The accepted attribute read into rows once (a KG attribute through
		// its map): the redundancy pass below and, through the prefix
		// composite, every test of the later iterations condition on it, as
		// they do on the composite of two or more.
		chosenRows := infotheory.JoinVars(chosenEnc.Name, chosenEnc)
		if selJoin == nil {
			selJoin = chosenRows
		} else {
			selJoin = infotheory.JoinVars("selected", selJoin, chosenRows)
		}
		folds.reset() // every later test conditions on the new prefix
		// Accumulate redundancy with the newly selected attribute
		// (parallel over remaining candidates); an unweighted entity form's
		// is folded from its link column's (slot, chosen) cube.
		red := tr.Start("redundancy-pass")
		parallelFor(ctx, len(states), opts.Parallelism, func(i int) {
			si := states[i]
			if si.selected || si.skipped || si.err != nil {
				return
			}
			encI, wI, err := si.cand.Vectors()
			if err != nil {
				si.err = err
				return
			}
			if wI == nil && chosenW == nil {
				if v, ok := folds.cmi(encI, nil, nil, chosenRows, counting.AxisX); ok {
					si.redSum += v
					return
				}
			}
			wi := weightProduct(weightsOf(encI, wI), weightsOf(chosenEnc, chosenW))
			si.redSum += infotheory.CondMutualInfo(encI, chosenRows, nil, wi)
		})
		red.End()
		isp.End()
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: MCIMR redundancy pass: %w", err)
		}
		for _, si := range states {
			if si.err != nil {
				return nil, fmt.Errorf("core: MCIMR redundancy pass: %w", si.err)
			}
		}
	}
	return sel, nil
}

// respIndependent runs the responsibility test for a selected candidate:
// true means O ⊥ E | selected (adding E has ≈0 responsibility; stop).
//
// Candidates exposing Permute get a permutation test at their source
// granularity (permSignificant, PermResp). Candidates without Permute fall
// back to the analytic debiased-CMI test with IPW weights.
//
// given is the pre-joined composite of the selected prefix (possibly nil);
// w the candidate's own IPW weights, in enc's form; selW the prefix's
// combined weights;
// depth the logical size of the prefix, used only for permutation-seed
// derivation; idx the candidate's index in sctx.Cands.
func respIndependent(ctx context.Context, cand *Candidate, enc *bins.Encoded, w []float64, given []infotheory.Var, selW infotheory.Weights, depth int, opts Options, iter int, scorer Scorer, sctx *ScoreContext, idx int) (bool, error) {
	if cand.Permute == nil {
		opts.Trace.Add(obs.CITests, 1)
		testW := weightProduct(selW, weightsOf(enc, w))
		return infotheory.CondIndependent(sctx.O, enc, given, testW, respThreshold), nil
	}
	dependent, err := permSignificant(ctx, opts.Trace, PermResp, sctx.T, sctx.O, cand, enc, given,
		opts.Seed+uint64(iter), depth, permTests, permAllow, opts.Parallelism, scorer, sctx, idx)
	return !dependent, err
}

// gainSignificant calibrates the joint-score reduction of a candidate
// against its permutation null (permSignificant, PermGain): the unweighted
// joint score with the real candidate must undercut the joint score of all
// but permAllow of permTests permuted copies. A permuted copy has identical
// cardinality and missingness, so it shatters the contingency strata exactly
// as much — any additional reduction must be genuine dependence. Candidates
// without Permute pass (minGain already screened them).
func gainSignificant(ctx context.Context, cand *Candidate, enc *bins.Encoded, given []infotheory.Var, opts Options, iter int, scorer Scorer, sctx *ScoreContext, idx int) (bool, error) {
	if cand.Permute == nil {
		return true, nil
	}
	return permSignificant(ctx, opts.Trace, PermGain, sctx.T, sctx.O, cand, enc, given,
		opts.Seed, iter, permTests, permAllow, opts.Parallelism, scorer, sctx, idx)
}

// ScoreSet is the final score of an attribute set and its Def. 2.5
// responsibilities, computed from the candidates exactly as Explain computes
// them for the set MCIMR selects: SetScore over the candidates' Vectors, and
// each candidate's share of the leave-one-out increase of that score under
// the same weights, in the order given.
func ScoreSet(t, o *bins.Encoded, cands []*Candidate) (score float64, shares []float64, err error) {
	encs := make([]*bins.Encoded, len(cands))
	ws := make([][]float64, len(cands))
	for i, c := range cands {
		if encs[i], ws[i], err = c.Vectors(); err != nil {
			return 0, nil, err
		}
	}
	score, shares = scoreSet(nil, t, o, encs, ws)
	return score, shares, nil
}

// SetScore is the final score of an attribute set without its
// responsibilities: I(O;T|C,E) with encs[i] and ws[i] the encoding and
// weights Vectors reads of attribute i, under the product of the weights
// (weightProduct). A ws shorter than encs leaves the attributes past its end
// unweighted; nil scores the set unweighted. Explain, ScoreSet and the
// baselines all score a set through it.
func SetScore(t, o *bins.Encoded, encs []*bins.Encoded, ws [][]float64) float64 {
	score, _ := setScore(t, o, encs, ws)
	return score
}

// setScore is SetScore, also returning the weights it scored under.
func setScore(t, o *bins.Encoded, encs []*bins.Encoded, ws [][]float64) (float64, infotheory.Weights) {
	forms := make([]infotheory.Weights, len(ws))
	for i, w := range ws {
		forms[i] = weightsOf(encs[i], w)
	}
	w := weightProduct(forms...)
	return infotheory.CondMutualInfo(o, t, encs, w), w
}

// scoreSet is ScoreSet over the candidates' vectors (ws[i] in encs[i]'s
// form), reporting its two phases into tr.
func scoreSet(tr *obs.Trace, t, o *bins.Encoded, encs []*bins.Encoded, ws [][]float64) (float64, []float64) {
	ssp := tr.Start("final-score")
	score, w := setScore(t, o, encs, ws)
	ssp.End()
	rsp := tr.Start("responsibility")
	shares := responsibilities(t, o, encs, w, score)
	rsp.SetInt("explanation-size", int64(len(encs)))
	rsp.End()
	return score, shares
}

// responsibilities computes Def. 2.5 for an attribute set: attribute i's
// share of the total leave-one-out increase of the score, where full is
// I(O;T|C,E) over the whole set under weights w. A single attribute bears
// all the responsibility; when no attribute's removal moves the score every
// share is 0.
func responsibilities(t, o *bins.Encoded, encs []*bins.Encoded, w infotheory.Weights, full float64) []float64 {
	k := len(encs)
	shares := make([]float64, k)
	if k == 1 {
		shares[0] = 1
		return shares
	}
	var denom float64
	for i := range shares {
		without := make([]*bins.Encoded, 0, k-1)
		for j, e := range encs {
			if j != i {
				without = append(without, e)
			}
		}
		shares[i] = infotheory.CondMutualInfo(o, t, without, w) - full
		denom += shares[i]
	}
	for i := range shares {
		if denom != 0 {
			shares[i] /= denom
		} else {
			shares[i] = 0
		}
	}
	return shares
}
