package nexus

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"nexus/internal/bins"
	"nexus/internal/core"
	"nexus/internal/counting"
	"nexus/internal/extract"
	"nexus/internal/missing"
	"nexus/internal/ned"
	"nexus/internal/obs"
	"nexus/internal/sqlx"
	"nexus/internal/stats"
	"nexus/internal/subgroups"
	"nexus/internal/table"
)

// Analysis is a prepared explanation problem: the executed query, its
// analysis view, the encoded exposure and outcome, and the full candidate
// set (input columns + extracted KG attributes with IPW wiring). The same
// Analysis can be fed to MESA and to every baseline, which is how the
// comparison harness keeps methods on identical inputs.
type Analysis struct {
	Query  *sqlx.Query
	Result *sqlx.Result
	// View is the context-filtered relation being explained.
	View *table.Table
	// T and O are the encoded exposure and outcome over View.
	T, O *bins.Encoded
	// Candidates is 𝒜 = ℰ ∪ 𝒯 \ {O, T}.
	Candidates []*core.Candidate
	// Extraction is the KG extraction over View (nil without a graph).
	Extraction *extract.Extraction
	// LinkStats records NED outcomes per link column.
	LinkStats map[string]ned.Stats

	session *Session
	binOpts bins.Options
	byName  map[string]*core.Candidate
	// metrics is the prepare call's counter set, which every lazy stage (IPW
	// detection, row broadcasts of KG candidates) counts into.
	metrics *obs.Counters
	// biased counts this analysis's own obs.BiasedAttrs additions, the
	// count NumBiased reports.
	biased atomic.Int64
	// ipw is the extraction's IPW state under this analysis's outcome and
	// bins, shared by every analysis that asks the same of the extraction.
	ipw *ipwState
}

// slotOutcome is the outcome aggregated to one link column's entity slots,
// computed once and shared read-only by every attribute extracted through
// that column (they share the row→slot mapping, see Attribute.RowSlots).
type slotOutcome struct {
	meanO    []float64     // mean outcome per slot, NaN where no row has one
	meanOEnc *bins.Encoded // meanO discretized; nil when it does not encode
}

// slotOutcomeOf aggregates the outcome over slots, the row→slot map of a link
// column with nSlots entity slots.
func (a *Analysis) slotOutcomeOf(slots []int32, nSlots int) slotOutcome {
	out := a.View.MustColumn(a.Result.Outcome)
	meanO, cnt := make([]float64, nSlots), make([]float64, nSlots)
	for i, sl := range slots {
		if sl >= 0 && !out.IsNull(i) {
			meanO[sl] += out.Float(i)
			cnt[sl]++
		}
	}
	for i := range meanO {
		meanO[i] /= cnt[i]
		if cnt[i] == 0 {
			meanO[i] = math.NaN()
		}
	}
	// An encode error leaves meanOEnc nil: no attribute of this link
	// column gets weights, as when each of them failed the same encode.
	enc, _ := bins.Encode(table.NewFloatColumn("meanO", meanO), a.binOpts)
	return slotOutcome{meanO: meanO, meanOEnc: enc}
}

// traced is ctx with a trace named name over Metrics when ctx carries none:
// every entry point's first step, so counters reach Metrics as a trace's.
func (o *Options) traced(ctx context.Context, name string) context.Context {
	if o.Metrics == nil || obs.TraceFrom(ctx) != nil {
		return ctx
	}
	return obs.WithTrace(ctx, obs.NewWithCounters(name, o.Metrics))
}

// adaptiveBins picks the discretization granularity from the view size:
// coarse bins keep the plug-in estimators and the permutation tests
// informative on small relations (Covid-19 has one row per country), while
// large relations support the full 8 bins.
func adaptiveBins(rows int) int {
	switch {
	case rows < 600:
		return 4
	case rows < 4000:
		return 6
	default:
		return 8
	}
}

// PrepareCtx parses and executes sql, then assembles the explanation
// problem, honouring ctx through every phase (query execution, encoding,
// KG extraction). On cancellation the returned error wraps ctx.Err().
func (s *Session) PrepareCtx(ctx context.Context, sql string) (*Analysis, error) {
	ctx = s.opts.traced(ctx, "prepare")
	psp := obs.TraceFrom(ctx).Start("parse")
	q, err := sqlx.Parse(sql)
	psp.End()
	if err != nil {
		return nil, err
	}
	return s.PrepareQueryCtx(ctx, q)
}

// PrepareQueryCtx is PrepareCtx for a pre-parsed query.
func (s *Session) PrepareQueryCtx(ctx context.Context, q *sqlx.Query) (*Analysis, error) {
	ctx = s.opts.traced(ctx, "prepare")
	tr := obs.TraceFrom(ctx)
	psp := tr.Start("prepare")
	defer psp.End()

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("nexus: prepare: %w", err)
	}

	esp := tr.Start("execute-query")
	res, err := sqlx.Execute(q, s.catalog)
	if err != nil {
		esp.End()
		return nil, err
	}
	esp.SetInt("view-rows", int64(res.View.NumRows()))
	esp.End()
	if err := explainable(q, res); err != nil {
		return nil, err
	}
	a := &Analysis{
		Query:     q,
		Result:    res,
		View:      res.View,
		LinkStats: map[string]ned.Stats{},
		session:   s,
		binOpts:   bins.Options{Bins: adaptiveBins(res.View.NumRows())},
		byName:    map[string]*core.Candidate{},
		metrics:   tr.Counters(),
	}

	// Encode exposure (possibly multiple grouping attributes) and outcome.
	csp := tr.Start("encode-exposure-outcome")
	parts := make([]*bins.Encoded, 0, len(res.Exposure))
	for _, g := range res.Exposure {
		e, err := bins.Encode(res.View.MustColumn(g), a.binOpts)
		if err != nil {
			csp.End()
			return nil, err
		}
		parts = append(parts, e)
	}
	a.T = core.CombineExposure(parts)
	a.O, err = bins.Encode(res.View.MustColumn(res.Outcome), a.binOpts)
	csp.End()
	if err != nil {
		return nil, err
	}

	// Input-table candidates: every view column except T, O and the WHERE
	// attributes (constants within the context).
	isp := tr.Start("input-candidates")
	exclude := append([]string{res.Outcome}, res.Exposure...)
	for _, c := range q.Where {
		exclude = append(exclude, c.Attr)
	}
	exclude = append(exclude, s.excludes[q.Table]...)
	inputCands, err := core.CandidatesFromTable(res.View, exclude, a.binOpts)
	if err != nil {
		isp.End()
		return nil, err
	}
	a.Candidates = append(a.Candidates, inputCands...)
	isp.SetInt("candidates", int64(len(inputCands)))
	isp.End()

	// KG candidates over the view. With an ExtractCache the whole NED +
	// graph-walk pass runs once per dataset context (singleflight); repeat
	// and concurrent requests share the cached Extraction, including its
	// per-attribute encoding caches and, per outcome column, its IPW state.
	if s.src != nil {
		links := s.linkColumnsIn(q.Table, res.View)
		if len(links) > 0 {
			ksp := tr.Start("kg-extract")
			ce, err := s.opts.ExtractCache.lookup(ctx, extractionKey(q, links, s.opts.Hops), func() (*extract.Extraction, error) {
				return extract.ExtractCtx(ctx, res.View, links, s.src, s.linker, extract.Options{
					Hops:  s.opts.Hops,
					Trace: tr,
				})
			})
			if err != nil {
				ksp.End()
				return nil, err
			}
			a.Extraction, a.ipw = ce.ex, ce.ipwFor(res.Outcome, a.binOpts)
			for lc, st := range ce.ex.LinkStats {
				a.LinkStats[lc] = st
			}
			for i, attr := range ce.ex.Attrs {
				a.Candidates = append(a.Candidates, s.kgCandidate(a, attr, &a.ipw.weights[i]))
			}
			ksp.SetInt("attributes", int64(len(ce.ex.Attrs)))
			ksp.End()
		}
	}
	for _, c := range a.Candidates {
		a.byName[c.Name] = c
	}
	return a, nil
}

// explainable rejects executed queries that are valid SQL (sqlx.Execute
// answers them) but pose no Correlation-Explanation problem: an aggregate
// other than count over a column of strings, whose "correlation" with T is
// that of arbitrary dictionary codes, and an outcome that is also a grouping
// attribute (count(*) included, which counts the first one), where O = T. A
// column without a single value has no type to object to (CSV ingest calls it
// a string column) and stays the defined "no explanation" it always was.
func explainable(q *sqlx.Query, res *sqlx.Result) error {
	out := res.View.MustColumn(res.Outcome)
	if q.Agg != table.AggCount && out.Typ == table.String && out.NullCount() < out.Len() {
		return fmt.Errorf("nexus: cannot explain %s(%s): column %q is not numeric", q.Agg, q.Outcome, res.Outcome)
	}
	if slices.Contains(res.Exposure, res.Outcome) {
		return fmt.Errorf("nexus: cannot explain %s(%s) grouped by %s: the outcome column %q is also a grouping attribute",
			q.Agg, q.Outcome, strings.Join(res.Exposure, ", "), res.Outcome)
	}
	return nil
}

// linkColumnsIn returns the registered link columns still present in view.
func (s *Session) linkColumnsIn(tableName string, view *table.Table) []string {
	var out []string
	for _, lc := range s.links[tableName] {
		if view.HasColumn(lc) {
			out = append(out, lc)
		}
	}
	return out
}

// kgCandidate wraps an extracted attribute as a core.Candidate in entity
// form. It supplies the data — the slot-level encoding, the link column's
// shared row→slot map, per-slot IPW weights (selection-bias detection +
// logistic propensity fit at entity level, memoised in weights) and the
// entity-level uniqueness statistics; core.FromEntity derives the row vectors
// and the permutation null from them, lazily and once, and every scorer reads
// the entity form (core.Candidate.Vectors), so no candidate reaches rows.
func (s *Session) kgCandidate(a *Analysis, attr *extract.Attribute, weights *onceValue[[]float64]) *core.Candidate {
	ent := &core.Entity{
		Slots: attr.RowSlots(),
		Enc:   func() (*bins.Encoded, error) { return attr.EntityEncode(a.binOpts) },
	}
	if !s.opts.DisableIPW {
		ent.Weights = func() []float64 {
			w := weights.get(func() []float64 { return a.ipwWeights(attr) })
			if w != nil {
				a.biased.Add(1)
				a.metrics.Add(obs.BiasedAttrs, 1)
			}
			return w
		}
	}
	c := core.FromEntity(attr.Name, attr.Hops, ent, a.metrics)
	// Entity-level uniqueness statistics drive the high-entropy prune, but
	// only for categorical attributes: a continuous numeric attribute is
	// naturally unique per entity and becomes low-cardinality after
	// binning, whereas a near-unique string (wikiID, Leader) is an
	// identifier the paper prunes.
	if attr.Col.Typ == table.String {
		c.EntityCard = attr.Col.DistinctCount()
		c.EntityComplete = attr.Col.Len() - attr.Col.NullCount()
	}
	return c
}

// ipwWeights detects selection bias for one extracted attribute and, when
// found, returns its IPW weights, one per entity slot (nil otherwise).
// Missingness of an extracted attribute is an entity-level event, so both the
// detection and the propensity model run at entity (slot) level, against the
// link column's slot-level mean outcome (the observed variable R_E may depend
// on).
func (a *Analysis) ipwWeights(attr *extract.Attribute) []float64 {
	if attr.Col.Len() == 0 {
		return nil
	}
	shared, _ := a.ipw.outcomes.LoadOrStore(attr.LinkColumn, new(onceValue[slotOutcome]))
	so := shared.(*onceValue[slotOutcome]).get(func() slotOutcome { return a.slotOutcomeOf(attr.RowSlots(), attr.Col.Len()) })
	if so.meanOEnc == nil {
		return nil
	}
	entEnc, err := attr.EntityEncode(a.binOpts)
	if err != nil {
		return nil
	}
	rep := missing.DetectBias(entEnc, map[string]*bins.Encoded{"O": so.meanOEnc}, a.metrics)
	if !rep.Biased {
		return nil
	}
	a.metrics.Add(obs.IPWFits, 1)
	return missing.Weights(entEnc, so.meanO)
}

// NumBiased returns the number of KG attributes flagged with selection bias
// whose weights this analysis has read so far (detection is lazy, and may
// have run for an earlier analysis of the same cached extraction; the count
// is complete after an Explain). Only a candidate that reaches a weighted
// test is tested for bias: one the online prune's entity-level permutation
// null rejects never is, so this is not the number of biased attributes in
// the extraction. It counts this analysis alone; each count is also added to
// obs.BiasedAttrs in the analysis's counter set.
func (a *Analysis) NumBiased() int { return int(a.biased.Load()) }

// KGCandidate wraps an attribute of a's extraction (typically a modified
// copy, e.g. with injected missingness) as a candidate with the session's
// usual lazy encoding and IPW wiring. Its weights are its own, fitted to its
// column; only the link column's slot-level outcome is shared.
func (a *Analysis) KGCandidate(attr *extract.Attribute) *core.Candidate {
	return a.session.kgCandidate(a, attr, new(onceValue[[]float64]))
}

// Candidate returns the named candidate, or nil. It looks up by name alone:
// where a knowledge-graph attribute shares an input column's name, the
// attribute is returned. (Report.SubgroupsCtx resolves the selected
// attributes by name and origin.)
func (a *Analysis) Candidate(name string) *core.Candidate { return a.byName[name] }

// ExplainCtx runs the full MESA pipeline on the prepared analysis,
// honouring ctx through pruning, MCIMR and the permutation tests. On
// cancellation the returned error wraps ctx.Err().
func (a *Analysis) ExplainCtx(ctx context.Context) (*Report, error) {
	ctx = a.session.opts.traced(ctx, "explain")
	opts := a.session.opts.Core
	opts.Trace = obs.TraceFrom(ctx)
	if opts.Scorer != nil && opts.ScoreTag == "" {
		// Qualify the fingerprints shipped to scoring workers with the same
		// dataset/KG identity the report cache keys on, so two sessions with
		// coincidentally equal encodings cannot alias on a shared fleet.
		opts.ScoreTag = a.session.DatasetFingerprint() + "|" + a.session.KGVersion()
	}
	ex, err := core.Explain(ctx, a.T, a.O, a.Candidates, opts)
	if err != nil {
		return nil, err
	}
	return &Report{Analysis: a, Explanation: ex}, nil
}

// Report is the result of explaining one query.
type Report struct {
	Analysis    *Analysis
	Explanation *core.Explanation
}

// ExplainCtx is the one-call entry point honouring ctx: parse, execute,
// prepare (with cached KG extraction when Options.ExtractCache is set) and
// explain, with cooperative cancellation checkpoints throughout. This is
// what a server calls with a per-request context so deadlines, client
// disconnects and graceful shutdown actually stop work; on cancellation the
// returned error wraps ctx.Err().
func (s *Session) ExplainCtx(ctx context.Context, sql string) (*Report, error) {
	ctx = s.opts.traced(ctx, "explain")
	a, err := s.PrepareCtx(ctx, sql)
	if err != nil {
		return nil, err
	}
	return a.ExplainCtx(ctx)
}

// Summary renders a human-readable report.
func (r *Report) Summary() string {
	var b strings.Builder
	ex := r.Explanation
	fmt.Fprintf(&b, "query: %s\n", r.Analysis.Query.String())
	fmt.Fprintf(&b, "I(O;T|C) = %.4f bits (unexplained correlation)\n", ex.BaseScore)
	if len(ex.Attrs) == 0 {
		b.WriteString("no explanation found\n")
		return b.String()
	}
	fmt.Fprintf(&b, "explanation (I(O;T|C,E) = %.4f, %.1f%% explained):\n",
		ex.Score, 100*(1-safeRatio(ex.Score, ex.BaseScore)))
	for _, attr := range ex.Attrs {
		fmt.Fprintf(&b, "  %-40s origin=%-5s responsibility=%.2f\n", attr.Name, attr.Origin, attr.Responsibility)
	}
	fmt.Fprintf(&b, "candidates: %d (%d with selection bias, IPW applied)\n",
		len(r.Analysis.Candidates), r.Analysis.NumBiased())
	fmt.Fprintf(&b, "elapsed: %v\n", ex.Elapsed)
	return b.String()
}

// ExplainedFraction returns 1 - Score/BaseScore (clamped to [0,1]).
func (r *Report) ExplainedFraction() float64 {
	f := 1 - safeRatio(r.Explanation.Score, r.Explanation.BaseScore)
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// SubgroupsCtx finds the top-k largest context refinements where the
// report's explanation fails (Algorithm 2). tau ≤ 0 selects the paper-style
// default of max(0.2, 2× the explanation score). The lattice search checks
// ctx for cancellation before scoring each batch; on cancellation the
// returned error wraps ctx.Err().
func (r *Report) SubgroupsCtx(ctx context.Context, k int, tau float64) ([]subgroups.Group, subgroups.Stats, error) {
	return r.SubgroupsWithOptions(ctx, subgroups.Options{K: k, Tau: tau})
}

// SubgroupsWithOptions is SubgroupsCtx with the full search configuration
// exposed — notably Parallelism, which the benchmarks sweep to compare the
// serial and batched lattice traversals on identical inputs (results are
// byte-identical at any setting; only wall clock and effort counters move).
// Zero fields select the session-level defaults SubgroupsCtx uses: the
// paper-style τ of max(0.2, 2× the explanation score) and the session's
// Core.Parallelism.
func (r *Report) SubgroupsWithOptions(ctx context.Context, opts subgroups.Options) ([]subgroups.Group, subgroups.Stats, error) {
	sess := r.Analysis.session
	ctx = sess.opts.traced(ctx, "subgroups")
	if opts.Tau <= 0 {
		opts.Tau = 2 * r.Explanation.Score
		if opts.Tau < 0.2 {
			opts.Tau = 0.2
		}
	}
	if opts.Parallelism <= 0 {
		opts.Parallelism = sess.opts.Core.Parallelism
	}
	encs, err := r.explanationEncodings()
	if err != nil {
		return nil, subgroups.Stats{}, err
	}
	attrs, err := r.Analysis.refinementAttrs()
	if err != nil {
		return nil, subgroups.Stats{}, err
	}
	return subgroups.TopUnexplained(ctx, r.Analysis.T, r.Analysis.O, encs, attrs, opts)
}

// ExplainSubgroupCtx re-explains the query inside one unexplained subgroup
// — the paper's Example 4.5 workflow: after Algorithm 2 surfaces "Continent
// == Europe", the analyst refines the context and obtains a different
// explanation for that group. Refinements over input-table columns become
// WHERE conjuncts on the original query; refinements over extracted
// attributes are not expressible in SQL over the input table and return an
// error. ctx is honoured through the refined query's prepare and explain
// phases.
func (r *Report) ExplainSubgroupCtx(ctx context.Context, g subgroups.Group) (*Report, error) {
	ctx = r.Analysis.session.opts.traced(ctx, "explain")
	q := *r.Analysis.Query
	q.Where = append([]sqlx.Condition(nil), q.Where...)
	for _, cond := range g.Conds {
		if !r.Analysis.View.HasColumn(cond.Attr) {
			return nil, fmt.Errorf("nexus: subgroup condition on extracted attribute %q cannot be refined in SQL", cond.Attr)
		}
		q.Where = append(q.Where, sqlx.Condition{Attr: cond.Attr, Op: sqlx.OpEq, IsStr: true, Str: cond.Value})
	}
	a, err := r.Analysis.session.PrepareQueryCtx(ctx, &q)
	if err != nil {
		return nil, err
	}
	return a.ExplainCtx(ctx)
}

// explanationEncodings returns the encodings of the selected attributes, each
// resolved by name and origin (an input column and a knowledge-graph
// attribute may share a name) and read as the scoring core reads it
// (core.Candidate.Vectors): a candidate in entity form as its indirect
// column, any other as its row encoding.
func (r *Report) explanationEncodings() ([]*bins.Encoded, error) {
	var out []*bins.Encoded
	for _, attr := range r.Explanation.Attrs {
		var c *core.Candidate
		for _, cand := range r.Analysis.Candidates {
			if cand.Name == attr.Name && cand.Origin == attr.Origin {
				c = cand
			}
		}
		if c == nil {
			return nil, fmt.Errorf("nexus: selected attribute %q not among candidates", attr.Name)
		}
		e, _, err := c.Vectors()
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// refinementAttrs picks the categorical dimensions for subgroup discovery:
// input columns first, then low-cardinality KG attributes, capped for
// tractability. An input column reads its input candidate's encoding; only
// a column without one (a WHERE attribute) is encoded here. A KG attribute
// is judged at entity level (every rule is an integer function of slot
// codes × rows per slot) and handed over in that form, under its link
// column's row→slot map, so the search can carry nodes on it as slots.
func (a *Analysis) refinementAttrs() ([]subgroups.RefinementAttr, error) {
	const maxAttrs = 24
	var out []subgroups.RefinementAttr
	exclude := map[string]bool{a.Result.Outcome: true}
	for _, g := range a.Result.Exposure {
		exclude[g] = true
	}
	// Not a.byName: a KG attribute may share a view column's name.
	inputs := map[string]*core.Candidate{}
	for _, c := range a.Candidates {
		if c.Origin == core.OriginInput {
			inputs[c.Name] = c
		}
	}
	for _, col := range a.View.Columns() {
		if exclude[col.Name] || col.Typ != table.String {
			continue
		}
		encode := func() (*bins.Encoded, error) { return bins.Encode(col, a.binOpts) }
		if c := inputs[col.Name]; c != nil {
			encode = c.Enc
		}
		e, err := encode()
		if err != nil {
			return nil, err
		}
		if refinementEligible(rowsPerCode(e, nil), len(e.Codes), 1) {
			out = append(out, subgroups.RefinementAttr{Name: col.Name, Enc: e})
			if len(out) >= maxAttrs {
				return out, nil
			}
		}
	}
	if a.Extraction != nil {
		attrs := append([]*extract.Attribute(nil), a.Extraction.Attrs...)
		sort.Slice(attrs, func(i, j int) bool { return attrs[i].Name < attrs[j].Name })
		rowsPerSlot := map[string][]int32{} // per link column
		for _, attr := range attrs {
			if attr.Col.Typ != table.String {
				continue
			}
			e, err := attr.Encode(a.binOpts)
			if err != nil {
				return nil, err
			}
			rows, ok := rowsPerSlot[attr.LinkColumn]
			if !ok {
				rows = counting.RowsPerSlot(e.Slots)
				rowsPerSlot[attr.LinkColumn] = rows
			}
			if !refinementEligible(rowsPerCode(e, rows), e.Len(), 0.5) {
				continue
			}
			out = append(out, subgroups.RefinementAttr{Name: attr.Name, Enc: e})
			if len(out) >= maxAttrs {
				break
			}
		}
	}
	return out, nil
}

// rowsPerCode counts the rows under each code of e. Position i of e.Codes
// stands for rows[i] rows — e is an indirect column, its codes one per slot,
// and rows the link column's rows per slot — or, when rows is nil, for one
// row.
func rowsPerCode(e *bins.Encoded, rows []int32) []int {
	counts := make([]int, e.Card)
	if rows == nil {
		for _, c := range e.Codes {
			if c != bins.Missing {
				counts[c]++
			}
		}
		return counts
	}
	for s, k := range rows {
		if c := e.Codes[s]; c != bins.Missing {
			counts[c] += int(k)
		}
	}
	return counts
}

// maxRefinementCard is the cardinality up to which a categorical attribute
// is a subgroup refinement dimension outright: Algorithm 2 reports the
// *largest* unexplained groups, and past ~20 values an attribute's groups are
// small unless one value dominates (the second rule of refinementEligible).
const maxRefinementCard = 20

// refinementEligible admits a categorical attribute, given its rows per
// value, as a subgroup dimension when it is either low-cardinality or has at
// least one value covering ≥5% of the n rows (so high-cardinality attributes
// with a dominant shared value, like Currency == Euro, still produce large
// groups), and at most maxMissing of the rows lack a value.
func refinementEligible(counts []int, n int, maxMissing float64) bool {
	if len(counts) < 2 || len(counts) > 256 {
		return false
	}
	present, top := 0, 0
	for _, c := range counts {
		present += c
		top = max(top, c)
	}
	if n > 0 && float64(n-present)/float64(n) > maxMissing {
		return false
	}
	return len(counts) <= maxRefinementCard || float64(top) >= 0.05*float64(n)
}

// PartialCorrelations computes, for each named numeric attribute, the
// linear partial correlation between the outcome and that attribute
// controlling for the remaining named attributes — the regression-based
// alternative dependence measure the paper discusses in §2.2. It lets an
// analyst cross-check an information-theoretic explanation with a familiar
// linear statistic. Categorical attributes are skipped (reported as NaN).
func (a *Analysis) PartialCorrelations(names []string) (map[string]float64, error) {
	outcome := a.View.MustColumn(a.Result.Outcome).Floats()
	series := make(map[string][]float64, len(names))
	for _, n := range names {
		vals, ok := a.rawSeries(n)
		if !ok {
			series[n] = nil
			continue
		}
		series[n] = vals
	}
	out := make(map[string]float64, len(names))
	for _, n := range names {
		if series[n] == nil {
			out[n] = math.NaN()
			continue
		}
		var controls [][]float64
		for _, m := range names {
			if m != n && series[m] != nil {
				controls = append(controls, series[m])
			}
		}
		out[n] = stats.PartialCorr(outcome, series[n], controls...)
	}
	return out, nil
}

// rawSeries returns the raw numeric values of a named candidate attribute
// over the view (false for categorical or unknown attributes).
func (a *Analysis) rawSeries(name string) ([]float64, bool) {
	if col := a.View.Column(name); col != nil {
		if col.Typ == table.Float || col.Typ == table.Int {
			return col.Floats(), true
		}
		return nil, false
	}
	if a.Extraction != nil {
		if attr := a.Extraction.Attr(name); attr != nil {
			if attr.Col.Typ == table.Float || attr.Col.Typ == table.Int {
				return attr.Materialize().Floats(), true
			}
		}
	}
	return nil, false
}

// Responsibility re-ranks an explicit attribute set by Def. 2.5 and returns
// name → responsibility. It lets analysts probe sets beyond the one MCIMR
// selected, scoring them as Explain scores its own (core.ScoreSet): under
// the attributes' IPW weights. Each name must be carried by exactly one
// candidate: a name an input column and a knowledge-graph attribute share is
// an error that names their origins, not a silent pick of one of them.
func (a *Analysis) Responsibility(names []string) (map[string]float64, error) {
	cands := make([]*core.Candidate, len(names))
	for i, n := range names {
		var origins []string
		for _, c := range a.Candidates {
			if c.Name == n {
				cands[i] = c
				origins = append(origins, string(c.Origin))
			}
		}
		if len(origins) == 0 {
			return nil, fmt.Errorf("nexus: unknown attribute %q", n)
		}
		if len(origins) > 1 {
			return nil, fmt.Errorf("nexus: attribute %q is ambiguous: %d candidates carry it (origins %s)",
				n, len(origins), strings.Join(origins, ", "))
		}
	}
	_, shares, err := core.ScoreSet(a.T, a.O, cands)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(names))
	for i, share := range shares {
		out[names[i]] = share
	}
	return out, nil
}
