package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"nexus"
	"nexus/internal/core"
	"nexus/internal/counting"
	"nexus/internal/extract"
	"nexus/internal/kg"
	"nexus/internal/obs"
	"nexus/internal/sqlx"
	"nexus/internal/subgroups"
	"nexus/internal/table"
	"nexus/internal/userstudy"
)

// defaultK is the number of unexplained subgroups an op asks for (Table 4).
const defaultK = 5

// query is the input of one op: an aggregate SQL query and how many
// unexplained subgroups to report with its explanation. Tau stays 0, the
// paper-style default threshold.
type query struct {
	// Key names the query; ops with equal keys must return equal answers.
	Key string
	SQL string
	K   int
	// GT is the planted confounder set of a Table-2 query (nil otherwise).
	GT *userstudy.GroundTruth
}

// opResult is the outcome of one op as its caller saw it.
type opResult struct {
	key     string
	answer  answer
	latency time.Duration
	quality float64 // userstudy quality against the planted truth; -1 without one
	err     error
}

func (q query) result(a answer, latency time.Duration) opResult {
	r := opResult{key: q.Key, answer: a, latency: latency, quality: -1}
	if q.GT != nil {
		r.quality = q.GT.Quality(a.names())
	}
	return r
}

// target is a session plus what the staged run needs to call the layers
// under it one by one: the same table, KG source and link columns the
// session was built from.
type target struct {
	sess  *nexus.Session
	table string
	tbl   *table.Table
	links []string
	src   kg.Source
	hops  int
	// scorer is the session's remote scoring seam (nil scores in process).
	scorer core.Scorer
}

// explain is the one-call op: SQL text → Report → Subgroups, as the nexus
// CLI and nexusd run it.
func (t *target) explain(ctx context.Context, q query) opResult {
	start := time.Now()
	rep, err := t.sess.ExplainCtx(ctx, q.SQL)
	if err != nil {
		return opResult{key: q.Key, err: err}
	}
	groups, _, err := rep.SubgroupsCtx(ctx, q.K, 0)
	if err != nil {
		return opResult{key: q.Key, err: err}
	}
	return q.result(answerOf(rep, groups), time.Since(start))
}

// tracer is what one traced op records into: the run's spans, counters and
// samples, under the op's index and root span.
type tracer struct {
	tr   *traced
	op   int
	root int
}

// span runs f inside a span under the op's root. On a nil tracer — an
// untraced op — it only runs f.
func (tc *tracer) span(name string, f func() error) (time.Duration, error) {
	if tc == nil {
		return 0, f()
	}
	id := tc.tr.rec.begin(tc.op, tc.root, name)
	err := f()
	return tc.tr.rec.end(id), err
}

// fold adds the counters of an op's one-call path to the run totals.
func (tc *tracer) fold(c *obs.Counters) {
	for name, v := range c.Snapshot() {
		tc.tr.totals.Add(name, v)
	}
}

// staged runs the same op as explain, one public call per layer with a
// span around each, and then re-runs on the same inputs the stages that the
// one-call path hides inside a larger call: query execution and KG
// extraction (inside prepare) and the two prunes and MCIMR (inside
// explain). The op's latency is that of the one-call path alone; its
// counters, collected in ctr, are the one-call path's too, so neither is
// inflated by the re-runs. The staged selection must name the attributes the
// one-call explanation did.
func (t *target) staged(ctx context.Context, tc *tracer, q query, ctr *obs.Counters) opResult {
	res, pq, err := t.stagedPath(ctx, tc, q, ctr)
	if err == nil {
		err = t.stagedDetail(ctx, tc, pq, res.answer.names())
	}
	if err != nil {
		return opResult{key: q.Key, err: err}
	}
	return res
}

// stagedPath is the one-call path, layer by layer. Like a nexusd request it
// carries its own obs trace, so the pipeline's spans and counters are on and
// their cost is part of what obs.trace_overhead_ratio reports.
func (t *target) stagedPath(ctx context.Context, tc *tracer, q query, ctr *obs.Counters) (opResult, *sqlx.Query, error) {
	otr := obs.NewWithCounters("bench-op", ctr)
	defer otr.Close()
	ctx = obs.WithTrace(ctx, otr)
	var (
		pq     *sqlx.Query
		a      *nexus.Analysis
		rep    *nexus.Report
		groups []subgroups.Group
		err    error
	)
	start := time.Now()
	if _, err = tc.span("sqlx.parse", func() error { pq, err = sqlx.Parse(q.SQL); return err }); err != nil {
		return opResult{}, nil, err
	}
	if _, err = tc.span("nexus.prepare", func() error { a, err = t.sess.PrepareQueryCtx(ctx, pq); return err }); err != nil {
		return opResult{}, nil, err
	}
	if _, err = tc.span("core.explain", func() error { rep, err = a.ExplainCtx(ctx); return err }); err != nil {
		return opResult{}, nil, err
	}
	if _, err = tc.span("subgroups.search", func() error {
		groups, _, err = rep.SubgroupsWithOptions(ctx, subgroups.Options{K: q.K})
		return err
	}); err != nil {
		return opResult{}, nil, err
	}
	res := q.result(answerOf(rep, groups), time.Since(start))

	ex := rep.Explanation
	ctr.Add(ctrCandidatesIn, int64(len(a.Candidates)))
	ctr.Add(ctrCandidatesOffl, int64(ex.OfflineStats.Kept))
	ctr.Add(ctrCandidatesOnline, int64(ex.OnlineStats.Kept))
	tc.fold(ctr)
	return res, pq, nil
}

// stagedDetail times, standalone and on the same inputs, the stages hidden
// inside prepare and explain. They report into a throwaway obs trace.
func (t *target) stagedDetail(ctx context.Context, tc *tracer, pq *sqlx.Query, want []string) error {
	dtr := obs.New("bench-detail")
	defer dtr.Close()
	ctx = obs.WithTrace(ctx, dtr)

	var view *sqlx.Result
	var err error
	execute, err := tc.span("sqlx.execute", func() error {
		view, err = sqlx.Execute(pq, sqlx.Catalog{t.table: t.tbl})
		return err
	})
	if err != nil {
		return err
	}
	var extraction time.Duration
	if t.src != nil {
		var links []string
		for _, lc := range t.links {
			if view.View.HasColumn(lc) {
				links = append(links, lc)
			}
		}
		extraction, err = tc.span("extract.extract", func() error {
			_, err = extract.ExtractCtx(ctx, view.View, links, t.src, t.sess.Linker(), extract.Options{Hops: t.hops, Trace: dtr})
			return err
		})
		if err != nil {
			return err
		}
	}
	// A second prepare gives the prunes candidates whose lazy encodings and
	// IPW weights are as cold as those the one-call explain started from.
	var a *nexus.Analysis
	prepare, err := tc.span("nexus.prepare_rerun", func() error { a, err = t.sess.PrepareQueryCtx(ctx, pq); return err })
	if err != nil {
		return err
	}
	// What prepare spends outside query execution and extraction: candidate
	// assembly and IPW wiring.
	tc.tr.sample("nexus.prepare_self_ms", float64(prepare-execute-extraction)/1e6)

	opts := core.DefaultOptions()
	opts.Trace = dtr
	opts.Scorer = t.scorer
	var offline, online []*core.Candidate
	if _, err = tc.span("core.offline_prune", func() error {
		offline, _, err = core.OfflinePruneCtx(ctx, dtr, a.Candidates, opts.Prune)
		return err
	}); err != nil {
		return err
	}
	screen, err := tc.span("core.online_prune", func() error {
		online, _, err = core.OnlinePruneCtx(ctx, dtr, a.T, a.O, offline, opts.Prune)
		return err
	})
	if err != nil {
		return err
	}
	rows := float64(a.View.NumRows())
	tc.tr.sample("core.online_prune_ns_per_row_cand", ratio(float64(screen), rows*float64(len(offline))))

	var sel *core.Selection
	if _, err = tc.span("core.mcimr", func() error {
		sel, err = core.MCIMRCtx(ctx, a.T, a.O, online, opts)
		return err
	}); err != nil {
		return err
	}
	var got []string
	for _, at := range sel.Attrs {
		got = append(got, at.Name)
	}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		return fmt.Errorf("staged selection %v differs from the one-call explanation %v", got, want)
	}

	// One fused screening pass over the op's own T, O and first surviving
	// candidate: the counting kernel's cost per row, free of everything the
	// online prune does around it.
	if len(online) > 0 {
		enc, err := online[0].Enc()
		if err != nil {
			return err
		}
		var w []float64
		if online[0].Weights != nil {
			w = online[0].Weights(enc)
		}
		pass, _ := tc.span("counting.screen", func() error {
			counting.CountScreen(a.O.Codes, a.T.Codes, enc.Codes, a.O.Card, a.T.Card, enc.Card, w).Release()
			return nil
		})
		tc.tr.sample("counting.screen_ns_per_row", ratio(float64(pass), rows))
	}
	return nil
}
