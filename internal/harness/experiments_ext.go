package harness

import (
	"context"
	"fmt"
	"strings"
	"time"

	"nexus"
	"nexus/internal/core"
	"nexus/internal/obs"
	"nexus/internal/subgroups"
	"nexus/internal/workload"
)

// Table4Result is the unexplained-subgroups experiment output.
type Table4Result struct {
	Query       string
	Explanation []string
	Tau         float64
	Groups      []subgroups.Group
	Stats       subgroups.Stats
	// FirstTau and FirstStats describe the search at the first τ when it
	// found no group and Tau is the fallback; FirstTau is 0 otherwise.
	FirstTau   float64
	FirstStats subgroups.Stats
	Elapsed    time.Duration
}

// Table4 reproduces the top-5 unexplained data groups for SO Q1 (τ = 0.2).
func (s *Suite) Table4(coreOpts core.Options) (*Table4Result, error) {
	ctx := obs.WithTrace(context.Background(), coreOpts.Trace)
	spec, err := firstQuery("SO")
	if err != nil {
		return nil, err
	}
	sess := s.Session("SO")
	rep, err := sess.ExplainCtx(ctx, spec.SQL)
	if err != nil {
		return nil, err
	}
	// τ is set from the initial explanation score (§4.3): groups must score
	// well above the global explanation score to count as unexplained. If
	// no group qualifies — the lattice ran out, or the node budget ended the
	// search first — search again at τ = the explanation score, which ranks
	// the groups least well explained, and keep the first search's stats.
	tau := 1.5 * rep.Explanation.Score
	if tau < 0.2 {
		tau = 0.2
	}
	start := time.Now()
	groups, stats, err := rep.SubgroupsCtx(ctx, 5, tau)
	if err != nil {
		return nil, err
	}
	res := &Table4Result{Query: spec.Key(), Explanation: rep.Explanation.Names()}
	if len(groups) == 0 {
		res.FirstTau, res.FirstStats = tau, stats
		tau = rep.Explanation.Score
		groups, stats, err = rep.SubgroupsCtx(ctx, 5, tau)
		if err != nil {
			return nil, err
		}
	}
	res.Tau, res.Groups, res.Stats, res.Elapsed = tau, groups, stats, time.Since(start)
	return res, nil
}

// stopReason says why a lattice search ended.
func stopReason(st subgroups.Stats) string {
	if st.Exhausted {
		return "lattice exhausted"
	}
	return "search budget reached"
}

// FormatTable4 renders the subgroup table.
func FormatTable4(r *Table4Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4: Top-%d unexplained groups for %s (τ=%.2f)\n", len(r.Groups), r.Query, r.Tau)
	fmt.Fprintf(&b, "explanation: %s\n", strings.Join(r.Explanation, ", "))
	fmt.Fprintf(&b, "%-4s %8s %8s  %s\n", "Rank", "Size", "Score", "Data group")
	for i, g := range r.Groups {
		fmt.Fprintf(&b, "%-4d %8d %8.3f  %s\n", i+1, g.Size, g.Score, g.String())
	}
	fmt.Fprintf(&b, "(explored %d nodes, pushed %d, %s", r.Stats.Explored, r.Stats.Pushed, stopReason(r.Stats))
	if r.FirstTau > 0 {
		fmt.Fprintf(&b, "; τ=%.2f found no group, %s after %d nodes", r.FirstTau, stopReason(r.FirstStats), r.FirstStats.Explored)
	}
	fmt.Fprintf(&b, "; %v)\n", r.Elapsed.Round(time.Millisecond))
	return b.String()
}

// RandomQueryResult is one §5.1 usefulness trial.
type RandomQueryResult struct {
	Query  workload.RandomQuery
	Useful bool // score reduced AND explanation contains a KG attribute
	Score  float64
	Base   float64
	Attrs  []string
}

// RandomQueryReport aggregates the §5.1 experiment.
type RandomQueryReport struct {
	Results    []RandomQueryResult
	UsefulFrac float64
}

// RandomQueries runs the §5.1 experiment: n random queries per dataset; the
// approach is "useful" for a query when the explanation lowers the partial
// correlation and contains at least one extracted attribute. Paper: 72.5%.
func (s *Suite) RandomQueries(perDataset int, coreOpts core.Options) (*RandomQueryReport, error) {
	ctx := obs.WithTrace(context.Background(), coreOpts.Trace)
	rep := &RandomQueryReport{}
	useful := 0
	for _, name := range []string{"SO", "Covid-19", "Flights", "Forbes"} {
		ds := s.Datasets[name]
		sess := s.Session(name)
		for _, rq := range workload.RandomQueries(ds, perDataset, s.Seed+77) {
			sql := strings.Replace(rq.SQL, "FROM "+name, "FROM `"+name+"`", 1)
			a, err := sess.PrepareCtx(ctx, sql)
			if err != nil {
				return nil, fmt.Errorf("harness: random query %q: %w", sql, err)
			}
			ex, err := core.Explain(ctx, a.T, a.O, a.Candidates, coreOpts)
			if err != nil {
				return nil, err
			}
			hasKG := false
			for _, attr := range ex.Attrs {
				if attr.Origin == core.OriginKG {
					hasKG = true
				}
			}
			r := RandomQueryResult{
				Query:  rq,
				Useful: hasKG && ex.Score < ex.BaseScore,
				Score:  ex.Score,
				Base:   ex.BaseScore,
				Attrs:  namesOf(ex),
			}
			if r.Useful {
				useful++
			}
			rep.Results = append(rep.Results, r)
		}
	}
	if len(rep.Results) > 0 {
		rep.UsefulFrac = float64(useful) / float64(len(rep.Results))
	}
	return rep, nil
}

func namesOf(ex *core.Explanation) []string { return ex.Names() }

// FormatRandomQueries renders §5.1.
func FormatRandomQueries(r *RandomQueryReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "§5.1: Random queries — useful in %.1f%% of %d queries (paper: 72.5%%)\n",
		r.UsefulFrac*100, len(r.Results))
	for _, q := range r.Results {
		mark := " "
		if q.Useful {
			mark = "✓"
		}
		fmt.Fprintf(&b, "%s %-9s %-70s base=%.3f score=%.3f\n", mark, q.Query.Dataset, truncate(q.Query.SQL, 70), q.Base, q.Score)
	}
	return b.String()
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

// MultiHopRow compares 1-hop and 2-hop extraction for one query (§5.4).
type MultiHopRow struct {
	Query          string
	Cands1, Cands2 int
	Attrs1, Attrs2 []string
	Time1, Time2   time.Duration
	Changed        bool
}

// MultiHop runs the §5.4 extension study on the given queries.
func (s *Suite) MultiHop(specs []QuerySpec, coreOpts core.Options) ([]MultiHopRow, error) {
	ctx := obs.WithTrace(context.Background(), coreOpts.Trace)
	var out []MultiHopRow
	for _, spec := range specs {
		row := MultiHopRow{Query: spec.Key()}
		for _, hops := range []int{1, 2} {
			sess := s.SessionWith(spec.Dataset, nexus.Options{Core: coreOpts, Hops: hops})
			start := time.Now()
			rep, err := sess.ExplainCtx(ctx, spec.SQL)
			if err != nil {
				return nil, err
			}
			elapsed := time.Since(start)
			if hops == 1 {
				row.Cands1 = len(rep.Analysis.Candidates)
				row.Attrs1 = rep.Explanation.Names()
				row.Time1 = elapsed
			} else {
				row.Cands2 = len(rep.Analysis.Candidates)
				row.Attrs2 = rep.Explanation.Names()
				row.Time2 = elapsed
			}
		}
		row.Changed = strings.Join(row.Attrs1, "|") != strings.Join(row.Attrs2, "|")
		out = append(out, row)
	}
	return out, nil
}

// FormatMultiHop renders §5.4.
func FormatMultiHop(rows []MultiHopRow) string {
	var b strings.Builder
	b.WriteString("§5.4: Multi-hop extraction (1-hop vs 2-hop)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s: candidates %d → %d (%.0f%% more), time %v → %v, changed=%v\n",
			r.Query, r.Cands1, r.Cands2, 100*float64(r.Cands2-r.Cands1)/float64(max(r.Cands1, 1)),
			r.Time1.Round(time.Millisecond), r.Time2.Round(time.Millisecond), r.Changed)
		fmt.Fprintf(&b, "  1-hop: %s\n  2-hop: %s\n", strings.Join(r.Attrs1, ", "), strings.Join(r.Attrs2, ", "))
	}
	return b.String()
}

// PruningRow reports the pruning impact for one dataset (paper appendix).
type PruningRow struct {
	Dataset      string
	Input        int
	OfflineDrop  float64 // fraction dropped offline
	OnlineDrop   float64 // fraction of the remainder dropped online
	FinalKept    int
	OfflineStats core.PruneStats
	OnlineStats  core.PruneStats
}

// PruningImpact measures how much each pruning phase removes per dataset.
func (s *Suite) PruningImpact(coreOpts core.Options) ([]PruningRow, error) {
	ctx := obs.WithTrace(context.Background(), coreOpts.Trace)
	var out []PruningRow
	for _, name := range []string{"SO", "Covid-19", "Flights", "Forbes"} {
		spec, err := firstQuery(name)
		if err != nil {
			return nil, err
		}
		a, err := s.Session(name).PrepareCtx(ctx, spec.SQL)
		if err != nil {
			return nil, err
		}
		kept, offStats, err := core.OfflinePruneCtx(ctx, nil, a.Candidates, coreOpts.Prune)
		if err != nil {
			return nil, err
		}
		kept2, onStats, err := core.OnlinePruneCtx(ctx, nil, a.T, a.O, kept, coreOpts.Prune)
		if err != nil {
			return nil, err
		}
		row := PruningRow{
			Dataset: name, Input: len(a.Candidates), FinalKept: len(kept2),
			OfflineStats: offStats, OnlineStats: onStats,
		}
		if len(a.Candidates) > 0 {
			row.OfflineDrop = float64(len(a.Candidates)-len(kept)) / float64(len(a.Candidates))
		}
		if len(kept) > 0 {
			row.OnlineDrop = float64(len(kept)-len(kept2)) / float64(len(kept))
		}
		out = append(out, row)
	}
	return out, nil
}

// FormatPruning renders the appendix pruning study.
func FormatPruning(rows []PruningRow) string {
	var b strings.Builder
	b.WriteString("Appendix: Impact of pruning\n")
	fmt.Fprintf(&b, "%-10s %8s %10s %10s %8s\n", "Dataset", "|A|", "offline%", "online%", "kept")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %8d %10.1f %10.1f %8d\n",
			r.Dataset, r.Input, r.OfflineDrop*100, r.OnlineDrop*100, r.FinalKept)
	}
	return b.String()
}
