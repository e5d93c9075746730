package harness

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"nexus/internal/baselines"
	"nexus/internal/core"
	"nexus/internal/infotheory"
	"nexus/internal/obs"
	"nexus/internal/userstudy"
)

// Table1Row is one dataset inventory row (paper Table 1).
type Table1Row struct {
	Dataset     string
	Rows        int
	Extracted   int // |ℰ|
	LinkColumns []string
}

// Table1 regenerates the dataset inventory: row counts and the number of
// extracted candidate attributes per dataset.
func (s *Suite) Table1() ([]Table1Row, error) {
	var out []Table1Row
	for _, name := range []string{"SO", "Covid-19", "Flights", "Forbes"} {
		ds := s.Datasets[name]
		sess := s.Session(name)
		q := fmt.Sprintf("SELECT %s, avg(%s) FROM `%s` GROUP BY %s",
			ds.LinkColumns[0], ds.Outcomes[0], ds.Name, ds.LinkColumns[0])
		a, err := sess.PrepareCtx(context.Background(), q)
		if err != nil {
			return nil, err
		}
		extracted := 0
		if a.Extraction != nil {
			extracted = len(a.Extraction.Attrs)
		}
		out = append(out, Table1Row{
			Dataset:     name,
			Rows:        ds.Table.NumRows(),
			Extracted:   extracted,
			LinkColumns: ds.LinkColumns,
		})
	}
	return out, nil
}

// FormatTable1 renders Table 1 as text.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("Table 1: Examined Datasets\n")
	fmt.Fprintf(&b, "%-10s %10s %6s  %s\n", "Dataset", "n", "|E|", "Columns used for extraction")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %10d %6d  %s\n", r.Dataset, r.Rows, r.Extracted, strings.Join(r.LinkColumns, ", "))
	}
	return b.String()
}

// QueryResult bundles every method's run on one query.
type QueryResult struct {
	Spec      QuerySpec
	BaseScore float64 // I(O;T|C)
	Runs      map[string]MethodRun
}

// RunQuery prepares and runs all methods on one query spec.
func (s *Suite) RunQuery(spec QuerySpec, coreOpts core.Options) (*QueryResult, error) {
	ctx := obs.WithTrace(context.Background(), coreOpts.Trace)
	sess := s.Session(spec.Dataset)
	a, err := sess.PrepareCtx(ctx, spec.SQL)
	if err != nil {
		return nil, fmt.Errorf("harness: %s: %w", spec.Key(), err)
	}
	runs, err := RunAll(a, spec, coreOpts)
	if err != nil {
		return nil, fmt.Errorf("harness: %s: %w", spec.Key(), err)
	}
	return &QueryResult{
		Spec:      spec,
		BaseScore: infotheory.MutualInfo(a.O, a.T, nil),
		Runs:      runs,
	}, nil
}

// Table2 runs all methods over every (or a subset of) user-study query.
func (s *Suite) Table2(specs []QuerySpec, coreOpts core.Options) ([]*QueryResult, error) {
	if specs == nil {
		specs = Queries()
	}
	var out []*QueryResult
	for _, spec := range specs {
		qr, err := s.RunQuery(spec, coreOpts)
		if err != nil {
			return nil, err
		}
		out = append(out, qr)
	}
	return out, nil
}

// FormatTable2 renders the explanations per query and method.
func FormatTable2(results []*QueryResult) string {
	var b strings.Builder
	b.WriteString("Table 2: Explanations per query and method\n")
	for _, qr := range results {
		fmt.Fprintf(&b, "\n%s — %s   [I(O;T|C) = %.3f]\n", qr.Spec.Key(), qr.Spec.Label, qr.BaseScore)
		for _, m := range Methods {
			run := qr.Runs[m]
			switch {
			case run.Skipped:
				fmt.Fprintf(&b, "  %-12s -\n", m)
			case run.Result.Failed:
				fmt.Fprintf(&b, "  %-12s (no explanation)\n", m)
			default:
				fmt.Fprintf(&b, "  %-12s %s   [score %.3f]\n", m, strings.Join(run.Attrs, ", "), run.Score)
			}
		}
	}
	return b.String()
}

// Table3Row is one method's simulated user-study aggregate (paper Table 3).
type Table3Row struct {
	Method   string
	Mean     float64
	Variance float64
	Queries  int
}

// Table3 scores every method's Table 2 explanations with the simulated
// 150-rater panel and aggregates per method.
func (s *Suite) Table3(results []*QueryResult) []Table3Row {
	panel := userstudy.NewPanel(s.Seed + 99)
	sums := map[string]*Table3Row{}
	for _, qr := range results {
		for _, m := range Methods {
			run := qr.Runs[m]
			if run.Skipped {
				continue
			}
			j := panel.Rate(run.Attrs, qr.Spec.GT)
			row := sums[m]
			if row == nil {
				row = &Table3Row{Method: m}
				sums[m] = row
			}
			row.Mean += j.Mean
			row.Variance += j.Variance
			row.Queries++
		}
	}
	var out []Table3Row
	for _, m := range Methods {
		if row, ok := sums[m]; ok && row.Queries > 0 {
			out = append(out, Table3Row{
				Method:   m,
				Mean:     row.Mean / float64(row.Queries),
				Variance: row.Variance / float64(row.Queries),
				Queries:  row.Queries,
			})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Mean > out[j].Mean })
	return out
}

// FormatTable3 renders the user-study aggregates.
func FormatTable3(rows []Table3Row) string {
	var b strings.Builder
	b.WriteString("Table 3: Avg. explanation scores (simulated 150-rater panel)\n")
	fmt.Fprintf(&b, "%-12s %8s %10s %8s\n", "Baseline", "Score", "Variance", "Queries")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %8.2f %10.2f %8d\n", r.Method, r.Mean, r.Variance, r.Queries)
	}
	return b.String()
}

// Fig2Row is one query's explainability-score distances from Brute-Force.
type Fig2Row struct {
	Query    string
	Distance map[string]float64 // method → score - BF score
}

// Fig2 computes the distance of each method's explainability score from the
// Brute-Force gold standard (paper Figure 2). Queries without a Brute-Force
// run use the best score among all methods as the reference.
func Fig2(results []*QueryResult) []Fig2Row {
	var out []Fig2Row
	for _, qr := range results {
		ref, ok := bfScore(qr)
		if !ok {
			continue
		}
		row := Fig2Row{Query: qr.Spec.Key(), Distance: map[string]float64{}}
		for _, m := range Methods {
			run := qr.Runs[m]
			if run.Skipped || run.Result == nil {
				continue
			}
			score := run.Score
			if run.Failed {
				score = qr.BaseScore // failure leaves the correlation unexplained
			}
			row.Distance[m] = score - ref
		}
		out = append(out, row)
	}
	return out
}

func bfScore(qr *QueryResult) (float64, bool) {
	if run, ok := qr.Runs[baselines.MethodBruteForce]; ok && !run.Skipped && run.Result != nil && !run.Failed {
		return run.Score, true
	}
	// Fall back to the best achieved score.
	best, found := 0.0, false
	for _, run := range qr.Runs {
		if run.Skipped || run.Result == nil || run.Failed {
			continue
		}
		if !found || run.Score < best {
			best, found = run.Score, true
		}
	}
	return best, found
}

// FormatFig2 renders the distances.
func FormatFig2(rows []Fig2Row) string {
	var b strings.Builder
	b.WriteString("Figure 2: Distance from Brute-Force explainability score\n")
	fmt.Fprintf(&b, "%-14s", "Query")
	for _, m := range Methods {
		fmt.Fprintf(&b, " %12s", m)
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s", r.Query)
		for _, m := range Methods {
			if d, ok := r.Distance[m]; ok {
				fmt.Fprintf(&b, " %12.3f", d)
			} else {
				fmt.Fprintf(&b, " %12s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
