package harness

import (
	"context"
	"fmt"
	"strings"
	"time"

	"nexus"
	"nexus/internal/core"
	"nexus/internal/obs"
	"nexus/internal/userstudy"
)

// AblationRow is one configuration's result on one query.
type AblationRow struct {
	Query   string
	Variant string
	Attrs   []string
	Score   float64
	Study   float64 // simulated-panel mean
	Elapsed time.Duration
}

// Ablations runs the design-choice ablations DESIGN.md calls out on the
// given queries:
//
//   - default:   the full system
//   - fixed-k:   responsibility-test stopping off (MRMR-style, always K attrs)
//   - no-ipw:    selection-bias detection and weighting off
//   - no-redund: redundancy term off is the Top-K baseline (Table 2); not
//     repeated here.
func (s *Suite) Ablations(specs []QuerySpec, base core.Options) ([]AblationRow, error) {
	panel := userstudy.NewPanel(s.Seed + 991)
	ctx := obs.WithTrace(context.Background(), base.Trace)
	var out []AblationRow
	for _, spec := range specs {
		variants := []struct {
			name string
			opts nexus.Options
		}{
			{"default", nexus.Options{Core: base}},
			{"fixed-k", nexus.Options{Core: withStoppingOff(base)}},
			{"no-ipw", nexus.Options{Core: base, DisableIPW: true}},
		}
		for _, v := range variants {
			sess := s.SessionWith(spec.Dataset, v.opts)
			start := time.Now()
			rep, err := sess.ExplainCtx(ctx, spec.SQL)
			if err != nil {
				return nil, fmt.Errorf("harness: ablation %s on %s: %w", v.name, spec.Key(), err)
			}
			out = append(out, AblationRow{
				Query:   spec.Key(),
				Variant: v.name,
				Attrs:   rep.Explanation.Names(),
				Score:   rep.Explanation.Score,
				Study:   panel.Rate(rep.Explanation.Names(), spec.GT).Mean,
				Elapsed: time.Since(start),
			})
		}
	}
	return out, nil
}

func withStoppingOff(o core.Options) core.Options {
	o.DisableStopping = true
	return o
}

// FormatAblations renders the ablation study.
func FormatAblations(rows []AblationRow) string {
	var b strings.Builder
	b.WriteString("Ablations: stopping criterion and IPW\n")
	fmt.Fprintf(&b, "%-14s %-10s %8s %8s %10s  %s\n", "Query", "Variant", "score", "study", "elapsed", "explanation")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %-10s %8.3f %8.2f %10s  %s\n",
			r.Query, r.Variant, r.Score, r.Study, r.Elapsed.Round(time.Millisecond), strings.Join(r.Attrs, ", "))
	}
	return b.String()
}
