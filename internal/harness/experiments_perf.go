package harness

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"nexus/internal/core"
	"nexus/internal/obs"
	"nexus/internal/stats"
)

// PruneVariant names the Figure 4 runtime baselines.
type PruneVariant string

// Variants compared in Figure 4.
const (
	VariantNoPruning PruneVariant = "No Pruning"
	VariantOffline   PruneVariant = "Offline Pruning"
	VariantMCIMR     PruneVariant = "MCIMR"
)

func optsFor(v PruneVariant, base core.Options) core.Options {
	switch v {
	case VariantNoPruning:
		base.DisableOfflinePrune = true
		base.DisableOnlinePrune = true
	case VariantOffline:
		base.DisableOnlinePrune = true
	}
	return base
}

// PerfPoint is one runtime measurement.
type PerfPoint struct {
	Dataset string
	Variant PruneVariant
	X       float64 // swept parameter (|A|, rows, or k)
	Elapsed time.Duration
	// ExplSize is the size of the produced explanation (Fig 6 reports it).
	ExplSize int
}

// Fig4 measures running time as a function of the number of candidate
// attributes, for the three pruning variants, on one dataset's Q1 query.
// Candidates are dropped uniformly at random to hit each target size.
func (s *Suite) Fig4(dataset string, sizes []int, base core.Options) ([]PerfPoint, error) {
	ctx := obs.WithTrace(context.Background(), base.Trace)
	spec, err := firstQuery(dataset)
	if err != nil {
		return nil, err
	}
	a, err := s.Session(dataset).PrepareCtx(ctx, spec.SQL)
	if err != nil {
		return nil, err
	}
	rng := stats.NewRNG(s.Seed + 4)
	var out []PerfPoint
	for _, size := range sizes {
		cands := a.Candidates
		if size < len(cands) {
			perm := rng.Perm(len(cands))
			sub := make([]*core.Candidate, size)
			for i := 0; i < size; i++ {
				sub[i] = a.Candidates[perm[i]]
			}
			cands = sub
		}
		for _, v := range []PruneVariant{VariantNoPruning, VariantOffline, VariantMCIMR} {
			start := time.Now()
			ex, err := core.Explain(ctx, a.T, a.O, cands, optsFor(v, base))
			if err != nil {
				return nil, err
			}
			out = append(out, PerfPoint{
				Dataset: dataset, Variant: v, X: float64(len(cands)),
				Elapsed: time.Since(start), ExplSize: len(ex.Attrs),
			})
		}
	}
	return out, nil
}

// Fig5 measures running time as a function of the dataset's row count by
// regenerating the dataset at each size and running the full pipeline's
// explanation phase.
func (s *Suite) Fig5(dataset string, rowCounts []int, base core.Options) ([]PerfPoint, error) {
	ctx := obs.WithTrace(context.Background(), base.Trace)
	spec, err := firstQuery(dataset)
	if err != nil {
		return nil, err
	}
	var out []PerfPoint
	for _, rows := range rowCounts {
		ds := s.generate(dataset, rows)
		sess := s.SessionWith(dataset, nexusOptions(base))
		sess.RegisterTable(ds.Name, ds.Table, ds.LinkColumns...)
		sess.ExcludeCandidates(ds.Name, ds.ExcludeCandidates...)
		a, err := sess.PrepareCtx(ctx, spec.SQL)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		ex, err := core.Explain(ctx, a.T, a.O, a.Candidates, base)
		if err != nil {
			return nil, err
		}
		out = append(out, PerfPoint{
			Dataset: dataset, Variant: VariantMCIMR, X: float64(rows),
			Elapsed: time.Since(start), ExplSize: len(ex.Attrs),
		})
	}
	return out, nil
}

// Fig6 measures running time as a function of the explanation-size bound k.
func (s *Suite) Fig6(dataset string, ks []int, base core.Options) ([]PerfPoint, error) {
	ctx := obs.WithTrace(context.Background(), base.Trace)
	spec, err := firstQuery(dataset)
	if err != nil {
		return nil, err
	}
	a, err := s.Session(dataset).PrepareCtx(ctx, spec.SQL)
	if err != nil {
		return nil, err
	}
	var out []PerfPoint
	for _, k := range ks {
		opts := base
		opts.K = k
		start := time.Now()
		ex, err := core.Explain(ctx, a.T, a.O, a.Candidates, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, PerfPoint{
			Dataset: dataset, Variant: VariantMCIMR, X: float64(k),
			Elapsed: time.Since(start), ExplSize: len(ex.Attrs),
		})
	}
	return out, nil
}

// Headline runs the §5.3 headline: explain the Flights dataset at the given
// row count. It returns the explanation, whose Elapsed is the wall-clock time
// of the explain (paper: < 10 s at 5.8M rows), and the bytes the explain
// allocated (the growth of runtime.MemStats.TotalAlloc across the call).
func (s *Suite) Headline(rows int, base core.Options) (*core.Explanation, uint64, error) {
	ctx := obs.WithTrace(context.Background(), base.Trace)
	ds := s.generate("Flights", rows)
	sess := s.SessionWith("Flights", nexusOptions(base))
	sess.RegisterTable(ds.Name, ds.Table, ds.LinkColumns...)
	sess.ExcludeCandidates(ds.Name, ds.ExcludeCandidates...)
	spec, err := firstQuery("Flights")
	if err != nil {
		return nil, 0, err
	}
	a, err := sess.PrepareCtx(ctx, spec.SQL)
	if err != nil {
		return nil, 0, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ex, err := core.Explain(ctx, a.T, a.O, a.Candidates, base)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, 0, err
	}
	return ex, after.TotalAlloc - before.TotalAlloc, nil
}

// FormatPerf renders a runtime sweep.
func FormatPerf(title, xlabel string, points []PerfPoint) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	fmt.Fprintf(&b, "%-10s %-16s %12s %12s %6s\n", "Dataset", "Variant", xlabel, "elapsed", "|E|")
	for _, p := range points {
		fmt.Fprintf(&b, "%-10s %-16s %12.0f %12s %6d\n", p.Dataset, p.Variant, p.X, p.Elapsed.Round(time.Millisecond), p.ExplSize)
	}
	return b.String()
}
