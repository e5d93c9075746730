package harness

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"nexus"
	"nexus/internal/bins"
	"nexus/internal/core"
	"nexus/internal/extract"
	"nexus/internal/infotheory"
	"nexus/internal/missing"
	"nexus/internal/stats"
	"nexus/internal/table"
)

// RemovalMode selects how Fig. 3 deletes values.
type RemovalMode int

// Removal modes.
const (
	RemoveRandom RemovalMode = iota // missing-at-random
	RemoveBiased                    // top-x% highest values removed
)

func (m RemovalMode) String() string {
	if m == RemoveBiased {
		return "biased"
	}
	return "random"
}

// Handling selects how corrupted attributes are treated.
type Handling int

// Handling strategies compared in Fig. 3.
const (
	HandleIPW         Handling = iota // nexus default: complete case + IPW
	HandleImpute                      // mean/mode imputation baseline
	HandleMultiImpute                 // multiple imputation (3 sampled completions, averaged)
)

func (h Handling) String() string {
	switch h {
	case HandleImpute:
		return "imputation"
	case HandleMultiImpute:
		return "multi-impute"
	default:
		return "IPW"
	}
}

// Fig3Point is one (missing%, mode, handling) measurement.
type Fig3Point struct {
	Dataset     string
	MissingFrac float64
	Mode        RemovalMode
	Handling    Handling
	// Score is the explainability score I(O;T|E) of the explanation MESA
	// found under this corruption/handling; robustness means it stays near
	// the clean-data score.
	Score float64
}

// Fig3 runs the robustness sweep on one dataset's Q1 query: corrupt the 10
// most relevant extracted attributes at increasing missing rates (random and
// biased), explain with either IPW or mean imputation, and measure the
// explanation's true explainability.
func (s *Suite) Fig3(dataset string, fractions []float64, coreOpts core.Options) ([]Fig3Point, error) {
	spec, err := firstQuery(dataset)
	if err != nil {
		return nil, err
	}
	sess := s.Session(dataset)
	a, err := sess.PrepareCtx(context.Background(), spec.SQL)
	if err != nil {
		return nil, err
	}
	if a.Extraction == nil {
		return nil, fmt.Errorf("harness: dataset %s has no extraction", dataset)
	}

	// Rank extracted attributes by relevance to the outcome and take 10.
	type ranked struct {
		attr *extract.Attribute
		rel  float64
	}
	var rk []ranked
	for _, attr := range a.Extraction.Attrs {
		enc, err := attr.Encode(bins.DefaultOptions())
		if err != nil {
			continue
		}
		if enc.Card < 2 || enc.MissingFraction() > 0.6 {
			continue
		}
		rel := infotheory.MutualInfo(a.O, enc, nil)
		rk = append(rk, ranked{attr, rel})
	}
	sort.SliceStable(rk, func(i, j int) bool { return rk[i].rel > rk[j].rel })
	if len(rk) > 10 {
		rk = rk[:10]
	}
	targets := map[string]*extract.Attribute{}
	for _, r := range rk {
		targets[r.attr.Name] = r.attr
	}

	var out []Fig3Point
	for _, mode := range []RemovalMode{RemoveRandom, RemoveBiased} {
		for _, handling := range []Handling{HandleIPW, HandleImpute, HandleMultiImpute} {
			for _, frac := range fractions {
				score, err := s.fig3Run(a, spec, targets, frac, mode, handling, coreOpts)
				if err != nil {
					return nil, err
				}
				out = append(out, Fig3Point{
					Dataset:     dataset,
					MissingFrac: frac,
					Mode:        mode,
					Handling:    handling,
					Score:       score,
				})
			}
		}
	}
	return out, nil
}

// fig3Run performs one corrupted explain and scores the selected
// explanation against the original (uncorrupted) attribute values.
func (s *Suite) fig3Run(a *nexus.Analysis, spec QuerySpec, targets map[string]*extract.Attribute,
	frac float64, mode RemovalMode, handling Handling, coreOpts core.Options) (float64, error) {

	// Multiple imputation averages the metric over several completions.
	draws := 1
	if handling == HandleMultiImpute {
		draws = 3
	}
	total := 0.0
	for d := 0; d < draws; d++ {
		rng := stats.NewRNG(s.Seed + uint64(frac*1000) + uint64(mode)*7 + uint64(handling)*13 + uint64(d)*101)
		cands := make([]*core.Candidate, 0, len(a.Candidates))
		for _, c := range a.Candidates {
			attr, isTarget := targets[c.Name]
			if !isTarget {
				cands = append(cands, c)
				continue
			}
			corrupted := corruptAttribute(attr, frac, mode, rng)
			nc, err := corruptedCandidate(a, corrupted, handling, rng.Split())
			if err != nil {
				return 0, err
			}
			cands = append(cands, nc)
		}
		ex, err := core.Explain(context.Background(), a.T, a.O, cands, coreOpts)
		if err != nil {
			return 0, err
		}
		// The paper's metric: the explainability score of the explanation
		// MESA produced under this handling. Robust handling keeps it near
		// the clean-data score; distorting handling inflates it.
		total += ex.Score
	}
	return total / float64(draws), nil
}

// corruptAttribute deletes a fraction of the attribute's entity-level
// values, either uniformly at random or biased toward the highest values.
func corruptAttribute(attr *extract.Attribute, frac float64, mode RemovalMode, rng *stats.RNG) *extract.Attribute {
	col := attr.Col
	n := col.Len()
	drop := make([]bool, n)
	switch mode {
	case RemoveRandom:
		for i := 0; i < n; i++ {
			if !col.IsNull(i) && rng.Float64() < frac {
				drop[i] = true
			}
		}
	case RemoveBiased:
		type ev struct {
			idx int
			v   float64
		}
		var have []ev
		for i := 0; i < n; i++ {
			if !col.IsNull(i) {
				have = append(have, ev{i, col.Float(i)})
			}
		}
		if col.Typ == table.String {
			// Bias by dictionary order for categoricals.
			for j := range have {
				have[j].v = float64(col.Code(have[j].idx))
			}
		}
		sort.Slice(have, func(a, b int) bool { return have[a].v > have[b].v })
		k := int(frac * float64(len(have)))
		for j := 0; j < k; j++ {
			drop[have[j].idx] = true
		}
	}
	nc := table.NewColumn(col.Name, col.Typ)
	for i := 0; i < n; i++ {
		if drop[i] || col.IsNull(i) {
			nc.AppendNull()
			continue
		}
		switch col.Typ {
		case table.Float:
			nc.AppendFloat(col.Float(i))
		case table.String:
			nc.AppendString(col.StringAt(i))
		case table.Int:
			v, _ := col.Int(i)
			nc.AppendInt(v)
		case table.Bool:
			v, _ := col.BoolAt(i)
			nc.AppendBool(v)
		}
	}
	return attr.WithColumn(nc)
}

// corruptedCandidate wraps a corrupted attribute per the handling strategy.
func corruptedCandidate(a *nexus.Analysis, attr *extract.Attribute, handling Handling, rng *stats.RNG) (*core.Candidate, error) {
	var imputed *table.Column
	switch handling {
	case HandleImpute:
		imputed = missing.ImputeMean(attr.Col)
	case HandleMultiImpute:
		imputed = missing.SampleImpute(attr.Col, rng)
	default:
		return a.KGCandidate(attr), nil
	}
	enc, err := attr.WithColumn(imputed).Encode(bins.DefaultOptions())
	if err != nil {
		return nil, err
	}
	c := core.FromEncoded(enc, core.OriginKG)
	c.Hops = attr.Hops
	return c, nil
}

// FormatFig3 renders the sweep.
func FormatFig3(points []Fig3Point) string {
	var b strings.Builder
	b.WriteString("Figure 3: Explainability as a function of missing data\n")
	fmt.Fprintf(&b, "%-10s %8s %-8s %-11s %8s\n", "Dataset", "miss%", "mode", "handling", "score")
	for _, p := range points {
		fmt.Fprintf(&b, "%-10s %8.0f %-8s %-11s %8.3f\n",
			p.Dataset, p.MissingFrac*100, p.Mode, p.Handling, p.Score)
	}
	return b.String()
}

// MissingStatsRow reports §5.2 prevalence numbers for one dataset.
type MissingStatsRow struct {
	Dataset      string
	AvgMissing   float64 // average missing fraction across extracted attrs
	BiasedFrac   float64 // fraction of attrs with detected selection bias
	NumExtracted int
}

// MissingStats measures the prevalence of missing values and selection bias
// in extracted attributes (§5.2): each KG candidate as the pipeline encodes
// it, and biased when the pipeline detects selection bias in it (the
// candidate carries IPW weights).
func (s *Suite) MissingStats() ([]MissingStatsRow, error) {
	var out []MissingStatsRow
	for _, name := range []string{"SO", "Covid-19", "Flights", "Forbes"} {
		spec, err := firstQuery(name)
		if err != nil {
			return nil, err
		}
		a, err := s.Session(name).PrepareCtx(context.Background(), spec.SQL)
		if err != nil {
			return nil, err
		}
		if a.Extraction == nil {
			continue
		}
		row := MissingStatsRow{Dataset: name}
		for _, c := range a.Candidates {
			if c.Origin != core.OriginKG {
				continue
			}
			// Reading the candidate's vectors reads its weights: the
			// pipeline's own selection-bias verdict, counted by NumBiased.
			enc, _, err := c.Vectors()
			if err != nil {
				continue
			}
			row.AvgMissing += enc.MissingFraction()
			row.NumExtracted++
		}
		if row.NumExtracted > 0 {
			row.AvgMissing /= float64(row.NumExtracted)
			row.BiasedFrac = float64(a.NumBiased()) / float64(row.NumExtracted)
		}
		out = append(out, row)
	}
	return out, nil
}

// FormatMissingStats renders §5.2.
func FormatMissingStats(rows []MissingStatsRow) string {
	var b strings.Builder
	b.WriteString("§5.2: Missing values and selection bias in extracted attributes\n")
	fmt.Fprintf(&b, "%-10s %10s %10s %8s\n", "Dataset", "avg miss%", "biased%", "|E|")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %10.1f %10.1f %8d\n", r.Dataset, r.AvgMissing*100, r.BiasedFrac*100, r.NumExtracted)
	}
	return b.String()
}

// firstQuery returns the Q1 spec of a dataset.
func firstQuery(dataset string) (QuerySpec, error) {
	for _, q := range Queries() {
		if q.Dataset == dataset && q.ID == "Q1" {
			return q, nil
		}
	}
	return QuerySpec{}, fmt.Errorf("harness: no Q1 for dataset %q", dataset)
}
