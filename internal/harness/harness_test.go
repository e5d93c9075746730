package harness

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"

	"nexus"
	"nexus/internal/baselines"
	"nexus/internal/bins"
	"nexus/internal/core"
	"nexus/internal/missing"
	"nexus/internal/obs"
	"nexus/internal/table"
)

var (
	suiteOnce sync.Once
	suite     *Suite
)

func testSuite() *Suite {
	suiteOnce.Do(func() { suite = NewSuite(11, TestScale()) })
	return suite
}

func specByKey(t *testing.T, key string) QuerySpec {
	t.Helper()
	for _, q := range Queries() {
		if q.Key() == key {
			return q
		}
	}
	t.Fatalf("no query %q", key)
	return QuerySpec{}
}

func TestQueriesAllParseable(t *testing.T) {
	s := testSuite()
	for _, spec := range Queries() {
		if _, err := s.Session(spec.Dataset).PrepareCtx(context.Background(), spec.SQL); err != nil {
			t.Errorf("%s: %v", spec.Key(), err)
		}
	}
}

func TestQueriesCount(t *testing.T) {
	if n := len(Queries()); n != 14 {
		t.Fatalf("queries = %d, want the paper's 14", n)
	}
}

func TestTable1(t *testing.T) {
	rows, err := testSuite().Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.Dataset] = r
		if r.Extracted < 100 {
			t.Errorf("%s extracted only %d attributes", r.Dataset, r.Extracted)
		}
	}
	if byName["Covid-19"].Rows != 188 {
		t.Fatalf("covid rows = %d", byName["Covid-19"].Rows)
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "Forbes") {
		t.Fatal("format missing dataset")
	}
}

func TestTable2And3Ordering(t *testing.T) {
	s := testSuite()
	specs := []QuerySpec{
		specByKey(t, "SO Q1"),
		specByKey(t, "Covid-19 Q1"),
		specByKey(t, "Covid-19 Q3"),
		specByKey(t, "Forbes Q3"),
	}
	var results []*QueryResult
	for _, spec := range specs {
		qr := goldenResults[spec.Key()]
		if qr == nil {
			var err error
			if qr, err = s.RunQuery(spec, core.DefaultOptions()); err != nil {
				t.Fatal(err)
			}
		}
		results = append(results, qr)
	}
	table3 := s.Table3(results)
	score := map[string]float64{}
	for _, r := range table3 {
		score[r.Method] = r.Mean
	}
	// Shape assertions robust to the small test scale: MESA must rate a
	// solid explanation quality, never fall far behind any baseline, and
	// clearly beat Top-K's redundant lists (the paper's headline gap).
	if score[baselines.MethodMESA] < 2.2 {
		t.Errorf("MESA score %.2f too low", score[baselines.MethodMESA])
	}
	for _, m := range []string{baselines.MethodTopK, baselines.MethodLR, baselines.MethodHypDB} {
		if score[baselines.MethodMESA] < score[m]-0.45 {
			t.Errorf("MESA %.2f far below %s %.2f", score[baselines.MethodMESA], m, score[m])
		}
	}
	// MESA ≈ MESA- (pruning shouldn't hurt quality much).
	d := score[baselines.MethodMESA] - score[baselines.MethodMESAMinus]
	if d < -0.6 || d > 0.6 {
		t.Errorf("MESA %.2f vs MESA- %.2f differ too much", score[baselines.MethodMESA], score[baselines.MethodMESAMinus])
	}
	txt := FormatTable2(results) + FormatTable3(table3)
	if !strings.Contains(txt, "MESA") {
		t.Fatal("format broken")
	}

	// Brute-Force minimizes the Def. 2.3 objective score·|E|; MESA's
	// objective must not beat it by more than the candidate-cap tolerance.
	for _, qr := range results {
		bf, mesa := qr.Runs[baselines.MethodBruteForce], qr.Runs[baselines.MethodMESA]
		if bf.Skipped || bf.Result == nil || bf.Failed || mesa.Result == nil || mesa.Failed {
			continue
		}
		bfObj := bf.Score * float64(len(bf.Attrs))
		mesaObj := mesa.Score * float64(len(mesa.Attrs))
		if mesaObj < bfObj-0.25 {
			t.Errorf("%s: MESA objective %.3f beats BF %.3f by more than cap tolerance", qr.Spec.Key(), mesaObj, bfObj)
		}
	}
	fig2 := Fig2(results)
	if len(fig2) == 0 {
		t.Fatal("no fig2 rows")
	}
	_ = FormatFig2(fig2)
}

func TestFig3IPWBeatsImputationUnderBias(t *testing.T) {
	s := testSuite()
	points, err := s.Fig3("SO", []float64{0, 0.5}, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	get := func(frac float64, mode RemovalMode, h Handling) float64 {
		for _, p := range points {
			if p.MissingFrac == frac && p.Mode == mode && p.Handling == h {
				return p.Score
			}
		}
		t.Fatalf("missing point %v %v %v", frac, mode, h)
		return 0
	}
	// The world already carries baseline sparsity, so absolute scores
	// differ across handlings even at 0% added missingness. What Fig. 3
	// asserts is the *degradation trajectory*: under biased removal, IPW
	// explanations must not degrade substantially more than imputation
	// (the paper shows imputation collapsing while IPW stays flat).
	ipwDeg := get(0.5, RemoveBiased, HandleIPW) - get(0, RemoveBiased, HandleIPW)
	impDeg := get(0.5, RemoveBiased, HandleImpute) - get(0, RemoveBiased, HandleImpute)
	if ipwDeg > impDeg+0.15 {
		t.Errorf("IPW degraded by %.3f vs imputation %.3f under biased removal", ipwDeg, impDeg)
	}
	// IPW at 50% random removal stays near its clean score (robustness).
	if d := get(0.5, RemoveRandom, HandleIPW) - get(0, RemoveRandom, HandleIPW); d > 0.3 {
		t.Errorf("IPW degraded by %.3f under 50%% random removal", d)
	}
	_ = FormatFig3(points)
}

// TestFig3ArmsBinAlike pins that Fig. 3's arms read an attribute at the same
// bins: the imputation arm encodes its imputed column as the pipeline
// encodes that column (the IPW arm's candidate over it), at the analysis's
// bins. On Covid-19 (188 rows, 4 bins) an arm binned at bins.DefaultOptions'
// 8 would explain with finer strata than the arm it is compared with.
func TestFig3ArmsBinAlike(t *testing.T) {
	s := testSuite()
	spec, err := firstQuery("Covid-19")
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Session(spec.Dataset).PrepareCtx(context.Background(), spec.SQL)
	if err != nil {
		t.Fatal(err)
	}
	binned := 0
	for _, attr := range a.Extraction.Attrs {
		if attr.Col.Typ != table.Float && attr.Col.Typ != table.Int {
			continue
		}
		imputed, err := corruptedCandidate(a, attr, HandleImpute, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := imputed.Enc()
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := a.KGCandidate(attr.WithColumn(missing.ImputeMean(attr.Col))).Vectors()
		if err != nil {
			t.Fatal(err)
		}
		if got.Card != want.Card || got.Len() != want.Len() {
			t.Fatalf("%s: imputation arm has %d codes over %d rows, the pipeline's reading %d over %d",
				attr.Name, got.Card, got.Len(), want.Card, want.Len())
		}
		for i := range got.Len() {
			if got.Code(i) != want.Code(i) {
				t.Fatalf("%s: row %d coded %d by the imputation arm, %d by the pipeline", attr.Name, i, got.Code(i), want.Code(i))
			}
		}
		if attr.Col.DistinctCount() > bins.DefaultOptions().Bins {
			binned++
		}
	}
	if binned == 0 {
		t.Fatal("no numeric attribute with more distinct values than bins.DefaultOptions' bins: the fixture pins nothing")
	}
}

func TestFig4PruningHelps(t *testing.T) {
	s := testSuite()
	points, err := s.Fig4("Forbes", []int{50, 150}, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("points = %d", len(points))
	}
	// All variants completed and produced explanations of bounded size.
	for _, p := range points {
		if p.ExplSize > 5 {
			t.Errorf("explanation size %d > K", p.ExplSize)
		}
	}
	_ = FormatPerf("fig4", "|A|", points)
}

func TestFig5And6Run(t *testing.T) {
	s := testSuite()
	p5, err := s.Fig5("Forbes", []int{400, 1600}, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(p5) != 2 {
		t.Fatalf("fig5 points = %d", len(p5))
	}
	p6, err := s.Fig6("Covid-19", []int{1, 3, 5}, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Explanation size never exceeds k.
	for _, p := range p6 {
		if p.ExplSize > int(p.X) {
			t.Errorf("k=%v produced %d attrs", p.X, p.ExplSize)
		}
	}
}

func TestTable4Subgroups(t *testing.T) {
	s := testSuite()
	res, err := s.Table4(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Explanation) == 0 {
		t.Fatal("no explanation for SO Q1")
	}
	txt := FormatTable4(res)
	if !strings.Contains(txt, "Table 4") {
		t.Fatal("format broken")
	}
	// Size-ordered groups.
	for i := 1; i < len(res.Groups); i++ {
		if res.Groups[i].Size > res.Groups[i-1].Size {
			t.Fatal("groups not size-ordered")
		}
	}
}

// Table4's session calls run under the trace of its core options, like its
// core calls: the pipeline's spans and counters reach the experiment's
// trace. A fresh suite, so the extraction is not already cached.
func TestTable4Traced(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Trace = obs.New("table4")
	if _, err := NewSuite(11, TestScale()).Table4(opts); err != nil {
		t.Fatal(err)
	}
	opts.Trace.Close()
	names := map[string]bool{}
	for _, e := range opts.Trace.Events() {
		names[e.Name] = true
	}
	for _, want := range []string{"prepare", "kg-extract", "core-explain", "subgroup-search"} {
		if !names[want] {
			t.Errorf("no %q span under Table4's trace; spans: %v", want, names)
		}
	}
	if got := opts.Trace.Counters().Get(obs.KGAttrs); got == 0 {
		t.Errorf("%s = 0 under Table4's trace", obs.KGAttrs)
	}
}

func TestRandomQueriesUsefulness(t *testing.T) {
	s := testSuite()
	rep, err := s.RandomQueries(3, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 12 {
		t.Fatalf("results = %d", len(rep.Results))
	}
	// The paper reports 72.5%; shape check: above half.
	if rep.UsefulFrac < 0.5 {
		t.Errorf("useful fraction = %.2f, want > 0.5 (paper 0.725)", rep.UsefulFrac)
	}
	_ = FormatRandomQueries(rep)
}

func TestMissingStats(t *testing.T) {
	s := testSuite()
	rows, err := s.MissingStats()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]MissingStatsRow{}
	for _, r := range rows {
		byName[r.Dataset] = r
		if r.AvgMissing <= 0.05 || r.AvgMissing >= 0.95 {
			t.Errorf("%s avg missing = %.2f, implausible", r.Dataset, r.AvgMissing)
		}
		if r.BiasedFrac <= 0 {
			t.Errorf("%s detected no selection bias", r.Dataset)
		}
	}
	// Forbes has the most missing values (paper: 73%).
	if byName["Forbes"].AvgMissing <= byName["SO"].AvgMissing {
		t.Errorf("Forbes missing %.2f not above SO %.2f",
			byName["Forbes"].AvgMissing, byName["SO"].AvgMissing)
	}
	_ = FormatMissingStats(rows)
}

func TestPruningImpact(t *testing.T) {
	s := testSuite()
	rows, err := s.PruningImpact(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.OfflineDrop <= 0 {
			t.Errorf("%s: offline pruning dropped nothing", r.Dataset)
		}
		if r.FinalKept == 0 {
			t.Errorf("%s: everything pruned", r.Dataset)
		}
	}
	_ = FormatPruning(rows)
}

func TestMultiHop(t *testing.T) {
	s := testSuite()
	rows, err := s.MultiHop([]QuerySpec{specByKey(t, "Covid-19 Q1")}, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.Cands2 <= r.Cands1 {
		t.Fatalf("2-hop candidates %d not above 1-hop %d", r.Cands2, r.Cands1)
	}
	_ = FormatMultiHop(rows)
}

func TestAblations(t *testing.T) {
	s := testSuite()
	base := core.DefaultOptions()
	base.Trace = obs.New("ablations")
	rows, err := s.Ablations([]QuerySpec{specByKey(t, "Covid-19 Q1")}, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The base trace reaches each variant's explanation through the context.
	explains := 0
	var walk func(d *obs.SpanData)
	walk = func(d *obs.SpanData) {
		if d.Name == "core-explain" {
			explains++
		}
		for _, c := range d.Children {
			walk(c)
		}
	}
	walk(base.Trace.Close().Root)
	if explains != 3 {
		t.Fatalf("%d core-explain spans in the base trace, want 3 (one per variant)", explains)
	}
	byVariant := map[string]AblationRow{}
	for _, r := range rows {
		byVariant[r.Variant] = r
	}
	// Fixed-k must select exactly K=5 attributes (no stopping).
	if got := len(byVariant["fixed-k"].Attrs); got != 5 {
		t.Fatalf("fixed-k selected %d attrs, want 5", got)
	}
	// Default stops earlier (the responsibility test binds on Covid).
	if len(byVariant["default"].Attrs) >= 5 {
		t.Fatalf("default selected %d attrs; stopping criterion inactive?", len(byVariant["default"].Attrs))
	}
	_ = FormatAblations(rows)
}

func TestFormatPerfAndOptsFor(t *testing.T) {
	base := core.DefaultOptions()
	np := optsFor(VariantNoPruning, base)
	if !np.DisableOfflinePrune || !np.DisableOnlinePrune {
		t.Fatal("no-pruning variant misconfigured")
	}
	off := optsFor(VariantOffline, base)
	if off.DisableOfflinePrune || !off.DisableOnlinePrune {
		t.Fatal("offline-only variant misconfigured")
	}
	full := optsFor(VariantMCIMR, base)
	if full.DisableOfflinePrune || full.DisableOnlinePrune {
		t.Fatal("full variant misconfigured")
	}
	out := FormatPerf("title", "x", []PerfPoint{{Dataset: "SO", Variant: VariantMCIMR, X: 7}})
	if !strings.Contains(out, "title") || !strings.Contains(out, "MCIMR") {
		t.Fatalf("FormatPerf output %q", out)
	}
}

// TestRunAllBroadcastsNoKGCandidate pins that the comparison reads every
// candidate as the pipeline does: all six methods, Brute-Force included, run
// on SO Q1 and Covid-19 Q1 without broadcasting a KG candidate to rows
// (kg_row_encodings stays 0), each scoring the entity form through the row→slot
// map instead.
func TestRunAllBroadcastsNoKGCandidate(t *testing.T) {
	s := testSuite()
	for _, key := range []string{"SO Q1", "Covid-19 Q1"} {
		spec := specByKey(t, key)
		spec.BruteForce = true
		counters := obs.NewCounters()
		a, err := s.SessionWith(spec.Dataset, nexus.Options{Metrics: counters}).PrepareCtx(context.Background(), spec.SQL)
		if err != nil {
			t.Fatal(err)
		}
		runs, err := RunAll(a, spec, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range Methods {
			if r := runs[m]; r.Skipped || r.Result == nil {
				t.Fatalf("%s: %s did not run", key, m)
			}
		}
		if got := counters.Get(obs.KGRowEncodings); got != 0 {
			t.Errorf("%s: kg_row_encodings = %d through RunAll, want 0", key, got)
		}
	}
}

// TestMissingStatsCountsThePipelinesVerdicts pins §5.2's biased count to the
// pipeline's: the KG candidates that carry IPW weights as the scoring core
// reads them (core.Candidate.Vectors), which is also the biased_attrs counter
// a traced run reports. It used to rerun the detector on its own 8-bin copy of
// the slot-level outcome, where the pipeline bins Covid-19 and Forbes coarser.
func TestMissingStatsCountsThePipelinesVerdicts(t *testing.T) {
	s := testSuite()
	rows, err := s.MissingStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for _, r := range rows {
		spec, err := firstQuery(r.Dataset)
		if err != nil {
			t.Fatal(err)
		}
		counters := obs.NewCounters()
		a, err := s.SessionWith(r.Dataset, nexus.Options{Metrics: counters}).PrepareCtx(context.Background(), spec.SQL)
		if err != nil {
			t.Fatal(err)
		}
		biased := 0
		for _, c := range a.Candidates {
			if c.Origin != core.OriginKG {
				continue
			}
			if _, w, err := c.Vectors(); err != nil {
				t.Fatal(err)
			} else if w != nil {
				biased++
			}
		}
		if got := int(math.Round(r.BiasedFrac * float64(r.NumExtracted))); got != biased || int64(biased) != counters.Get(obs.BiasedAttrs) {
			t.Errorf("%s: §5.2 counts %d biased of %d, the pipeline %d (biased_attrs %d)",
				r.Dataset, got, r.NumExtracted, biased, counters.Get(obs.BiasedAttrs))
		}
	}
}
