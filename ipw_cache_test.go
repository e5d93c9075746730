package nexus_test

import (
	"context"
	"math"
	"sort"
	"sync"
	"testing"

	"nexus"
	"nexus/internal/obs"
	"nexus/internal/table"
	"nexus/internal/workload"
)

// ipwRun is one explained request: its report and what its own trace
// counted.
type ipwRun struct {
	rep          *nexus.Report
	fits, biased int64
}

// TestIPWStateSharedPerExtractionAndOutcome pins where the selection-bias
// detection and the IPW fits live: with the cached extraction, per outcome
// column. A session with an ExtractionCache is held to a cache-less session
// over the same data, request by request: the explanation Float64bits-equal,
// the same NumBiased, and fits run only where nothing shareable was fitted
// before.
func TestIPWStateSharedPerExtractionAndOutcome(t *testing.T) {
	w := integrationWorld()
	so := workload.StackOverflow(w, workload.Config{Rows: 2000, Seed: 3})
	session := func(cache *nexus.ExtractionCache) *nexus.Session {
		s := nexus.NewSession(w.Graph, &nexus.Options{ExtractCache: cache})
		s.RegisterTable(so.Name, so.Table, so.LinkColumns...)
		return s
	}
	// request explains sql under a trace of its own; NumBiased reads that
	// trace's counters.
	request := func(s *nexus.Session, sql string) (ipwRun, error) {
		tr := obs.New("request")
		rep, err := s.ExplainCtx(obs.WithTrace(context.Background(), tr), sql)
		if err != nil {
			return ipwRun{}, err
		}
		return ipwRun{rep, tr.Counters().Get(obs.IPWFits), int64(rep.Analysis.NumBiased())}, nil
	}
	explain := func(t *testing.T, s *nexus.Session, sql string) ipwRun {
		t.Helper()
		r, err := request(s, sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return r
	}
	same := func(t *testing.T, got, want ipwRun) {
		t.Helper()
		g, x := got.rep.Explanation, want.rep.Explanation
		if math.Float64bits(g.Score) != math.Float64bits(x.Score) || math.Float64bits(g.BaseScore) != math.Float64bits(x.BaseScore) || len(g.Attrs) != len(x.Attrs) {
			t.Fatalf("explanation %v (score %v of %v), cache-less %v (score %v of %v)", g.Names(), g.Score, g.BaseScore, x.Names(), x.Score, x.BaseScore)
		}
		for i := range g.Attrs {
			if g.Attrs[i].Name != x.Attrs[i].Name || math.Float64bits(g.Attrs[i].Responsibility) != math.Float64bits(x.Attrs[i].Responsibility) {
				t.Fatalf("attribute %d: %s %v, cache-less %s %v", i, g.Attrs[i].Name, g.Attrs[i].Responsibility, x.Attrs[i].Name, x.Attrs[i].Responsibility)
			}
		}
		if got.biased != want.biased {
			t.Fatalf("NumBiased %d, cache-less %d", got.biased, want.biased)
		}
	}

	const (
		salary   = "SELECT Country, avg(Salary) FROM SO GROUP BY Country"
		byDev    = "SELECT DevType, avg(Salary) FROM SO GROUP BY DevType"
		age      = "SELECT Country, avg(Age) FROM SO GROUP BY Country"
		filtered = "SELECT Country, avg(Salary) FROM SO WHERE Continent != 'Europe' GROUP BY Country"
	)
	solo := map[string]ipwRun{}
	for _, sql := range []string{salary, byDev, age, filtered} {
		solo[sql] = explain(t, session(nil), sql)
		if solo[sql].fits == 0 {
			t.Fatalf("fixture: %s fits no propensity model", sql)
		}
	}

	cached := session(nexus.NewExtractionCache(nil))
	first := explain(t, cached, salary)
	same(t, first, solo[salary])
	if first.fits != solo[salary].fits {
		t.Fatalf("first request: %d fits, cache-less %d", first.fits, solo[salary].fits)
	}
	for _, tc := range []struct {
		name, sql string
		// shared: the request reads the first request's extraction; fitted:
		// and its fits too.
		shared, fitted bool
	}{
		{"(a) same context and outcome, other GROUP BY", byDev, true, true},
		{"(b) other outcome over the same context", age, true, false},
		{"(c) other WHERE clause", filtered, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := explain(t, cached, tc.sql)
			same(t, got, solo[tc.sql])
			wantFits := solo[tc.sql].fits
			if tc.fitted {
				wantFits = 0
			}
			if got.fits != wantFits {
				t.Errorf("%d fits, want %d", got.fits, wantFits)
			}
			if shared := got.rep.Analysis.Extraction == first.rep.Analysis.Extraction; shared != tc.shared {
				t.Errorf("extraction shared with the first request: %v, want %v", shared, tc.shared)
			}
		})
	}

	t.Run("(d) a modified copy fits its own column", func(t *testing.T) {
		// Drop the highest 40% of GDP values: missingness that follows the
		// outcome, so the copy is biased whatever the original is.
		withBiasedGaps := func(a *nexus.Analysis) []float64 {
			attr := a.Extraction.Attr("GDP")
			if attr == nil {
				t.Fatal("fixture: no GDP attribute")
			}
			var vals []float64
			for i := 0; i < attr.Col.Len(); i++ {
				if !attr.Col.IsNull(i) {
					vals = append(vals, attr.Col.Float(i))
				}
			}
			sort.Float64s(vals)
			cut := vals[len(vals)*6/10]
			col := table.NewColumn("GDP", table.Float)
			for i := 0; i < attr.Col.Len(); i++ {
				if attr.Col.IsNull(i) || attr.Col.Float(i) >= cut {
					col.AppendNull()
				} else {
					col.AppendFloat(attr.Col.Float(i))
				}
			}
			return a.KGCandidate(attr.WithColumn(col)).Entity.Weights()
		}
		a := first.rep.Analysis
		got, want := withBiasedGaps(a), withBiasedGaps(solo[salary].rep.Analysis)
		if want == nil {
			t.Fatal("fixture: the modified copy shows no selection bias")
		}
		if !bitsEqual(got, want) {
			t.Fatal("the copy's weights differ from the cache-less run's")
		}
		if bitsEqual(got, a.Candidate("GDP").Entity.Weights()) {
			t.Fatal("the copy read the original attribute's weights")
		}
	})

	t.Run("(e) two outcomes concurrently", func(t *testing.T) {
		s := session(nexus.NewExtractionCache(nil))
		sqls := []string{salary, age}
		got := make([]ipwRun, len(sqls))
		errs := make([]error, len(sqls))
		var wg sync.WaitGroup
		for i, sql := range sqls {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = request(s, sql)
			}()
		}
		wg.Wait()
		for i, sql := range sqls {
			if errs[i] != nil {
				t.Fatalf("%s: %v", sql, errs[i])
			}
			same(t, got[i], solo[sql])
			if got[i].fits != solo[sql].fits {
				t.Errorf("%s: %d fits, solo %d", sql, got[i].fits, solo[sql].fits)
			}
		}
	})
}

// bitsEqual reports whether a and b are both nil or Float64bits-equal.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
