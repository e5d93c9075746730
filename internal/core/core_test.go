package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"nexus/internal/bins"
	"nexus/internal/infotheory"
	"nexus/internal/obs"
	"nexus/internal/stats"
	"nexus/internal/table"
)

// scenario builds a confounded dataset:
//
//	Z1, Z2 latent uniform{0..3} confounders
//	T = f(Z1, Z2) + noise, O = g(Z1, Z2) + noise
//
// plus distractor candidates. Returns T, O encodings and the candidates.
type scenario struct {
	t, o  *bins.Encoded
	z1    *Candidate
	z1dup *Candidate // near-copy of z1 (redundant)
	z2    *Candidate
	noise *Candidate
	all   []*Candidate
}

func buildScenario(tb testing.TB, n int, seed uint64) *scenario {
	tb.Helper()
	rng := stats.NewRNG(seed)
	z1v := make([]string, n)
	z1dupv := make([]string, n)
	z2v := make([]string, n)
	tv := make([]string, n)
	ov := make([]string, n)
	noisev := make([]string, n)
	for i := 0; i < n; i++ {
		z1 := rng.Intn(4)
		z2 := rng.Intn(4)
		z1v[i] = fmt.Sprintf("a%d", z1)
		z2v[i] = fmt.Sprintf("b%d", z2)
		// Duplicate of z1 with 5% corruption.
		if rng.Float64() < 0.05 {
			z1dupv[i] = fmt.Sprintf("a%d", rng.Intn(4))
		} else {
			z1dupv[i] = z1v[i]
		}
		tcode := z1*4 + z2
		if rng.Float64() < 0.15 {
			tcode = rng.Intn(16)
		}
		tv[i] = fmt.Sprintf("t%d", tcode)
		oc := z1 + z2
		if rng.Float64() < 0.15 {
			oc = rng.Intn(7)
		}
		ov[i] = fmt.Sprintf("o%d", oc)
		noisev[i] = fmt.Sprintf("n%d", rng.Intn(4))
	}
	mk := func(name string, vals []string) *bins.Encoded {
		e, err := bins.Encode(table.NewStringColumn(name, vals), bins.DefaultOptions())
		if err != nil {
			tb.Fatal(err)
		}
		return e
	}
	s := &scenario{t: mk("T", tv), o: mk("O", ov)}
	s.z1 = FromEncoded(mk("Z1", z1v), OriginKG)
	s.z1dup = FromEncoded(mk("Z1copy", z1dupv), OriginKG)
	s.z2 = FromEncoded(mk("Z2", z2v), OriginKG)
	s.noise = FromEncoded(mk("Noise", noisev), OriginKG)
	s.all = []*Candidate{s.noise, s.z1dup, s.z1, s.z2}
	return s
}

func TestExplainFindsConfounders(t *testing.T) {
	s := buildScenario(t, 8000, 1)
	res, err := Explain(context.Background(), s.t, s.o, s.all, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	names := res.Names()
	if len(names) < 2 {
		t.Fatalf("explanation = %v, want both confounders", names)
	}
	got := map[string]bool{}
	for _, n := range names {
		got[n] = true
	}
	if !(got["Z1"] || got["Z1copy"]) || !got["Z2"] {
		t.Fatalf("explanation = %v, want {Z1|Z1copy, Z2}", names)
	}
	if got["Noise"] {
		t.Fatalf("noise selected: %v", names)
	}
	// Explanation must reduce the correlation substantially.
	if res.Score > res.BaseScore/3 {
		t.Fatalf("score %.3f not ≪ base %.3f", res.Score, res.BaseScore)
	}
}

func TestMCIMRAvoidsRedundantDuplicate(t *testing.T) {
	s := buildScenario(t, 8000, 2)
	sel, err := MCIMRCtx(context.Background(), s.t, s.o, s.all, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Attrs) != 2 {
		t.Fatalf("selected %d attrs", len(sel.Attrs))
	}
	n0, n1 := sel.Attrs[0].Name, sel.Attrs[1].Name
	isZ1 := func(n string) bool { return n == "Z1" || n == "Z1copy" }
	if isZ1(n0) && isZ1(n1) {
		t.Fatalf("MCIMR selected redundant pair {%s, %s}", n0, n1)
	}
}

func TestResponsibilityTestStopsEarly(t *testing.T) {
	s := buildScenario(t, 8000, 3)
	res, err := Explain(context.Background(), s.t, s.o, s.all, Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Only two real confounders exist; K=5 must not force 5 attributes.
	if len(res.Attrs) > 3 {
		t.Fatalf("explanation size %d; responsibility test failed to stop", len(res.Attrs))
	}
}

func TestResponsibilitiesSumToOne(t *testing.T) {
	s := buildScenario(t, 8000, 4)
	res, err := Explain(context.Background(), s.t, s.o, s.all, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Attrs) < 2 {
		t.Skip("explanation too small for responsibility check")
	}
	sum := 0.0
	for _, a := range res.Attrs {
		sum += a.Responsibility
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("responsibilities sum to %v", sum)
	}
	// The two real confounders must carry essentially all responsibility;
	// an attribute that slipped past the ≈0 stopping test may carry a tiny
	// (even slightly negative) share.
	for _, a := range res.Attrs {
		if a.Responsibility < -0.05 {
			t.Fatalf("attribute %s has substantially negative responsibility %v", a.Name, a.Responsibility)
		}
	}
	top := res.Attrs[0].Responsibility + res.Attrs[1].Responsibility
	if top < 0.9 {
		t.Fatalf("top-2 responsibility = %v, want ≥ 0.9", top)
	}
}

func TestSingleAttrResponsibilityIsOne(t *testing.T) {
	s := buildScenario(t, 4000, 5)
	res, err := Explain(context.Background(), s.t, s.o, []*Candidate{s.z1}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Attrs) != 1 || res.Attrs[0].Responsibility != 1 {
		t.Fatalf("attrs = %+v", res.Attrs)
	}
}

func TestExplainEmptyCandidates(t *testing.T) {
	s := buildScenario(t, 1000, 6)
	res, err := Explain(context.Background(), s.t, s.o, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Attrs) != 0 {
		t.Fatal("explanation from no candidates")
	}
	if math.Abs(res.Score-res.BaseScore) > 1e-9 {
		t.Fatal("empty explanation should leave score at base")
	}
}

func TestOfflinePruneRules(t *testing.T) {
	n := 500
	rng := stats.NewRNG(7)
	constant := make([]string, n)
	unique := make([]string, n)
	missing := make([]float64, n)
	ok := make([]string, n)
	for i := 0; i < n; i++ {
		constant[i] = "same"
		unique[i] = fmt.Sprintf("id%06d", i)
		missing[i] = math.NaN()
		if rng.Float64() < 0.05 {
			missing[i] = rng.Norm()
		}
		ok[i] = fmt.Sprintf("v%d", rng.Intn(4))
	}
	mk := func(name string, vals []string) *Candidate {
		c, err := FromColumn(table.NewStringColumn(name, vals), bins.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	mc, err := FromColumn(table.NewFloatColumn("mostlyMissing", missing), bins.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cands := []*Candidate{mk("const", constant), mk("wikiID", unique), mc, mk("good", ok)}
	kept, stats, err := OfflinePruneCtx(context.Background(), nil, cands, PruneOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != 1 || kept[0].Name != "good" {
		t.Fatalf("kept = %v", names(kept))
	}
	if stats.Dropped[PruneConstant] != 1 || stats.Dropped[PruneUnique] != 1 || stats.Dropped[PruneMissing] != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestOfflinePruneEntityLevelUnique(t *testing.T) {
	// A wikiID broadcast over many rows: row-level distinct ≪ rows, but
	// entity-level it is unique and must be pruned.
	n := 2000
	vals := make([]string, n)
	for i := 0; i < n; i++ {
		vals[i] = fmt.Sprintf("Q%03d", i%100) // 100 entities × 20 rows
	}
	c, err := FromColumn(table.NewStringColumn("wikiID", vals), bins.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	c.EntityCard = 100
	c.EntityComplete = 100
	kept, st, err := OfflinePruneCtx(context.Background(), nil, []*Candidate{c}, PruneOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != 0 || st.Dropped[PruneUnique] != 1 {
		t.Fatalf("entity-unique identifier not pruned: %+v", st)
	}
}

func TestOnlinePruneLogicalDependency(t *testing.T) {
	s := buildScenario(t, 4000, 8)
	// CountryCode ⇔ T: a renaming of T's codes.
	codes := make([]int32, s.t.Len())
	copy(codes, s.t.Codes)
	fd := FromEncoded(&bins.Encoded{Name: "Tcode", Codes: codes, Card: s.t.Card}, OriginKG)
	kept, st, err := OnlinePruneCtx(context.Background(), nil, s.t, s.o, []*Candidate{fd, s.z1}, PruneOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Dropped[PruneFD] != 1 {
		t.Fatalf("FD attribute not pruned: %+v", st)
	}
	if len(kept) != 1 || kept[0].Name != "Z1" {
		t.Fatalf("kept = %v", names(kept))
	}
}

func TestOnlinePruneLowRelevance(t *testing.T) {
	s := buildScenario(t, 8000, 9)
	kept, st, err := OnlinePruneCtx(context.Background(), nil, s.t, s.o, []*Candidate{s.noise, s.z1}, PruneOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Dropped[PruneIrrelevant] != 1 {
		t.Fatalf("noise not pruned: %+v", st)
	}
	if len(kept) != 1 || kept[0].Name != "Z1" {
		t.Fatalf("kept = %v", names(kept))
	}
}

func TestExplainWithoutPruningStillWorks(t *testing.T) {
	s := buildScenario(t, 6000, 10)
	opts := DefaultOptions()
	opts.DisableOfflinePrune = true
	opts.DisableOnlinePrune = true
	res, err := Explain(context.Background(), s.t, s.o, s.all, opts)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, n := range res.Names() {
		got[n] = true
	}
	if !(got["Z1"] || got["Z1copy"]) {
		t.Fatalf("MESA- failed to find Z1: %v", res.Names())
	}
}

func TestCombineExposure(t *testing.T) {
	a := &bins.Encoded{Name: "a", Card: 2, Codes: []int32{0, 0, 1, 1, bins.Missing}}
	b := &bins.Encoded{Name: "b", Card: 2, Codes: []int32{0, 1, 0, 1, 0}}
	c := CombineExposure([]*bins.Encoded{a, b})
	if c.Card != 4 {
		t.Fatalf("card = %d, want 4", c.Card)
	}
	if c.Codes[4] != bins.Missing {
		t.Fatal("missing part should make combined missing")
	}
	seen := map[int32]bool{}
	for _, code := range c.Codes[:4] {
		if seen[code] {
			t.Fatal("distinct combinations collided")
		}
		seen[code] = true
	}
	// Single part passes through.
	if CombineExposure([]*bins.Encoded{a}) != a {
		t.Fatal("single exposure should pass through")
	}
}

func TestCombineWeights(t *testing.T) {
	if combineWeights(nil, nil) != nil {
		t.Fatal("all-nil should be nil")
	}
	w := combineWeights([]float64{1, 2}, nil, []float64{3, 0})
	if w[0] != 3 || w[1] != 0 {
		t.Fatalf("combined = %v", w)
	}
	// Inputs unchanged.
	w2 := []float64{5, 5}
	_ = combineWeights(w2, []float64{2, 2})
	if w2[0] != 5 {
		t.Fatal("combineWeights mutated input")
	}
}

// The §5 explainability score of an explicit attribute set is I(O;T|E): on
// the scenario both planted confounders together explain most of I(O;T).
func TestEvaluateSet(t *testing.T) {
	s := buildScenario(t, 6000, 11)
	e1, _ := s.z1.Enc()
	e2, _ := s.z2.Enc()
	base := infotheory.MutualInfo(s.o, s.t, nil)
	both := infotheory.CondMutualInfo(s.o, s.t, []*bins.Encoded{e1, e2}, infotheory.Weights{})
	if both >= base/2 {
		t.Fatalf("I(O;T|Z1,Z2) = %.3f, base %.3f", both, base)
	}
}

func TestCandidatesFromTable(t *testing.T) {
	tbl := table.MustFromColumns(
		table.NewStringColumn("T", []string{"a", "b"}),
		table.NewFloatColumn("O", []float64{1, 2}),
		table.NewStringColumn("X", []string{"p", "q"}),
	)
	cands, err := CandidatesFromTable(tbl, []string{"T", "O"}, bins.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 1 || cands[0].Name != "X" || cands[0].Origin != OriginInput {
		t.Fatalf("cands = %v", names(cands))
	}
}

func TestParallelForMatchesSerial(t *testing.T) {
	n := 1000
	out := make([]int, n)
	parallelFor(context.Background(), n, 8, func(i int) { out[i] = i * i })
	for i := range out {
		if out[i] != i*i {
			t.Fatalf("index %d not processed", i)
		}
	}
	// Degenerate worker counts.
	parallelFor(context.Background(), 3, 100, func(i int) { out[i] = -1 })
	if out[0] != -1 || out[2] != -1 {
		t.Fatal("workers > n broken")
	}
	parallelFor(context.Background(), 0, 4, func(i int) { t.Fatal("fn called for n=0") })
}

func TestExplainEncodesOncePerCandidate(t *testing.T) {
	// Explain broadcasts no entity-form candidate: across offline prune,
	// online prune, MCIMR's relevance pass, consider loop and redundancy
	// passes (run on 4 workers) and the final score, weighted candidates
	// included, no candidate's Enc is asked for rows, and the suppliers
	// behind FromEntity are called exactly once each. The rows a subgroup
	// search requests afterwards are built once per candidate.
	const nEnt, rowsPer = 120, 40
	n := nEnt * rowsPer
	rng := stats.NewRNG(12)
	slots := make([]int32, n)
	z := make([]float64, nEnt)
	for e := range z {
		z[e] = rng.Norm()
	}
	tv, ov := make([]float64, n), make([]float64, n)
	for i := range slots {
		e := i % nEnt
		slots[i] = int32(e)
		tv[i] = z[e] + rng.Norm()
		ov[i] = 2*z[e] + 0.5*rng.Norm()
	}
	enc := func(name string, vals []float64) *bins.Encoded {
		e, err := bins.Encode(table.NewFloatColumn(name, vals), bins.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	tEnc, oEnc := enc("T", tv), enc("O", ov)

	attrs := map[string][]float64{"Z": z, "Const": make([]float64, nEnt)}
	for _, name := range []string{"Zcopy", "Junk1", "Junk2", "Junk3"} {
		vals := make([]float64, nEnt)
		for e := range vals {
			vals[e] = rng.Norm()
			if name == "Zcopy" {
				vals[e] = z[e] + 0.3*vals[e]
			}
		}
		attrs[name] = vals
	}
	counters := obs.NewCounters()
	var cands []*Candidate
	var encCalls, wCalls, requested []*atomic.Int64
	for i, name := range []string{"Junk1", "Zcopy", "Const", "Z", "Junk2", "Junk3"} {
		slotEnc := enc(name, attrs[name])
		nEnc, nW, nReq := new(atomic.Int64), new(atomic.Int64), new(atomic.Int64)
		weighted := i%2 == 1 // Zcopy, Z, Junk3 take the weighted row pass
		c := FromEntity(name, 1, &Entity{
			Slots: slots,
			Enc: func() (*bins.Encoded, error) {
				nEnc.Add(1)
				return slotEnc, nil
			},
			Weights: func() []float64 {
				nW.Add(1)
				if !weighted {
					return nil
				}
				w := make([]float64, nEnt)
				for e := range w {
					w[e] = 1 + float64(e%3)/4
				}
				return w
			},
		}, counters)
		inner := c.Enc
		c.Enc = func() (*bins.Encoded, error) {
			nReq.Store(1)
			return inner()
		}
		cands = append(cands, c)
		encCalls, wCalls, requested = append(encCalls, nEnc), append(wCalls, nW), append(requested, nReq)
	}

	opts := DefaultOptions()
	opts.Parallelism = 4
	ex, err := Explain(context.Background(), tEnc, oEnc, cands, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Attrs) == 0 || ex.OfflineStats.Dropped[PruneConstant] != 1 {
		t.Fatalf("fixture too weak: explanation %v, offline %+v", ex.Names(), ex.OfflineStats)
	}
	var rows int64
	for _, r := range requested {
		rows += r.Load()
	}
	if got := counters.Get(obs.KGRowEncodings); got != 0 || rows != 0 {
		t.Fatalf("kg_row_encodings = %d and %d candidates' Enc requested during Explain, want 0", got, rows)
	}
	// The scoring core's view stays in entity form: nEnt codes and weights
	// under the n-row map.
	for _, c := range cands {
		e, w, err := c.vectors()
		if err != nil || e.Len() != n || len(e.Codes) != nEnt || (w != nil && len(w) != nEnt) {
			t.Fatalf("%s: vectors = %d rows over %d codes, %d weights, %v", c.Name, e.Len(), len(e.Codes), len(w), err)
		}
	}
	// What Report.SubgroupsCtx does next: the explanation's encodings and the
	// refinement attributes are requested as rows, here for every candidate.
	for _, c := range cands {
		for rep := 0; rep < 2; rep++ {
			e, err := c.Enc()
			if err != nil || e.Len() != n || e.Slots != nil {
				t.Fatalf("%s: Enc = %d rows (indirect %v), %v", c.Name, e.Len(), e.Slots != nil, err)
			}
			if w := c.Weights; w != nil && w(e) != nil && len(w(e)) != n {
				t.Fatalf("%s: %d row weights, want %d", c.Name, len(w(e)), n)
			}
		}
	}
	for i, c := range cands {
		if e, w := encCalls[i].Load(), wCalls[i].Load(); e != 1 || w != 1 {
			t.Errorf("candidate %s: Entity.Enc supplier called %d times, Entity.Weights %d, want exactly 1 each", c.Name, e, w)
		}
	}
	if got := counters.Get(obs.KGRowEncodings); got != int64(len(cands)) {
		t.Fatalf("kg_row_encodings = %d after every candidate was broadcast, want %d", got, len(cands))
	}
}

func TestMCIMRParallelismInvariant(t *testing.T) {
	// MCIMR must select the same attributes in the same order, with the
	// same relevances, at any Parallelism setting. Parallelism spreads the
	// relevance and redundancy passes and every permutation test over
	// workers; the consider loop tests one candidate at a time. The pool
	// mixes analytic-test candidates with entity-level (Permute-carrying)
	// junk so both the permutation tests and the skip bookkeeping run.
	s := buildScenario(t, 8000, 13)
	cands := append([]*Candidate{}, s.all...)
	rng := stats.NewRNG(99)
	for j := 0; j < 3; j++ {
		entVals := make([]float64, 200)
		for i := range entVals {
			entVals[i] = rng.Norm()
		}
		c, _ := entityCandidate(t, fmt.Sprintf("ent%d", j), entVals, 40)
		cands = append(cands, c)
	}
	render := func(sel *Selection) string {
		var b strings.Builder
		for _, a := range sel.Attrs {
			fmt.Fprintf(&b, "%s|%.17g\n", a.Name, a.Relevance)
		}
		return b.String()
	}
	serial, err := MCIMRCtx(context.Background(), s.t, s.o, cands, Options{K: 4, Seed: 7, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Attrs) == 0 {
		t.Fatal("serial run selected nothing; fixture too weak")
	}
	want := render(serial)
	for _, p := range []int{2, 4, 8} {
		sel, err := MCIMRCtx(context.Background(), s.t, s.o, cands, Options{K: 4, Seed: 7, Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		if got := render(sel); got != want {
			t.Fatalf("Parallelism=%d selection differs:\n%s\n--- vs serial ---\n%s", p, got, want)
		}
	}
}

func TestMCIMREffortIndependentOfParallelism(t *testing.T) {
	// The consider loop tests one candidate at a time in rank order, so the
	// tests it runs, the candidates it skips and the iterations it takes do
	// not depend on Parallelism, which only spreads each pass and each
	// permutation test over workers. Same pool as
	// TestMCIMRParallelismInvariant.
	s := buildScenario(t, 8000, 13)
	cands := append([]*Candidate{}, s.all...)
	rng := stats.NewRNG(99)
	for j := 0; j < 3; j++ {
		entVals := make([]float64, 200)
		for i := range entVals {
			entVals[i] = rng.Norm()
		}
		c, _ := entityCandidate(t, fmt.Sprintf("ent%d", j), entVals, 40)
		cands = append(cands, c)
	}
	effort := []string{obs.CITests, obs.MCIMRSkips, obs.MCIMRIterations, obs.CandidatesScored}
	var want map[string]int64
	for _, p := range []int{1, 2, 4} {
		tr := obs.New("effort")
		if _, err := MCIMRCtx(context.Background(), s.t, s.o, cands, Options{K: 4, Seed: 7, Parallelism: p, Trace: tr}); err != nil {
			t.Fatal(err)
		}
		snap := tr.Counters().Snapshot()
		if n, ok := snap[obs.SpeculativeEvals]; ok {
			t.Fatalf("Parallelism=%d: %s = %d, want absent", p, obs.SpeculativeEvals, n)
		}
		got := map[string]int64{}
		for _, name := range effort {
			got[name] = snap[name]
		}
		if want == nil {
			want = got
			if want[obs.CITests] == 0 {
				t.Fatal("serial run ran no CI test; fixture too weak")
			}
			continue
		}
		for _, name := range effort {
			if got[name] != want[name] {
				t.Errorf("Parallelism=%d: %s = %d, serial %d", p, name, got[name], want[name])
			}
		}
	}
}

func names(cs []*Candidate) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.Name
	}
	return out
}
