package baselines

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"nexus/internal/bins"
	"nexus/internal/core"
	"nexus/internal/infotheory"
	"nexus/internal/stats"
	"nexus/internal/table"
)

// fixture builds the standard confounded scenario: Z1, Z2 drive both T and
// O; Z1copy duplicates Z1; Noise is independent.
type fixture struct {
	t, o    *bins.Encoded
	cands   []*core.Candidate
	outFlt  []float64 // numeric outcome for LR
	rawVals map[string][]float64
}

func buildFixture(tb testing.TB, n int, seed uint64) *fixture {
	tb.Helper()
	rng := stats.NewRNG(seed)
	z1f := make([]float64, n)
	z2f := make([]float64, n)
	dupf := make([]float64, n)
	noisef := make([]float64, n)
	tv := make([]string, n)
	of := make([]float64, n)
	for i := 0; i < n; i++ {
		z1 := float64(rng.Intn(4))
		z2 := float64(rng.Intn(4))
		z1f[i], z2f[i] = z1, z2
		dupf[i] = z1
		if rng.Float64() < 0.05 {
			dupf[i] = float64(rng.Intn(4))
		}
		noisef[i] = float64(rng.Intn(4))
		tc := int(z1)*4 + int(z2)
		if rng.Float64() < 0.15 {
			tc = rng.Intn(16)
		}
		tv[i] = fmt.Sprintf("t%d", tc)
		of[i] = z1 + z2 + 0.5*rng.Norm()
	}
	f := &fixture{outFlt: of, rawVals: map[string][]float64{
		"Z1": z1f, "Z2": z2f, "Z1copy": dupf, "Noise": noisef,
	}}
	encS := func(name string, vals []string) *bins.Encoded {
		e, err := bins.Encode(table.NewStringColumn(name, vals), bins.DefaultOptions())
		if err != nil {
			tb.Fatal(err)
		}
		return e
	}
	encF := func(name string, vals []float64) *bins.Encoded {
		e, err := bins.Encode(table.NewFloatColumn(name, vals), bins.DefaultOptions())
		if err != nil {
			tb.Fatal(err)
		}
		return e
	}
	f.t = encS("T", tv)
	f.o = encF("O", of)
	for _, name := range []string{"Noise", "Z1copy", "Z1", "Z2"} {
		f.cands = append(f.cands, core.FromEncoded(encF(name, f.rawVals[name]), core.OriginKG))
	}
	return f
}

func (f *fixture) encOf(name string) *bins.Encoded {
	for _, c := range f.cands {
		if c.Name == name {
			e, _ := c.Enc()
			return e
		}
	}
	return nil
}

func setOf(attrs []string) map[string]bool {
	m := map[string]bool{}
	for _, a := range attrs {
		m[a] = true
	}
	return m
}

func TestBruteForceFindsOptimalPair(t *testing.T) {
	f := buildFixture(t, 6000, 1)
	res, err := BruteForce(f.t, f.o, f.cands, 3)
	if err != nil {
		t.Fatal(err)
	}
	got := setOf(res.Attrs)
	if !(got["Z1"] || got["Z1copy"]) || !got["Z2"] {
		t.Fatalf("brute force = %v", res.Attrs)
	}
	if got["Noise"] {
		t.Fatalf("brute force selected noise: %v", res.Attrs)
	}
	base := infotheory.MutualInfo(f.o, f.t, nil)
	if res.Score > base/3 {
		t.Fatalf("score %.3f vs base %.3f", res.Score, base)
	}
}

func TestBruteForceIsLowerBoundForMESA(t *testing.T) {
	f := buildFixture(t, 6000, 2)
	bf, err := BruteForce(f.t, f.o, f.cands, 5)
	if err != nil {
		t.Fatal(err)
	}
	mesa, err := MESA(f.t, f.o, f.cands, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Brute force minimizes score·|E|; its objective must not exceed MESA's.
	bfObj := bf.Score * float64(len(bf.Attrs))
	mesaObj := mesa.Score * float64(len(mesa.Attrs))
	if bfObj > mesaObj+1e-9 {
		t.Fatalf("brute-force objective %.4f > MESA %.4f", bfObj, mesaObj)
	}
}

func TestTopKSelectsRedundantPair(t *testing.T) {
	// Top-K ignores redundancy: with k=2 it should pick Z1 and Z1copy
	// (both individually best) — the failure mode the paper reports.
	f := buildFixture(t, 6000, 3)
	res, err := TopK(f.t, f.o, f.cands, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := setOf(res.Attrs)
	if !(got["Z1"] && got["Z1copy"]) {
		t.Logf("top-k picked %v (redundant pair expected but not guaranteed)", res.Attrs)
	}
	if got["Noise"] {
		t.Fatalf("top-k picked noise: %v", res.Attrs)
	}
}

func TestTopKWorseThanMESAWithBudget(t *testing.T) {
	f := buildFixture(t, 6000, 4)
	topk, err := TopK(f.t, f.o, f.cands, 2)
	if err != nil {
		t.Fatal(err)
	}
	mesa, err := MESA(f.t, f.o, f.cands, core.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if mesa.Score > topk.Score+1e-9 {
		t.Fatalf("MESA score %.4f worse than Top-K %.4f at equal budget", mesa.Score, topk.Score)
	}
}

func TestMESAMinusMatchesMESAOnCleanData(t *testing.T) {
	f := buildFixture(t, 6000, 5)
	mesa, err := MESA(f.t, f.o, f.cands, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	minus, err := MESAMinus(f.t, f.o, f.cands, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Same confounders live in both (pruning only removes junk).
	gm, gn := setOf(mesa.Attrs), setOf(minus.Attrs)
	for _, z := range []string{"Z2"} {
		if gm[z] != gn[z] {
			t.Fatalf("MESA=%v MESA-=%v disagree on %s", mesa.Attrs, minus.Attrs, z)
		}
	}
}

func TestLinearRegressionFindsLinearConfounders(t *testing.T) {
	f := buildFixture(t, 6000, 6)
	var series []NamedSeries
	for name, vals := range f.rawVals {
		series = append(series, NamedSeries{Name: name, Values: vals})
	}
	res := LinearRegression(f.outFlt, series, f.t, f.o, f.encOf, 3)
	if res.Failed {
		t.Fatal("LR failed on strongly linear data")
	}
	got := setOf(res.Attrs)
	if !got["Z1"] || !got["Z2"] {
		t.Fatalf("LR = %v", res.Attrs)
	}
	if got["Noise"] {
		t.Fatalf("LR selected noise: %v", res.Attrs)
	}
}

func TestLinearRegressionFailsOnPureNoise(t *testing.T) {
	rng := stats.NewRNG(7)
	n := 500
	out := make([]float64, n)
	noise := make([]float64, n)
	for i := range out {
		out[i] = rng.Norm()
		noise[i] = rng.Norm()
	}
	o, _ := bins.Encode(table.NewFloatColumn("O", out), bins.DefaultOptions())
	res := LinearRegression(out, []NamedSeries{{Name: "X", Values: noise}}, o, o, nil, 0)
	if !res.Failed {
		t.Fatalf("LR should fail with no significant predictors, got %v", res.Attrs)
	}
}

func TestLinearRegressionDropsSparseSeries(t *testing.T) {
	n := 200
	rng := stats.NewRNG(8)
	out := make([]float64, n)
	sparse := make([]float64, n)
	for i := range out {
		out[i] = rng.Norm()
		sparse[i] = math.NaN()
	}
	o, _ := bins.Encode(table.NewFloatColumn("O", out), bins.DefaultOptions())
	res := LinearRegression(out, []NamedSeries{{Name: "S", Values: sparse}}, o, o, nil, 0)
	if !res.Failed {
		t.Fatal("all-missing series should be unusable")
	}
}

func TestHypDBFindsConfounders(t *testing.T) {
	f := buildFixture(t, 6000, 9)
	res, err := HypDB(f.t, f.o, f.cands, 3)
	if err != nil {
		t.Fatal(err)
	}
	got := setOf(res.Attrs)
	if !(got["Z1"] || got["Z1copy"]) || !got["Z2"] {
		t.Fatalf("HypDB = %v", res.Attrs)
	}
}

func TestHypDBCapsCandidates(t *testing.T) {
	f := buildFixture(t, 3000, 10)
	// Add many noise candidates; the cap must keep it tractable and the
	// capped run may lose the confounders (the paper's reported weakness).
	cands := append([]*core.Candidate(nil), f.cands...)
	rng := stats.NewRNG(11)
	for j := 0; j < 80; j++ {
		vals := make([]float64, 3000)
		for i := range vals {
			vals[i] = float64(rng.Intn(4))
		}
		e, _ := bins.Encode(table.NewFloatColumn(fmt.Sprintf("junk%02d", j), vals), bins.DefaultOptions())
		cands = append(cands, core.FromEncoded(e, core.OriginKG))
	}
	// The cap keeps exactly hypDBMaxAttrs distinct inputs, and the same ones
	// on every call (its seed is fixed).
	if len(cands) <= hypDBMaxAttrs {
		t.Fatalf("%d candidates do not exceed the cap of %d", len(cands), hypDBMaxAttrs)
	}
	capped := capCandidates(cands)
	if len(capped) != hypDBMaxAttrs {
		t.Fatalf("the cap kept %d of %d candidates, want %d", len(capped), len(cands), hypDBMaxAttrs)
	}
	inputs := map[*core.Candidate]bool{}
	for _, c := range cands {
		inputs[c] = true
	}
	kept := map[*core.Candidate]bool{}
	for _, c := range capped {
		if !inputs[c] || kept[c] {
			t.Fatalf("the cap kept %q, which is not an input or is kept twice", c.Name)
		}
		kept[c] = true
	}
	if again := capCandidates(cands); !reflect.DeepEqual(again, capped) {
		t.Fatal("the cap kept other candidates on a second call")
	}
	res, err := HypDB(f.t, f.o, cands, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Attrs) > 3 {
		t.Fatalf("HypDB returned %d attrs, want ≤ 3", len(res.Attrs))
	}
}

func TestHypDBRejectsNonCovariates(t *testing.T) {
	// An attribute correlated with T only (not O) is not a confounder and
	// must not be selected.
	n := 6000
	rng := stats.NewRNG(12)
	tv := make([]string, n)
	ov := make([]float64, n)
	tOnly := make([]float64, n)
	conf := make([]float64, n)
	for i := 0; i < n; i++ {
		z := float64(rng.Intn(4))
		conf[i] = z
		tc := int(z)*2 + rng.Intn(2)
		if rng.Float64() < 0.3 {
			tc = rng.Intn(8) // keep T from fully determining the confounder
		}
		tv[i] = fmt.Sprintf("t%d", tc)
		tOnly[i] = float64(tc % 4)
		ov[i] = z + 0.3*rng.Norm()
	}
	te, _ := bins.Encode(table.NewStringColumn("T", tv), bins.DefaultOptions())
	oe, _ := bins.Encode(table.NewFloatColumn("O", ov), bins.DefaultOptions())
	c1, _ := bins.Encode(table.NewFloatColumn("TOnly", tOnly), bins.DefaultOptions())
	c2, _ := bins.Encode(table.NewFloatColumn("Conf", conf), bins.DefaultOptions())
	res, err := HypDB(te, oe, []*core.Candidate{
		core.FromEncoded(c1, core.OriginKG),
		core.FromEncoded(c2, core.OriginKG),
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := setOf(res.Attrs)
	if !got["Conf"] {
		t.Fatalf("HypDB missed the true confounder: %v", res.Attrs)
	}
}

func TestMethodOrderingOnFixture(t *testing.T) {
	// The §5.1 headline shape: BF ≤ MESA ≈ MESA- ≪ Top-K on explainability
	// distance from brute force.
	f := buildFixture(t, 8000, 13)
	bf, _ := BruteForce(f.t, f.o, f.cands, 3)
	mesa, _ := MESA(f.t, f.o, f.cands, core.DefaultOptions())
	if mesa.Score < bf.Score-0.05 {
		t.Fatalf("MESA score %.4f beat brute force %.4f by more than tolerance", mesa.Score, bf.Score)
	}
	if math.Abs(mesa.Score-bf.Score) > 0.2 {
		t.Fatalf("MESA %.4f too far from brute force %.4f", mesa.Score, bf.Score)
	}
}

func TestSupportedGuard(t *testing.T) {
	// 12 rows over a card-3 attribute → 4 rows per stratum.
	e, _ := bins.Encode(table.NewStringColumn("e", []string{
		"a", "a", "a", "a", "b", "b", "b", "b", "c", "c", "c", "c"}), bins.DefaultOptions())
	if !supported([]*bins.Encoded{e}, 4) {
		t.Fatal("4 rows/stratum should satisfy MinSupport 4")
	}
	if supported([]*bins.Encoded{e}, 5) {
		t.Fatal("4 rows/stratum should fail MinSupport 5")
	}
	if !supported(nil, 100) {
		t.Fatal("empty set is always supported")
	}
	// All-missing set has no strata.
	miss := &bins.Encoded{Name: "m", Card: 2, Codes: []int32{bins.Missing, bins.Missing}}
	if supported([]*bins.Encoded{miss}, 1) {
		t.Fatal("all-missing set cannot be supported")
	}
}

func TestProductWeights(t *testing.T) {
	if productWeights(nil, 3) != nil {
		t.Fatal("no weights should be nil")
	}
	w := productWeights([][]float64{{1, 2, 3}, {2, 2, 0}}, 3)
	if w[0] != 2 || w[1] != 4 || w[2] != 0 {
		t.Fatalf("product = %v", w)
	}
}

func TestBruteForceMinSupportLimitsSize(t *testing.T) {
	// Tiny data: only small subsets are estimable; the guard must keep the
	// chosen set small rather than returning a shattered 5-attribute "0".
	f := buildFixture(t, 60, 21)
	res, err := BruteForce(f.t, f.o, f.cands, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Attrs) > 2 {
		t.Fatalf("support guard allowed %d attrs on 60 rows", len(res.Attrs))
	}
}
