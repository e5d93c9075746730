package core

import (
	"context"
	"fmt"
	"testing"

	"nexus/internal/bins"
	"nexus/internal/stats"
	"nexus/internal/table"
)

// entityCandidate builds a candidate whose values live at entity granularity
// (nEnt entities, rows/entity rows each) with an entity-permuting Permute.
func entityCandidate(tb testing.TB, name string, entVals []float64, rowsPerEnt int) (*Candidate, *bins.Encoded) {
	tb.Helper()
	nEnt := len(entVals)
	n := nEnt * rowsPerEnt
	rowVals := make([]float64, n)
	slot := make([]int32, n)
	for i := 0; i < n; i++ {
		slot[i] = int32(i % nEnt)
		rowVals[i] = entVals[i%nEnt]
	}
	enc, err := bins.Encode(table.NewFloatColumn(name, rowVals), bins.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	entEnc, err := bins.Encode(table.NewFloatColumn(name, entVals), bins.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	c := &Candidate{Name: name, Origin: OriginKG}
	c.Enc = func() (*bins.Encoded, error) { return enc, nil }
	c.Permute = func(rng *stats.RNG) (*bins.Encoded, error) {
		codes := make([]int32, len(entEnc.Codes))
		copy(codes, entEnc.Codes)
		rng.Shuffle(len(codes), func(a, b int) { codes[a], codes[b] = codes[b], codes[a] })
		out := &bins.Encoded{Name: name, Card: entEnc.Card, Labels: entEnc.Labels, Codes: make([]int32, n)}
		for i := range out.Codes {
			out.Codes[i] = codes[slot[i]]
		}
		return out, nil
	}
	return c, enc
}

func TestPermDependentDetectsEntityLevelSignal(t *testing.T) {
	// O is driven by the entity value → dependence must be detected.
	rng := stats.NewRNG(3)
	nEnt, rowsPer := 150, 40
	entVals := make([]float64, nEnt)
	for i := range entVals {
		entVals[i] = rng.Norm()
	}
	cand, enc := entityCandidate(t, "E", entVals, rowsPer)
	oVals := make([]float64, nEnt*rowsPer)
	for i := range oVals {
		oVals[i] = 2*entVals[i%nEnt] + 0.3*rng.Norm()
	}
	o, _ := bins.Encode(table.NewFloatColumn("O", oVals), bins.DefaultOptions())
	dep, err := permDependent(context.Background(), nil, o, cand, enc, nil, 0, 19, 0, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !dep {
		t.Fatal("real entity-level dependence not detected")
	}
}

func TestPermDependentRejectsEntityChance(t *testing.T) {
	// O varies by entity, but the candidate is an independent random
	// entity attribute. Row-level tests see a "significant" correlation;
	// the entity-granularity permutation null must reject most such
	// candidates.
	rng := stats.NewRNG(5)
	nEnt, rowsPer := 60, 60
	oEnt := make([]float64, nEnt)
	for i := range oEnt {
		oEnt[i] = rng.Norm()
	}
	oVals := make([]float64, nEnt*rowsPer)
	for i := range oVals {
		oVals[i] = oEnt[i%nEnt] + 0.2*rng.Norm()
	}
	o, _ := bins.Encode(table.NewFloatColumn("O", oVals), bins.DefaultOptions())

	rejected := 0
	const trials = 12
	for tr := 0; tr < trials; tr++ {
		entVals := make([]float64, nEnt)
		for i := range entVals {
			entVals[i] = rng.Norm() // junk: independent of O's entity means
		}
		cand, enc := entityCandidate(t, fmt.Sprintf("junk%d", tr), entVals, rowsPer)
		dep, err := permDependent(context.Background(), nil, o, cand, enc, nil, 0, 19, 0, 1, uint64(tr))
		if err != nil {
			t.Fatal(err)
		}
		if !dep {
			rejected++
		}
	}
	// A p≤0.05 test should reject the null-true candidates almost always.
	if rejected < trials-2 {
		t.Fatalf("only %d/%d junk candidates rejected", rejected, trials)
	}
}

func TestPermDependentZeroObserved(t *testing.T) {
	// Constant candidate → observed dependence 0 → independent.
	cand, enc := entityCandidate(t, "const", []float64{1, 1, 1, 1}, 50)
	oVals := make([]float64, 200)
	rng := stats.NewRNG(9)
	for i := range oVals {
		oVals[i] = rng.Norm()
	}
	o, _ := bins.Encode(table.NewFloatColumn("O", oVals), bins.DefaultOptions())
	dep, err := permDependent(context.Background(), nil, o, cand, enc, nil, 0, 9, 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if dep {
		t.Fatal("constant candidate reported dependent")
	}
}

func TestPermDependentDeterministic(t *testing.T) {
	rng := stats.NewRNG(11)
	entVals := make([]float64, 80)
	for i := range entVals {
		entVals[i] = rng.Norm()
	}
	cand, enc := entityCandidate(t, "E", entVals, 30)
	oVals := make([]float64, 80*30)
	for i := range oVals {
		oVals[i] = 0.5*entVals[i%80] + rng.Norm()
	}
	o, _ := bins.Encode(table.NewFloatColumn("O", oVals), bins.DefaultOptions())
	a, errA := permDependent(context.Background(), nil, o, cand, enc, nil, 0, 19, 0, 1, 42)
	b, errB := permDependent(context.Background(), nil, o, cand, enc, nil, 0, 19, 0, 1, 42)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if a != b {
		t.Fatal("permDependent not deterministic for fixed seed")
	}
}

func TestHashNameStability(t *testing.T) {
	if HashName("GDP") == HashName("HDI") {
		t.Fatal("hash collision between short names")
	}
	if HashName("GDP") != HashName("GDP") {
		t.Fatal("hash not deterministic")
	}
}

func TestMCIMRSkipBudgetStops(t *testing.T) {
	// A pool of only junk entity attributes must yield an empty selection
	// once the skip budget is exhausted, not an arbitrary pick.
	rng := stats.NewRNG(21)
	nEnt, rowsPer := 50, 40
	oEnt := make([]float64, nEnt)
	for i := range oEnt {
		oEnt[i] = rng.Norm()
	}
	n := nEnt * rowsPer
	oVals := make([]float64, n)
	tVals := make([]string, n)
	for i := range oVals {
		oVals[i] = oEnt[i%nEnt] + 0.2*rng.Norm()
		tVals[i] = fmt.Sprintf("e%d", i%nEnt)
	}
	o, _ := bins.Encode(table.NewFloatColumn("O", oVals), bins.DefaultOptions())
	tt, _ := bins.Encode(table.NewStringColumn("T", tVals), bins.DefaultOptions())

	var cands []*Candidate
	for j := 0; j < 12; j++ {
		entVals := make([]float64, nEnt)
		for i := range entVals {
			entVals[i] = rng.Norm()
		}
		c, _ := entityCandidate(t, fmt.Sprintf("junk%02d", j), entVals, rowsPer)
		cands = append(cands, c)
	}
	sel, err := MCIMRCtx(context.Background(), tt, o, cands, Options{K: 5, SkipBudget: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Attrs) > 1 {
		t.Fatalf("junk-only pool produced %d attrs: %v", len(sel.Attrs), sel.Attrs)
	}
}
