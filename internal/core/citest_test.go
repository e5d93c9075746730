package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"nexus/internal/bins"
	"nexus/internal/infotheory"
	"nexus/internal/obs"
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
	dep, err := permSignificant(context.Background(), nil, PermResp, nil, o, cand, enc, nil, 7, 0, 19, 0, 1, nil, nil, 0)
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
		dep, err := permSignificant(context.Background(), nil, PermResp, nil, o, cand, enc, nil, uint64(tr), 0, 19, 0, 1, nil, nil, 0)
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
	dep, err := permSignificant(context.Background(), nil, PermResp, nil, o, cand, enc, nil, 1, 0, 9, 0, 1, nil, nil, 0)
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
	a, errA := permSignificant(context.Background(), nil, PermResp, nil, o, cand, enc, nil, 42, 0, 19, 0, 1, nil, nil, 0)
	b, errB := permSignificant(context.Background(), nil, PermResp, nil, o, cand, enc, nil, 42, 0, 19, 0, 1, nil, nil, 0)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if a != b {
		t.Fatal("permSignificant not deterministic for fixed seed")
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

// permFixture is a weakly confounded (T, O, E) triple with E a FromColumn
// candidate — weak enough that its permuted statistics fall on both sides of
// the observed one — plus a two-attribute composite to condition on.
func permFixture(tb testing.TB, missing bool) (t, o *bins.Encoded, cand *Candidate, given []infotheory.Var) {
	tb.Helper()
	rng := stats.NewRNG(17)
	const n = 600
	ev, tv, ov := make([]float64, n), make([]float64, n), make([]float64, n)
	g1, g2 := make([]string, n), make([]string, n)
	for i := range ev {
		ev[i] = rng.Norm()
		tv[i] = 0.5*ev[i] + rng.Norm()
		ov[i] = 0.12*ev[i] + 0.3*tv[i] + rng.Norm()
		g1[i], g2[i] = fmt.Sprintf("a%d", rng.Intn(2)), fmt.Sprintf("b%d", rng.Intn(3))
		if missing && rng.Float64() < 0.25 {
			ev[i] = math.NaN()
		}
	}
	mk := func(col *table.Column, opts bins.Options) *bins.Encoded {
		enc, err := bins.Encode(col, opts)
		if err != nil {
			tb.Fatal(err)
		}
		return enc
	}
	four := bins.Options{Bins: 4}
	cand, err := FromColumn(table.NewFloatColumn("E", ev), four)
	if err != nil {
		tb.Fatal(err)
	}
	composite := infotheory.JoinVars("selected",
		mk(table.NewStringColumn("G1", g1), four), mk(table.NewStringColumn("G2", g2), four))
	return mk(table.NewFloatColumn("T", tv), four), mk(table.NewFloatColumn("O", ov), four), cand, []infotheory.Var{composite}
}

// TestPermArmsAgree pins the two dispatch arms of permSignificant as one
// test: for a WirePerm candidate the verdict and the counters with no scorer
// (cand.Permute under permTest) equal those through Local.PermBlock, and the
// block's per-seed exceedances are those of cand.Permute under the same seed.
func TestPermArmsAgree(t *testing.T) {
	ctx := context.Background()
	const seeds, b = 50, 19
	verdicts, early := map[bool]int{}, 0
	for _, missing := range []bool{false, true} {
		tt, o, cand, composite := permFixture(t, missing)
		enc, _, err := cand.vectors()
		if err != nil {
			t.Fatal(err)
		}
		if missing == (enc.MissingCount() == 0) {
			t.Fatalf("fixture: missing = %v but %d missing codes", missing, enc.MissingCount())
		}
		sctx := &ScoreContext{T: tt, O: o, Cands: []*bins.Encoded{enc}, Weights: [][]float64{nil}}
		for _, given := range [][]infotheory.Var{nil, composite} {
			for _, op := range []PermOp{PermResp, PermGain} {
				name := fmt.Sprintf("missing=%v given=%d op=%s", missing, len(given), op)
				direct, wired := obs.New("direct"), obs.New("wired")
				for seed := uint64(0); seed < seeds; seed++ {
					got, err := permSignificant(ctx, direct, op, tt, o, cand, enc, given, seed, 2, b, 0, 1, nil, nil, 0)
					if err != nil {
						t.Fatal(err)
					}
					want, err := permSignificant(ctx, wired, op, tt, o, cand, enc, given, seed, 2, b, 0, 1, Local{Parallelism: 1}, sctx, 0)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Errorf("%s seed %d: verdict %v with no scorer, %v through Local", name, seed, got, want)
					}
					verdicts[got]++
				}
				for _, counter := range []string{obs.CITests, obs.PermutationsRun} {
					if d, w := direct.Counters().Get(counter), wired.Counters().Get(counter); d != w {
						t.Errorf("%s: %s = %d with no scorer, %d through Local", name, counter, d, w)
					}
				}
				if ran := direct.Counters().Get(obs.PermutationsRun); ran < seeds*b {
					early++
				}

				spec := PermSpec{Given: givenVar(given), Op: op, Observed: op.stat(tt, o, enc, given), Seeds: make([]uint64, seeds), Allow: seeds}
				for i := range spec.Seeds {
					spec.Seeds[i] = HashName(name) + uint64(i)*0x45d9f3b
				}
				exceed, ran, err := Local{Parallelism: 1}.PermBlock(ctx, sctx, spec)
				if err != nil || ran != seeds {
					t.Fatalf("%s: PermBlock ran %d of %d, err %v", name, ran, seeds, err)
				}
				for i, s := range spec.Seeds {
					pe, err := cand.Permute(stats.NewRNG(s))
					if err != nil {
						t.Fatal(err)
					}
					if want := op.exceeds(op.stat(tt, o, pe, given), spec.Observed); exceed[i] != want {
						t.Errorf("%s seed %#x: PermBlock exceed = %v, cand.Permute arm %v", name, s, exceed[i], want)
					}
				}
			}
		}
	}
	// Fixture strength: both verdicts and both block lengths were compared.
	if verdicts[true] == 0 || verdicts[false] == 0 || early == 0 {
		t.Fatalf("fixture too one-sided: verdicts %v, %d cases with an early exit", verdicts, early)
	}
}

// TestPermTestCutShortIsAnError: a permutation block that cancellation cut
// short decides nothing. With no draw run the exceedance count is 0, which
// read as "beats its null" — for a candidate whose every permuted copy (itself)
// ties the observed statistic — before permSignificant checked the context.
func TestPermTestCutShortIsAnError(t *testing.T) {
	tt, o, cand, _ := permFixture(t, false)
	enc, _, err := cand.vectors()
	if err != nil {
		t.Fatal(err)
	}
	identity := &Candidate{Name: "E", Enc: cand.Enc, Permute: func(*stats.RNG) (*bins.Encoded, error) { return enc, nil }}
	sctx := &ScoreContext{T: tt, O: o, Cands: []*bins.Encoded{enc}, Weights: [][]float64{nil}}
	for _, op := range []PermOp{PermResp, PermGain} {
		for _, arm := range []struct {
			name   string
			cand   *Candidate
			scorer Scorer
		}{{"cand.Permute", identity, nil}, {"scorer.PermBlock", cand, Local{Parallelism: 1}}} {
			if beats, err := permSignificant(context.Background(), nil, op, tt, o, arm.cand, enc, nil, 1, 0, 19, 0, 1, arm.scorer, sctx, 0); err != nil || (beats && arm.scorer == nil) {
				t.Fatalf("%s via %s, live context: verdict %v, err %v", op, arm.name, beats, err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			beats, err := permSignificant(ctx, nil, op, tt, o, arm.cand, enc, nil, 1, 0, 19, 0, 1, arm.scorer, sctx, 0)
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s via %s, cancelled context: verdict %v, err %v; want an error wrapping context.Canceled", op, arm.name, beats, err)
			}
		}
	}
}

// TestMCIMRCancelledInsideLastTestIsAnError: the accepting iteration being the
// last (K = 1), nothing after the candidate's tests looks at the context, so a
// cancellation from inside Permute must surface from the tests themselves.
func TestMCIMRCancelledInsideLastTestIsAnError(t *testing.T) {
	rng := stats.NewRNG(5)
	const n = 2000
	ev, tv, ov := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range ev {
		ev[i] = rng.Norm()
		tv[i], ov[i] = ev[i]+0.3*rng.Norm(), ev[i]+0.3*rng.Norm()
	}
	four := bins.Options{Bins: 4}
	tt, _ := bins.Encode(table.NewFloatColumn("T", tv), four)
	o, _ := bins.Encode(table.NewFloatColumn("O", ov), four)
	enc, _ := bins.Encode(table.NewFloatColumn("E", ev), four)
	for _, cancelInside := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		e := FromEncoded(enc, OriginInput)
		e.Permute = func(rng *stats.RNG) (*bins.Encoded, error) {
			if cancelInside {
				cancel()
			}
			return ShuffleObserved(enc, rng), nil
		}
		sel, err := MCIMRCtx(ctx, tt, o, []*Candidate{e}, Options{K: 1, Parallelism: 1})
		switch {
		case !cancelInside && (err != nil || len(sel.Attrs) != 1):
			t.Fatalf("fixture: the confounder is not selected under a live context: %+v, err %v", sel, err)
		case cancelInside && !errors.Is(err, context.Canceled):
			t.Fatalf("selection %+v, err %v; want an error wrapping context.Canceled", sel, err)
		}
	}
}
