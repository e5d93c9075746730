package core

import (
	"context"
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"

	"nexus/internal/bins"
	"nexus/internal/counting"
	"nexus/internal/infotheory"
	"nexus/internal/obs"
	"nexus/internal/stats"
	"nexus/internal/table"
)

// randCodes draws n codes below card, about one in miss missing (miss ≤ 0:
// none, card 0: all).
func randCodes(rng *stats.RNG, n, card, miss int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = bins.Missing
		if card > 0 && (miss <= 0 || rng.Intn(miss) != 0) {
			out[i] = int32(rng.Intn(card))
		}
	}
	return out
}

// foldFixture is one MCIMR state over a view: T, O, an entity-form candidate
// E on the link column slots, the pre-joined prefix (nil or a row column) and
// the accepted attribute's row column.
type foldFixture struct {
	name           string
	t, o, e        *bins.Encoded
	prefix, chosen *bins.Encoded
	// relDense and gainDense say whether the row passes of I(O;T|E) and of
	// I(O;T|prefix,E) are dense: where they are not, the fold must fall
	// through. Every other statistic's is.
	relDense, gainDense bool
}

// TestMCIMRFoldMatchesRowPass is the differential of MCIMR's slot folds: for
// the relevance I(O;T|E), the responsibility statistic I(O;E|prefix), the
// joint score I(O;T|prefix,E) of the gain guard and of the gain draws, and
// the redundancy I(E;chosen) — of the candidate and of permuted copies drawn
// as permSignificant draws them — the fold of the link column's cube is
// math.Float64bits-equal to the row pass over the indirect encoding, and it
// falls through exactly where that row pass leaves the dense path. Covered:
// random slot maps with unresolved rows, missing T, O, prefix and slot codes,
// a prefix on another link column, a prefix of two attributes, cardinality
// products at MaxDense and one past it, and a zero-row view.
func TestMCIMRFoldMatchesRowPass(t *testing.T) {
	var cases []foldFixture
	rng := stats.NewRNG(44)
	for k := range 12 {
		n, nSlots, nOther := 200+rng.Intn(3000), 1+rng.Intn(60), 1+rng.Intn(30)
		co, ct, ce := 1+rng.Intn(6), 1+rng.Intn(40), 1+rng.Intn(9)
		slots := randCodes(rng, n, nSlots, 2+rng.Intn(8)) // unresolved rows
		other := randCodes(rng, n, nOther, 3)
		tt := &bins.Encoded{Name: "T", Codes: randCodes(rng, n, ct, 1+rng.Intn(9)), Card: ct}
		o := &bins.Encoded{Name: "O", Codes: randCodes(rng, n, co, 1+rng.Intn(9)), Card: co}
		e := &bins.Encoded{Name: "E", Codes: randCodes(rng, nSlots+rng.Intn(4), ce, 1+rng.Intn(5)), Card: ce, Slots: slots}
		// A prefix on another link column, or on E's, or of two attributes.
		a := &bins.Encoded{Name: "A", Codes: randCodes(rng, nOther, 1+rng.Intn(5), 4), Slots: other}
		a.Card = 5
		b := &bins.Encoded{Name: "B", Codes: randCodes(rng, nSlots, 3, 4), Card: 3, Slots: slots}
		c := &bins.Encoded{Name: "C", Codes: randCodes(rng, n, 4, 6), Card: 4}
		var prefix *bins.Encoded
		switch k % 4 {
		case 1:
			prefix = infotheory.JoinVars("A", a)
		case 2:
			prefix = infotheory.JoinVars("B", b)
		case 3:
			prefix = infotheory.JoinVars("selected", infotheory.JoinVars("A", a), c)
		}
		chosen := []*bins.Encoded{c, infotheory.JoinVars("A", a), infotheory.JoinVars("B", b)}[k%3]
		cases = append(cases, foldFixture{fmt.Sprintf("random %d", k), tt, o, e, prefix, chosen, true, true})
	}

	// At MaxDense and one past it: |prefix|·|E|·|O|·|T| for the joint score,
	// |E|·|O|·|T| for the relevance.
	const n, nSlots = 3000, 1200
	slots := randCodes(rng, n, nSlots, 9)
	for _, c := range []struct {
		name                    string
		pc, ce                  int
		ct, relDense, gainDense bool
	}{
		{name: "joint score at MaxDense", pc: 1024, ce: 1024, relDense: true, gainDense: true},
		{name: "joint score past MaxDense", pc: 1024, ce: 1025, relDense: true},
		{name: "relevance at MaxDense", pc: 1, ce: 1024, ct: true, relDense: true, gainDense: true},
		{name: "relevance past MaxDense", pc: 1, ce: 1025, ct: true},
	} {
		co, ct := 2, 2
		if c.ct {
			ct = 2048
		}
		tt := &bins.Encoded{Name: "T", Codes: randCodes(rng, n, ct, 8), Card: ct}
		o := &bins.Encoded{Name: "O", Codes: randCodes(rng, n, co, 8), Card: co}
		e := &bins.Encoded{Name: "E", Codes: randCodes(rng, nSlots, c.ce, 7), Card: c.ce, Slots: slots}
		prefix := &bins.Encoded{Name: "P", Codes: randCodes(rng, n, c.pc, 8), Card: c.pc}
		chosen := &bins.Encoded{Name: "C", Codes: randCodes(rng, n, 3, 5), Card: 3}
		cases = append(cases, foldFixture{c.name, tt, o, e, prefix, chosen, c.relDense, c.gainDense})
	}

	// A zero-row view.
	empty := []int32{}
	cases = append(cases, foldFixture{"zero rows",
		&bins.Encoded{Name: "T", Codes: empty, Card: 3}, &bins.Encoded{Name: "O", Codes: empty, Card: 2},
		&bins.Encoded{Name: "E", Codes: []int32{0, 1, bins.Missing}, Card: 2, Slots: empty},
		&bins.Encoded{Name: "P", Codes: empty, Card: 2}, &bins.Encoded{Name: "C", Codes: empty, Card: 2}, true, true})

	for i, fx := range cases {
		checkFoldsMatchRows(t, fx)
		if fx.relDense && fx.gainDense && (i < 12 || len(fx.e.Slots) == 0) {
			checkFoldedBlocks(t, fx) // not at MaxDense: 19 draws there cost a second each
		}
	}
}

func checkFoldsMatchRows(t *testing.T, fx foldFixture) {
	t.Helper()
	f := newSlotFolds(fx.t, fx.o)
	var given []infotheory.Var
	if fx.prefix != nil {
		given = []infotheory.Var{fx.prefix}
	}
	check := func(what string, e *bins.Encoded, got float64, folded bool, want float64, dense bool) {
		t.Helper()
		if folded != dense {
			t.Fatalf("%s, %s: folded = %v, want %v (the row pass dense)", fx.name, what, folded, dense)
		}
		if folded && math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s, %s of %v: fold %v (%#x), row pass %v (%#x)", fx.name, what, e.Codes, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	draws := []*bins.Encoded{fx.e}
	for i := range 5 {
		draws = append(draws, ShuffleObserved(fx.e, stats.NewRNG(uint64(i)+1)))
	}
	for i, e := range draws {
		what := "the candidate"
		if i > 0 {
			what = fmt.Sprintf("draw %d", i)
		}
		got, ok := f.cmi(e, nil, fx.o, fx.t, counting.AxisZ)
		check("relevance "+what, e, got, ok, infotheory.CondMutualInfo(fx.o, fx.t, []infotheory.Var{e}, infotheory.Weights{}), fx.relDense)
		for _, g := range [][]infotheory.Var{nil, given} {
			got, ok = f.perm(PermResp, e, g)
			check(fmt.Sprintf("responsibility (%d given) %s", len(g), what), e, got, ok, PermResp.stat(fx.t, fx.o, e, g), true)
			got, ok = f.perm(PermGain, e, g)
			check(fmt.Sprintf("joint score (%d given) %s", len(g), what), e, got, ok, PermGain.stat(fx.t, fx.o, e, g), fx.gainDense || len(g) == 0 && fx.relDense)
		}
		// The gain guard's expression: the same statistic under the weight
		// product of no weighted input.
		got, ok = f.perm(PermGain, e, given)
		check("gain guard "+what, e, got, ok, infotheory.CondMutualInfo(fx.o, fx.t, append(append([]infotheory.Var{}, given...), e), weightProduct(infotheory.Weights{}, weightsOf(e, nil))), fx.gainDense || given == nil && fx.relDense)
		got, ok = f.cmi(e, nil, nil, fx.chosen, counting.AxisX)
		check("redundancy "+what, e, got, ok, infotheory.CondMutualInfo(e, fx.chosen, nil, infotheory.Weights{}), true)
	}
	// A row column is not an entity form: nothing folds.
	rows := fx.e.Broadcast(fx.e.Slots)
	if _, ok := f.cmi(rows, nil, fx.o, fx.t, counting.AxisZ); ok {
		t.Fatalf("%s: a row column folded", fx.name)
	}
}

// checkFoldedBlocks holds permSignificant's entity arm to the row pass: the
// folded block, its draws spread over four workers that share the cube and
// the list of draw vectors, gives the verdicts of the serial row pass, and
// serial, its counters too.
func checkFoldedBlocks(t *testing.T, fx foldFixture) {
	t.Helper()
	var given []infotheory.Var
	if fx.prefix != nil {
		given = []infotheory.Var{fx.prefix}
	}
	cand := FromEntity("E", 1, &Entity{Slots: fx.e.Slots, Enc: func() (*bins.Encoded, error) {
		return &bins.Encoded{Name: "E", Codes: fx.e.Codes, Card: fx.e.Card}, nil
	}}, nil)
	enc, _, err := cand.vectors()
	if err != nil {
		t.Fatal(err)
	}
	sctx := &ScoreContext{T: fx.t, O: fx.o, folds: newSlotFolds(fx.t, fx.o)}
	for _, op := range []PermOp{PermResp, PermGain} {
		for _, par := range []int{1, 4} {
			trFold, trRows := obs.New("fold"), obs.New("rows")
			folded, err := permSignificant(context.Background(), trFold, op, fx.t, fx.o, cand, enc, given, 3, 1, 19, 1, par, nil, sctx, 0)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := permSignificant(context.Background(), trRows, op, fx.t, fx.o, cand, enc, given, 3, 1, 19, 1, 1, nil, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			if folded != rows {
				t.Fatalf("%s, %s at parallelism %d: folded verdict %v, row pass %v", fx.name, op, par, folded, rows)
			}
			if got, want := trFold.Counters().Snapshot(), trRows.Counters().Snapshot(); par == 1 && !maps.Equal(got, want) {
				t.Fatalf("%s, %s: folded counters %v, row pass %v", fx.name, op, got, want)
			}
		}
	}

}

// sharedFoldsFixture builds entity-form candidates on two link columns, with
// T and O driven by a latent value of each column's entities, IPW-weighted
// candidates among them; an input column; and an unweighted and a weighted
// candidate on a link column that resolves no row.
func sharedFoldsFixture(tb testing.TB, seed uint64) (t, o *bins.Encoded, cands []*Candidate) {
	tb.Helper()
	rng := stats.NewRNG(seed)
	const n, nA, nB = 3000, 80, 40
	slotsA, slotsB, nowhere := make([]int32, n), make([]int32, n), make([]int32, n)
	zA, zB := make([]float64, nA), make([]float64, nB)
	for s := range zA {
		zA[s] = rng.Norm()
	}
	for s := range zB {
		zB[s] = rng.Norm()
	}
	tv, ov, junk := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range slotsA {
		slotsA[i], slotsB[i], nowhere[i] = int32(rng.Intn(nA)), int32(rng.Intn(nB)), -1
		if rng.Intn(10) == 0 {
			slotsA[i] = -1
		}
		a, b := 0.0, zB[slotsB[i]]
		if s := slotsA[i]; s >= 0 {
			a = zA[s]
		}
		tv[i], ov[i], junk[i] = a+b+rng.Norm(), 2*a+2*b+0.5*rng.Norm(), rng.Norm()
	}
	encode := func(name string, vals []float64) *bins.Encoded {
		e, err := bins.Encode(table.NewFloatColumn(name, vals), bins.DefaultOptions())
		if err != nil {
			tb.Fatal(err)
		}
		return e
	}
	t, o = encode("T", tv), encode("O", ov)
	entity := func(name string, slots []int32, vals []float64, weighted bool) {
		slotEnc := encode(name, vals)
		ent := &Entity{Slots: slots, Enc: func() (*bins.Encoded, error) { return slotEnc, nil }}
		if weighted {
			w := make([]float64, len(vals))
			for s := range w {
				w[s] = 0.5 + rng.Float64()
			}
			ent.Weights = func() []float64 { return w }
		}
		cands = append(cands, FromEntity(name, 1, ent, nil))
	}
	noisy := func(z []float64, scale float64) []float64 {
		out := make([]float64, len(z))
		for s := range out {
			out[s] = z[s]*scale + rng.Norm()
		}
		return out
	}
	entity("ZA", slotsA, zA, false)
	entity("ZBw", slotsB, zB, true)
	entity("ZAw", slotsA, noisy(zA, 2), true)
	for k := range 4 {
		entity(fmt.Sprintf("JunkA%d", k), slotsA, noisy(zA, 0), k%2 == 0)
		entity(fmt.Sprintf("JunkB%d", k), slotsB, noisy(zB, 0), k%2 == 1)
	}
	entity("Nowhere", nowhere, noisy(zB, 0), false)
	entity("NowhereW", nowhere, noisy(zB, 0), true)
	c, err := FromColumn(table.NewFloatColumn("RowJunk", junk), bins.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	return t, o, append(cands, c)
}

// TestExplainSharesFoldsWithStagedBits: Explain hands one slot-cube store
// from the online prune to MCIMR, and its answer is Float64bits-equal to the
// staged OfflinePruneCtx → OnlinePruneCtx → MCIMRCtx → ScoreSet, each stage
// with a store of its own — base score, score, every relevance and
// responsibility and both prunes' stats — while it counts fewer partitions:
// the (slot, O) and (slot, O, T) cubes the prune counted are not counted
// again for MCIMR's relevance pass and first iteration. With the online prune
// off there is nothing to share and the counts are equal.
func TestExplainSharesFoldsWithStagedBits(t *testing.T) {
	ctx := context.Background()
	for seed := uint64(1); seed <= 3; seed++ {
		for _, cfg := range []struct {
			name string
			opts Options
		}{
			{"defaults", Options{}},
			{"null off", Options{Prune: PruneOptions{DisablePermRelevance: true}}},
			{"no offline prune", Options{DisableOfflinePrune: true}},
			{"no online prune", Options{DisableOnlinePrune: true}},
		} {
			t.Run(fmt.Sprintf("seed=%d/%s", seed, cfg.name), func(t *testing.T) {
				opts := cfg.opts
				opts.K, opts.Seed = 3, seed

				tEnc, oEnc, cands := sharedFoldsFixture(t, seed)
				before := counting.Stats()
				ex, err := Explain(ctx, tEnc, oEnc, cands, opts)
				if err != nil {
					t.Fatal(err)
				}
				shared := counting.Stats().Delta(before).Partitions

				tEnc, oEnc, cands = sharedFoldsFixture(t, seed)
				before = counting.Stats()
				staged := &Explanation{BaseScore: infotheory.MutualInfo(oEnc, tEnc, nil)}
				working := cands
				if !opts.DisableOfflinePrune {
					if working, staged.OfflineStats, err = OfflinePruneCtx(ctx, nil, working, opts.Prune); err != nil {
						t.Fatal(err)
					}
				}
				if !opts.DisableOnlinePrune {
					if working, staged.OnlineStats, err = OnlinePruneCtx(ctx, nil, tEnc, oEnc, working, opts.Prune); err != nil {
						t.Fatal(err)
					}
				}
				sel, err := MCIMRCtx(ctx, tEnc, oEnc, working, opts)
				if err != nil {
					t.Fatal(err)
				}
				chosen := make([]*Candidate, len(sel.Attrs))
				for i, a := range sel.Attrs {
					chosen[i] = working[slices.IndexFunc(working, func(c *Candidate) bool { return c.Name == a.Name })]
				}
				var shares []float64
				if staged.Score, shares, err = ScoreSet(tEnc, oEnc, chosen); err != nil {
					t.Fatal(err)
				}
				staged.Attrs = sel.Attrs
				for i, share := range shares {
					staged.Attrs[i].Responsibility = share
				}
				alone := counting.Stats().Delta(before).Partitions

				bits := func(ex *Explanation) string {
					return fmt.Sprintf("%x %x %+v %+v %v", math.Float64bits(ex.BaseScore), math.Float64bits(ex.Score), ex.OfflineStats, ex.OnlineStats, attrBits(ex))
				}
				if got, want := bits(ex), bits(staged); got != want {
					t.Fatalf("Explain:\n%s\nstaged:\n%s", got, want)
				}
				if names := ex.Names(); len(names) != 2 || !slices.Contains(names, "ZA") || !slices.Contains(names, "ZBw") {
					t.Fatalf("Explain selects %v, want the planted ZA and ZBw (%s)", names, bits(ex))
				}
				if opts.DisableOnlinePrune {
					if shared != alone {
						t.Fatalf("with nothing to share Explain counted %d partitions, the stages %d", shared, alone)
					}
					return
				}
				if shared >= alone {
					t.Fatalf("Explain counted %d partitions, the stages %d: the prune's cubes were counted again", shared, alone)
				}
			})
		}
	}
}
