package core

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"nexus/internal/bins"
	"nexus/internal/counting"
	"nexus/internal/infotheory"
	"nexus/internal/obs"
	"nexus/internal/stats"
	"nexus/internal/table"
)

// onlinePruneOracle is the online prune with its judge in the order it had
// before the entity-level permutation null moved to the front: the screen,
// the FD rule and the relevance tests first, every permutation null last.
// Each of the three conjuncts is a pure function of the candidate under its
// seed, so OnlinePruneCtx must keep exactly what this keeps, in order; only a
// candidate failing both the FD rule and the null changes its drop reason.
func onlinePruneOracle(ctx context.Context, tr *obs.Trace, t, o *bins.Encoded, cands []*Candidate, opts PruneOptions) ([]*Candidate, PruneStats, error) {
	ht := infotheory.Entropy(t, nil)
	ho := infotheory.Entropy(o, nil)
	folds := newSlotFolds(t, o)
	return prunePass(ctx, "online", cands, func(i int, c *Candidate) (PruneReason, error) {
		enc, w, err := c.vectors()
		if err != nil {
			return "", err
		}
		var sc *infotheory.OnlineScreen
		var pair *counting.SlotCube
		if c.Entity != nil {
			pair = folds.cube(c.Entity.Slots, nil, o, nil)
			if w == nil {
				sc = infotheory.ScreenSlots(folds.cube(c.Entity.Slots, nil, o, t), pair, enc)
			}
		}
		if sc == nil {
			sc = infotheory.ScreenAll(o, t, enc, weightsOf(enc, w))
		}
		defer sc.Release()
		hOgivenE, hTgivenE := sc.FDEntropies()
		if (ht > 0 && hTgivenE/ht < fdThreshold) || (ho > 0 && hOgivenE/ho < fdThreshold) {
			return PruneFD, nil
		}
		tr.Add(obs.CITests, 1)
		if sc.MarginalIndependent(relevanceThreshold) {
			tr.Add(obs.CITests, 1)
			independent := sc.CondIndependentGivenT(relevanceThreshold)
			if sc.CondWalked() {
				tr.Add(obs.CondWalks, 1)
			}
			if independent {
				return PruneIrrelevant, nil
			}
		}
		if !opts.DisablePermRelevance && (c.Permute != nil || c.Entity != nil) {
			dependent := true
			switch {
			case c.Entity != nil:
				dependent = entityPermDependent(tr, pair, c.Name, enc, permRelevanceTests, 0, 0x5eed+uint64(i))
			case enc.Len() <= maxPermRows:
				if dependent, err = permSignificant(ctx, tr, PermResp, t, o, c, enc, nil, 0x5eed+uint64(i), 0, permRelevanceTests, 0, 1, nil, nil, 0); err != nil {
					return "", err
				}
			}
			if !dependent {
				return PruneIrrelevant, nil
			}
		}
		return "", nil
	})
}

// reorderFixture builds entity-form candidates over two link columns, IPW-
// weighted ones among them, plus two input columns, with T and O driven by a
// latent value of the first link column's entities. weightCalls[k] counts the
// calls of candidate k's Entity.Weights supplier.
func reorderFixture(tb testing.TB, seed uint64) (t, o *bins.Encoded, cands []*Candidate, weightCalls []*atomic.Int32) {
	tb.Helper()
	rng := stats.NewRNG(seed)
	const n, nA, nB, junk = 3000, 80, 40, 10
	slotsA, slotsB := make([]int32, n), make([]int32, n)
	z := make([]float64, nA)
	for s := range z {
		z[s] = rng.Norm()
	}
	tv, ov := make([]float64, n), make([]float64, n)
	for i := range slotsA {
		slotsA[i], slotsB[i] = int32(rng.Intn(nA)), int32(rng.Intn(nB))
		if rng.Intn(10) == 0 {
			slotsA[i] = -1
		}
		a := 0.0
		if s := slotsA[i]; s >= 0 {
			a = z[s]
		}
		tv[i], ov[i] = a+rng.Norm(), 2*a+0.5*rng.Norm()
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
		calls := new(atomic.Int32)
		if weighted {
			w := make([]float64, len(vals))
			for s := range w {
				w[s] = 0.5 + rng.Float64()
			}
			ent.Weights = func() []float64 { calls.Add(1); return w }
		}
		cands = append(cands, FromEntity(name, 1, ent, nil))
		weightCalls = append(weightCalls, calls)
	}
	noisy := func(k int, scale float64) []float64 {
		out := make([]float64, k)
		for s := range out {
			out[s] = rng.Norm()
			if scale > 0 {
				out[s] = z[s] + scale*out[s]
			}
		}
		return out
	}
	entity("Z", slotsA, z, false)
	entity("Zw", slotsA, noisy(nA, 0.5), true)
	entity("Zw2", slotsA, noisy(nA, 2), true)
	for k := range junk {
		entity(fmt.Sprintf("JunkA%d", k), slotsA, noisy(nA, 0), k%2 == 0)
		entity(fmt.Sprintf("JunkB%d", k), slotsB, noisy(nB, 0), k%3 == 0)
	}
	rowSignal, rowJunk := make([]float64, n), make([]float64, n)
	for i := range rowSignal {
		rowSignal[i], rowJunk[i] = ov[i]+2*rng.Norm(), rng.Norm()
	}
	for _, col := range []*table.Column{table.NewFloatColumn("RowSignal", rowSignal), table.NewFloatColumn("RowJunk", rowJunk)} {
		c, err := FromColumn(col, bins.DefaultOptions())
		if err != nil {
			tb.Fatal(err)
		}
		cands = append(cands, c)
		weightCalls = append(weightCalls, new(atomic.Int32))
	}
	return t, o, cands, weightCalls
}

// TestOnlinePruneNullFirstMatchesOracle pins the online prune's order: the
// entity-level permutation null runs first, and the prune keeps exactly the
// candidates, in order, of the judge that ran it last (onlinePruneOracle),
// over entity-form candidates, IPW-weighted ones among them, and input
// columns. A candidate the null rejects never has its weights read. With the
// null off the two judges are the same test, drop counts included.
func TestOnlinePruneNullFirstMatchesOracle(t *testing.T) {
	ctx := context.Background()
	rejectedWeighted, keptWeighted := 0, 0
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			for _, null := range []bool{true, false} {
				opts := PruneOptions{DisablePermRelevance: !null}
				tEnc, oEnc, cands, calls := reorderFixture(t, seed)
				got, gotStats, err := OnlinePruneCtx(ctx, nil, tEnc, oEnc, cands, opts)
				if err != nil {
					t.Fatal(err)
				}
				_, _, oracleCands, _ := reorderFixture(t, seed)
				want, wantStats, err := onlinePruneOracle(ctx, nil, tEnc, oEnc, oracleCands, opts)
				if err != nil {
					t.Fatal(err)
				}
				if g, w := candidateNames(got), candidateNames(want); !slices.Equal(g, w) {
					t.Fatalf("null %v: the prune keeps %v, the oracle %v", null, g, w)
				}
				if !null {
					if !reflect.DeepEqual(gotStats, wantStats) {
						t.Fatalf("null off: the prune's stats %+v, the oracle's %+v", gotStats, wantStats)
					}
					continue
				}
				// Only a candidate failing both the FD rule and the null moves,
				// from logical-dependency to low-relevance.
				if gotStats.Kept != wantStats.Kept || gotStats.Dropped[PruneFD] > wantStats.Dropped[PruneFD] ||
					gotStats.Dropped[PruneFD]+gotStats.Dropped[PruneIrrelevant] != wantStats.Dropped[PruneFD]+wantStats.Dropped[PruneIrrelevant] {
					t.Fatalf("the prune's stats %+v, the oracle's %+v", gotStats, wantStats)
				}
				kept := map[string]bool{}
				for _, c := range got {
					kept[c.Name] = true
				}
				folds := newSlotFolds(tEnc, oEnc)
				for i, c := range cands {
					if c.Entity == nil || c.Entity.Weights == nil {
						continue
					}
					ent, err := c.Entity.Encoding(c.Name)
					if err != nil {
						t.Fatal(err)
					}
					n := calls[i].Load()
					switch {
					case !entityPermDependent(nil, folds.cube(c.Entity.Slots, nil, oEnc, nil), c.Name, ent, permRelevanceTests, 0, 0x5eed+uint64(i)):
						if n != 0 {
							t.Errorf("%s: the null rejects it, yet its weights were read %d times", c.Name, n)
						}
						rejectedWeighted++
					case kept[c.Name]:
						if n != 1 {
							t.Errorf("%s: kept, its weights read %d times, want 1", c.Name, n)
						}
						keptWeighted++
					}
				}
			}
		})
	}
	if rejectedWeighted == 0 || keptWeighted == 0 {
		t.Fatalf("fixture too weak: %d weighted candidates rejected by the null, %d kept", rejectedWeighted, keptWeighted)
	}
	t.Logf("%d weighted candidates rejected by the null, %d kept", rejectedWeighted, keptWeighted)
}

func candidateNames(cands []*Candidate) []string {
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = c.Name
	}
	return out
}
