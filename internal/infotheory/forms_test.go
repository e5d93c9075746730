package infotheory

import (
	"fmt"
	"math"
	"testing"

	"nexus/internal/bins"
	"nexus/internal/counting"
	"nexus/internal/stats"
)

// slotVar draws an indirect variable over n rows: a row→slot map into nSlots
// slots with about one row in five unresolved, and one code per slot below
// card, about one slot in six missing.
func slotVar(rng *stats.RNG, name string, n, nSlots, card int) Var {
	slots := make([]int32, n)
	for i := range slots {
		slots[i] = int32(rng.Intn(nSlots))
		if rng.Intn(5) == 0 {
			slots[i] = -1
		}
	}
	codes := make([]int32, nSlots)
	for s := range codes {
		codes[s] = int32(rng.Intn(card))
		if rng.Intn(6) == 0 {
			codes[s] = bins.Missing
		}
	}
	return &bins.Encoded{Name: name, Codes: codes, Card: card, Slots: slots}
}

func rowsOf(v Var) Var {
	if v == nil || v.Slots == nil {
		return v
	}
	return v.Broadcast(v.Slots)
}

func rowsOfAll(vs []Var) []Var {
	out := make([]Var, len(vs))
	for i, v := range vs {
		out[i] = rowsOf(v)
	}
	return out
}

// TestIndirectFormEqualsBroadcast: every entry point the scoring core calls
// gives, on indirect variables and weights in either form, statistics
// Float64bits-equal to the same call on their broadcasts — weighted and
// unweighted, with the conditioning set empty, one indirect variable, or a
// composite, and with a joint domain within and past the dense bound.
func TestIndirectFormEqualsBroadcast(t *testing.T) {
	const n = 1500
	rng := stats.NewRNG(21)
	o, tv, g := randVar(rng, n, 4, 0.1), randVar(rng, n, 5, 0.1), randVar(rng, n, 3, 0.1)
	rowW := make([]float64, n)
	for i := range rowW {
		rowW[i] = 0.5 + rng.Float64()
	}
	var list []int32
	for i := 0; i < n; i += 1 + rng.Intn(3) {
		list = append(list, int32(i))
	}
	fixtures := []struct {
		name string
		e, f Var
	}{
		{"dense", slotVar(rng, "E", n, 60, 4), slotVar(rng, "F", n, 35, 3)},
		// |O|·|T|·|E| = 4·5·300,000 leaves counting.MaxDense.
		{"past MaxDense", slotVar(rng, "E", n, 60, 300000), slotVar(rng, "F", n, 35, 3)},
	}
	slotWeights := func(v Var) Weights {
		w := make([]float64, len(v.Codes))
		for s := range w {
			w[s] = 0.25 + rng.Float64()
		}
		return Weights{W: w, Slots: v.Slots}
	}
	bits := func(x float64) uint64 { return math.Float64bits(x) }
	base := counting.Stats()
	for _, fx := range fixtures {
		e, f := fx.e, fx.f
		be := rowsOf(e)
		givens := []struct {
			name  string
			given []Var
		}{
			{"none", nil},
			{"indirect", []Var{f}},
			{"composite", []Var{g, f}},
			{"joined", []Var{JoinVars("selected", g, f)}},
		}
		weights := []struct {
			name string
			w    Weights
		}{
			{"unweighted", Weights{}},
			{"E's slot weights", slotWeights(e)},
			{"F's slot weights", slotWeights(f)},
			{"row weights", Weights{W: rowW}},
		}
		for _, gv := range givens {
			given, bgiven := gv.given, rowsOfAll(gv.given)
			for _, wv := range weights {
				w := wv.w
				name := fmt.Sprintf("%s/given=%s/%s", fx.name, gv.name, wv.name)
				bw := Weights{W: w.Rows()}
				type pair struct {
					stat      string
					got, want uint64
				}
				var pairs []pair
				add := func(stat string, got, want float64) { pairs = append(pairs, pair{stat, bits(got), bits(want)}) }
				verdict := func(b bool) float64 {
					if b {
						return 1
					}
					return 0
				}
				add("Entropy", Entropy(e, bw.W), Entropy(be, bw.W))
				add("I(E;F)", CondMutualInfo(e, f, nil, w), CondMutualInfo(be, rowsOf(f), nil, bw))
				add("I(O;E|given)", CondMutualInfo(o, e, given, w), CondMutualInfo(o, be, bgiven, bw))
				add("I(O;T|given,E)", CondMutualInfo(o, tv, append(append([]Var{}, given...), e), w),
					CondMutualInfo(o, tv, append(append([]Var{}, bgiven...), be), bw))
				add("debiased rows", CondMutualInfoDebiasedRows(o, tv, append(append([]Var{}, given...), e), bw.W, list),
					CondMutualInfoDebiasedRows(o, tv, append(append([]Var{}, bgiven...), be), bw.W, list))
				got, want := ScreenAll(o, tv, e, w), ScreenAll(o, tv, be, bw)
				gO, gT := got.FDEntropies()
				wO, wT := want.FDEntropies()
				add("H(O|E)", gO, wO)
				add("H(T|E)", gT, wT)
				for _, thr := range []float64{0.001, 0.02, 0.5} {
					add(fmt.Sprintf("O⊥E|given at %v", thr), verdict(CondIndependent(o, e, given, w, thr)), verdict(CondIndependent(o, be, bgiven, bw, thr)))
					add(fmt.Sprintf("screen O⊥E at %v", thr), verdict(got.MarginalIndependent(thr)), verdict(want.MarginalIndependent(thr)))
					add(fmt.Sprintf("screen O⊥E|T at %v", thr), verdict(got.CondIndependentGivenT(thr)), verdict(want.CondIndependentGivenT(thr)))
					add(fmt.Sprintf("walked at %v", thr), verdict(got.CondWalked()), verdict(want.CondWalked()))
				}
				got.Release()
				want.Release()
				if len(given) > 0 {
					gj, wj := JoinVars("j", given...), JoinVars("j", bgiven...)
					gids, _ := DenseIDs([]Var{gj}, n)
					wids, _ := DenseIDs([]Var{wj}, n)
					same := gj.Card == wj.Card
					for i := range gids {
						same = same && gids[i] == wids[i]
					}
					add("JoinVars", verdict(same), 1)
				}
				for _, p := range pairs {
					if p.got != p.want {
						t.Errorf("%s: %s indirect %v (%#x), broadcast %v (%#x)", name, p.stat,
							math.Float64frombits(p.got), p.got, math.Float64frombits(p.want), p.want)
					}
				}
			}
		}
	}
	// Past the bound the kernel tallies into maps and the screen falls back
	// to the unfused estimators: both representations ran.
	if d := counting.Stats().Delta(base); d.DensePasses == 0 || d.SparsePasses == 0 {
		t.Fatalf("kernel passes %+v: both representations must run", d)
	}
}
