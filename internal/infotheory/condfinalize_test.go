package infotheory

import (
	"math"
	"math/rand"
	"testing"

	"nexus/internal/bins"
)

// The contract of the entropy-form finalize of O ⊥ E | T: over integer
// tallies its statistic lies within entropyBound of the math.Log2 walk's
// (cmiDenseStats, the oracle throughout this file), its support sizes and
// exact zeros are the walk's, and CondIndependentGivenT's verdict is == the
// unfused CondIndependent's at any threshold — by the guard (decideWithin),
// which hands a statistic too close to a decision boundary to the walk.

var condThresholds = []float64{0.001, 0.02, 0.1, 0.5}

func codeVar(codes []int32, card int) Var { return &bins.Encoded{Codes: codes, Card: card} }

// randCodes draws n codes below card, about one in miss of them missing
// (miss ≤ 0: none; card 0: all).
func randCodes(r *rand.Rand, n, card, miss int) []int32 {
	out := make([]int32, n)
	for i := range out {
		if card == 0 || (miss > 0 && r.Intn(miss) == 0) {
			out[i] = bins.Missing
		} else {
			out[i] = int32(r.Intn(card))
		}
	}
	return out
}

// functionOf returns codes below card that depend on z alone where z is
// present (and are random where it is not — such a row is never complete).
func functionOf(r *rand.Rand, z []int32, card int) []int32 {
	out := randCodes(r, len(z), card, 0)
	for i, zc := range z {
		if zc >= 0 && card > 0 {
			out[i] = (zc*7 + 3) % int32(card)
		}
	}
	return out
}

// condScenario draws unweighted (O, T, E) columns: missing codes in each,
// zero cardinalities, and the structured shapes where the walk yields exact
// zeros — one T stratum, E = f(T), O = f(T), one row per stratum.
func condScenario(r *rand.Rand) (o, t, e Var) {
	n := 1 + r.Intn(600)
	card := func(most int) int {
		if c := r.Intn(15); c < 2 {
			return c
		}
		return 2 + r.Intn(most-1)
	}
	co, ct, ce := card(6), card(11), card(8)
	shape := r.Intn(8)
	switch shape {
	case 1:
		ct = 1
	case 4:
		ct = n
	}
	tc := randCodes(r, n, ct, r.Intn(6))
	if shape == 4 {
		for i, p := range r.Perm(n) {
			tc[i] = int32(p)
		}
	}
	oc, ec := randCodes(r, n, co, r.Intn(6)), randCodes(r, n, ce, r.Intn(6))
	switch shape {
	case 2:
		ec = functionOf(r, tc, ce)
	case 3:
		oc = functionOf(r, tc, co)
	case 5: // E depends on O, so the ratio test, not the debias clamp, decides
		for i := range ec {
			if oc[i] >= 0 && ce > 0 && r.Intn(3) > 0 {
				ec[i] = oc[i] % int32(ce)
			}
		}
	}
	return codeVar(oc, co), codeVar(tc, ct), codeVar(ec, ce)
}

func TestCondEntropyFormWithinBound(t *testing.T) {
	dense, decided, zeros := 0, 0, 0
	check := func(seed int64) bool {
		o, tv, e := condScenario(rand.New(rand.NewSource(seed)))
		want := cmi(o, e, []Var{tv}, Weights{})
		sc := ScreenAll(o, tv, e, Weights{})
		isDense := sc.tally != nil && sc.tally.WS3 > 0
		if f := sc.tally; isDense {
			dense++
			got, bound := condStatsEntropy(f), entropyBound(f)
			if math.Abs(got.mi-want.mi) > bound || math.Abs(got.hx-want.hx) > bound || math.Abs(got.hy-want.hy) > bound {
				t.Errorf("seed %d: entropy form %+v is not within %g of the walk's %+v", seed, got, bound, want)
				return false
			}
			if got.nx != want.nx || got.ny != want.ny || got.nz != want.nz || got.weightSum != want.weightSum || got.weightSqSum != want.weightSqSum {
				t.Errorf("seed %d: support sizes or weight sums differ: entropy form %+v, walk %+v", seed, got, want)
				return false
			}
			// A function of T: the walk's zeros are exact, and so are these.
			if (want.hx == 0 && (got.hx != 0 || got.mi != 0)) || (want.hy == 0 && (got.hy != 0 || got.mi != 0)) {
				t.Errorf("seed %d: the walk's exact zeros %+v are not preserved: %+v", seed, want, got)
				return false
			}
			if want.hx == 0 || want.hy == 0 {
				zeros++
			}
		}
		for _, thr := range condThresholds {
			if got, want := sc.CondIndependentGivenT(thr), CondIndependent(o, e, []Var{tv}, Weights{}, thr); got != want {
				t.Errorf("seed %d, threshold %v: CondIndependentGivenT = %v, unfused CondIndependent = %v", seed, thr, got, want)
				return false
			}
			if isDense && !sc.CondWalked() {
				decided++
			}
		}
		return true
	}
	// Fixed seeds keep the fixture-strength floor below deterministic: dense
	// sits near cases/2 in expectation, so fresh seeds would fail it by
	// chance.
	const cases = 1500
	for seed := int64(0); seed < cases; seed++ {
		if !check(seed) {
			t.FailNow()
		}
	}
	if dense < cases/2 || zeros < cases/20 || decided < 3*dense {
		t.Fatalf("fixture too weak: %d of %d cases dense, %d with an exact zero, %d of %d verdicts by the entropy form",
			dense, cases, zeros, decided, 4*dense)
	}
}

// walkRatio returns the walk's debiased-MI ratio d/m of a scenario, the
// number CondIndependent compares to the threshold (ok = it gets that far).
func walkRatio(o, t, e Var) (ratio float64, ok bool) {
	st := cmi(o, e, []Var{t}, Weights{})
	d, m := debiasedMI(st, false), math.Min(st.hx, st.hy)
	return d / m, d > 0 && m > 0
}

// TestCondFinalizeFallsThroughAtTheBoundary puts the threshold on the walk's
// own ratio and one ulp either side of it, where the last bits of the
// statistic are the verdict: the guard must hand every such case to the walk
// (CondWalked) and the verdict must be the walk's. Without the guard the
// entropy form would decide these from a statistic that is not the walk's.
func TestCondFinalizeFallsThroughAtTheBoundary(t *testing.T) {
	tried := 0
	for seed := int64(1); tried < 60; seed++ {
		o, tv, e := condScenario(rand.New(rand.NewSource(seed)))
		ratio, ok := walkRatio(o, tv, e)
		if !ok {
			continue
		}
		tried++
		for _, thr := range []float64{math.Nextafter(ratio, 0), ratio, math.Nextafter(ratio, math.Inf(1))} {
			sc := ScreenAll(o, tv, e, Weights{})
			got, want := sc.CondIndependentGivenT(thr), CondIndependent(o, e, []Var{tv}, Weights{}, thr)
			if got != want || !sc.CondWalked() {
				t.Fatalf("seed %d, threshold %v at ratio %v: verdict %v (walk: %v), judged by the walk: %v",
					seed, thr, ratio, got, want, sc.CondWalked())
			}
		}
		// Away from the boundary the same tallies are decided without it.
		sc := ScreenAll(o, tv, e, Weights{})
		if got := sc.CondIndependentGivenT(2 * ratio); !got || sc.CondWalked() {
			t.Fatalf("seed %d: at twice the ratio %v: independent = %v, judged by the walk: %v", seed, ratio, got, sc.CondWalked())
		}
	}
}

// FuzzCondFinalize: for integer tallies of any shape and any threshold —
// arbitrary bits, or placed on the walk's own ratio — the entropy form never
// panics, decides only what the walk decides, and CondIndependentGivenT ==
// the unfused CondIndependent. The seed corpus is checked in under
// testdata/fuzz; CI runs the target as a bounded smoke iteration.
func FuzzCondFinalize(f *testing.F) {
	f.Add([]byte("\x03\x04\x02abcdefghijklmnopqrstuvwxyz0123456789"), uint64(0x3f947ae147ae147b), uint8(0))
	f.Add([]byte("\x02\x02\x02AAAABBBBCCCCDDDD"), uint64(0), uint8(1))
	f.Add([]byte("\x05\x01\x05zyxwvutsrqponm"), math.Float64bits(math.NaN()), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, thrBits uint64, place uint8) {
		if len(data) < 3 {
			t.Skip()
		}
		co, ct, ce := int(data[0]%7), int(data[1]%7), int(data[2]%7)
		rows := data[3:]
		if len(rows) > 1024 {
			rows = rows[:1024]
		}
		oc, tc, ec := make([]int32, len(rows)), make([]int32, len(rows)), make([]int32, len(rows))
		code := func(b byte, card int) int32 {
			if card == 0 || b%8 == 7 {
				return bins.Missing
			}
			return int32(int(b) % card)
		}
		for i, b := range rows {
			oc[i], tc[i], ec[i] = code(b, co), code(b>>2, ct), code(b>>4^b, ce)
		}
		o, tv, e := codeVar(oc, co), codeVar(tc, ct), codeVar(ec, ce)
		thr := math.Float64frombits(thrBits)
		if ratio, ok := walkRatio(o, tv, e); ok && place%4 != 0 {
			thr = []float64{math.Nextafter(ratio, 0), ratio, math.Nextafter(ratio, math.Inf(1))}[place%4-1]
		}
		want := CondIndependent(o, e, []Var{tv}, Weights{}, thr)
		sc := ScreenAll(o, tv, e, Weights{})
		if tally := sc.tally; tally != nil && tally.WS3 > 0 {
			if got, ok := decideWithin(condStatsEntropy(tally), entropyBound(tally), thr); ok && got != want {
				t.Fatalf("threshold %v: the entropy form decides %v, the walk %v", thr, got, want)
			}
		}
		if got := sc.CondIndependentGivenT(thr); got != want {
			t.Fatalf("threshold %v: CondIndependentGivenT = %v, unfused CondIndependent = %v", thr, got, want)
		}
	})
}
