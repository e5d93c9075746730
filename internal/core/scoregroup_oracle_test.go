package core

// Differential oracle for ScoreGroupRows. The pre-change body — zero an
// n-long scratch, write the group's rows into it as a weight mask, run the
// full-table estimator — is kept here verbatim; the row-list scorer must
// return the same bits on the dense path, and must fix what the mask broke on
// the sparse one.

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"nexus/internal/bins"
	"nexus/internal/counting"
	"nexus/internal/infotheory"
)

func oracleScoreGroupRows(t, o *bins.Encoded, explanation []*bins.Encoded, rows []int32, base []float64, scratch []float64) float64 {
	for i := range scratch {
		scratch[i] = 0
	}
	for _, r := range rows {
		if base != nil {
			scratch[r] = base[r]
		} else {
			scratch[r] = 1
		}
	}
	return infotheory.CondMutualInfoDebiased(o, t, explanation, scratch)
}

func randomEnc(r *rand.Rand, name string, n, card int, missing float64) *bins.Encoded {
	e := &bins.Encoded{Name: name, Card: card, Codes: make([]int32, n)}
	for i := range e.Codes {
		if r.Float64() < missing {
			e.Codes[i] = bins.Missing
		} else {
			e.Codes[i] = int32(r.Intn(card))
		}
	}
	return e
}

func TestScoreGroupRowsMatchesMaskedOracle(t *testing.T) {
	positive := 0
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(400)
		te := randomEnc(r, "T", n, 1+r.Intn(5), 0.1)
		oe := randomEnc(r, "O", n, 1+r.Intn(5), 0.1)
		for i, c := range te.Codes { // dependent, so most scores survive the debias
			if c >= 0 && oe.Codes[i] >= 0 && r.Intn(3) > 0 {
				oe.Codes[i] = c % int32(oe.Card)
			}
		}
		var expl []*bins.Encoded
		if r.Intn(4) > 0 { // an empty explanation is a legal conditioning set
			expl = []*bins.Encoded{randomEnc(r, "E", n, 1+r.Intn(6), 0.2)}
		}
		var base []float64
		if r.Intn(2) == 0 {
			base = make([]float64, n)
			for i := range base {
				base[i] = 3 * r.Float64() // not dyadic: the add order matters
				if r.Intn(8) == 0 {
					base[i] = 0
				}
			}
		}
		// Group sizes 0, 1 and n are always among the cases.
		keep := []float64{0, -1, 1, r.Float64()}[r.Intn(4)]
		var rows []int32
		for i := 0; i < n; i++ {
			if r.Float64() < keep {
				rows = append(rows, int32(i))
			}
		}
		if keep < 0 {
			rows = []int32{int32(r.Intn(n))}
		}
		got := ScoreGroupRows(te, oe, expl, rows, base)
		want := oracleScoreGroupRows(te, oe, expl, rows, base, make([]float64, n))
		if got > 0 {
			positive++
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Logf("seed %d: n=%d |rows|=%d weighted=%v: got %v (%#x) want %v (%#x)",
				seed, n, len(rows), base != nil, got, math.Float64bits(got), want, math.Float64bits(want))
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 600}); err != nil {
		t.Fatal(err)
	}
	if positive < 100 {
		t.Fatalf("only %d of 600 cases scored above 0; the differential compares mostly clamped zeros", positive)
	}
}

// TestScoreGroupRowsSparseDomain is the regression test for a joint domain
// past counting.MaxDense. There the masked pass created a map cell for every
// zero-weight row, so its finalize evaluated 0·log2(0·0/(0·0)) and every
// proper subgroup scored NaN — which no τ comparison ever passes — and the
// debias degrees of freedom counted codes of rows outside the group. Tallied
// from the row list the score is that of the group's own sub-table.
func TestScoreGroupRowsSparseDomain(t *testing.T) {
	const n, cardT, cardO, cardE = 20000, 300, 8, 2000
	if cardT*cardO*cardE <= counting.MaxDense {
		t.Fatal("fixture no longer leaves the dense bound")
	}
	r := rand.New(rand.NewSource(7))
	te := randomEnc(r, "T", n, cardT, 0.02)
	oe := randomEnc(r, "O", n, cardO, 0.02)
	ee := randomEnc(r, "E", n, cardE, 0.05)
	var rows []int32
	var idx []int
	for i := 0; i < n; i += 2 {
		rows = append(rows, int32(i))
		idx = append(idx, i)
	}
	if v := oracleScoreGroupRows(te, oe, []*bins.Encoded{ee}, rows, nil, make([]float64, n)); !math.IsNaN(v) {
		t.Fatalf("masked oracle scored %v; the fixture no longer reproduces the NaN", v)
	}
	got := ScoreGroupRows(te, oe, []*bins.Encoded{ee}, rows, nil)
	want := infotheory.CondMutualInfoDebiased(oe.Gather(idx), te.Gather(idx), []infotheory.Var{ee.Gather(idx)}, nil)
	if math.IsNaN(got) || math.IsInf(got, 0) || math.Abs(got-want) > 1e-12 {
		t.Fatalf("row-list score %v, compacted sub-table score %v", got, want)
	}
}
