package infotheory

import (
	"math"
	"math/rand"
	"testing"

	"nexus/internal/counting"
)

// fullWalkStats is the dense finalize over the whole domain: every stratum,
// every x and every y, skipping the cells that hold no weight. It is the
// oracle of cmiDenseStats, which visits only the occupied cells and must add
// the same terms in the same order.
func fullWalkStats(joint, zx, zy, z []float64, cx, cy int, weightSum, weightSqSum float64) cmiStats {
	if weightSum <= 0 {
		return cmiStats{}
	}
	s := cmiStats{weightSum: weightSum, weightSqSum: weightSqSum}
	for zi, pz := range z {
		if pz <= 0 {
			continue
		}
		for xc := 0; xc < cx; xc++ {
			pzx := zx[zi*cx+xc]
			if pzx <= 0 {
				continue
			}
			for yc := 0; yc < cy; yc++ {
				pj := joint[(zi*cx+xc)*cy+yc]
				if pj <= 0 {
					continue
				}
				pzy := zy[zi*cy+yc]
				s.mi += pj / weightSum * math.Log2(pz*pj/(pzx*pzy))
			}
		}
	}
	if s.mi < 0 {
		s.mi = 0
	}
	condEntropy := func(zv []float64, card int) (h float64) {
		for zi, pz := range z {
			if pz <= 0 {
				continue
			}
			for _, pzv := range zv[zi*card : (zi+1)*card] {
				if pzv > 0 {
					h -= pzv / weightSum * math.Log2(pzv/pz)
				}
			}
		}
		return h
	}
	s.hx, s.hy = condEntropy(zx, cx), condEntropy(zy, cy)
	support := func(zv []float64, card int) (n int) {
		for v := 0; v < card; v++ {
			for i := v; i < len(zv); i += card {
				if zv[i] > 0 {
					n++
					break
				}
			}
		}
		return n
	}
	s.nx, s.ny = support(zx, cx), support(zy, cy)
	for _, pz := range z {
		if pz > 0 {
			s.nz++
		}
	}
	return s
}

// checkTouchedIsFullWalk finalizes a dense tally both ways before releasing
// it: the touched finalize must be the full walk's, math.Float64bits-equal.
func checkTouchedIsFullWalk(t *testing.T, what string, tally counting.XYZ) {
	t.Helper()
	defer tally.Release()
	if !tally.Dense {
		t.Fatalf("%s: the tally is not dense", what)
	}
	got := cmiDenseStats(tally.Joint, tally.ZX, tally.ZY, tally.Z, tally.Cx, tally.Cy, tally.Occupancy(), tally.WeightSum, tally.WeightSqSum)
	want := fullWalkStats(tally.Joint, tally.ZX, tally.ZY, tally.Z, tally.Cx, tally.Cy, tally.WeightSum, tally.WeightSqSum)
	if !statsBitsEqual(got, want) {
		t.Fatalf("%s: touched finalize %+v, full walk %+v", what, got, want)
	}
}

// touchedWeights draws weights with about one in four exactly zero; nil for
// the unweighted half of the cases.
func touchedWeights(r *rand.Rand, n int) []float64 {
	if r.Intn(2) == 0 {
		return nil
	}
	w := make([]float64, n)
	for i := range w {
		if r.Intn(4) != 0 {
			w[i] = 0.1 + 3*r.Float64()
		}
	}
	return w
}

// TestTouchedFinalizeMatchesFullWalk pins the dense finalize's walk over the
// occupied strata and (z, y) pairs to the walk over the whole domain, bit for
// bit in mi, hx and hy and equal in nx, ny and nz: with a domain much larger
// than the rows (most strata empty) and rows many times the domain (nearly
// every cell filled), over all rows and over a row list, conditioned on a
// composite of several variables, with missing codes and weights that include
// zeros; and for the screen's two tests and the folded pair tally, which share
// the finalize.
func TestTouchedFinalizeMatchesFullWalk(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	cases := []struct {
		name      string
		n, cx, cy int
		zcards    []int
		miss      float64
		list      bool
	}{
		{"domain ≫ rows", 120, 8, 40, []int{50}, 0.1, false},
		{"domain ≫ rows, composite", 150, 5, 30, []int{12, 9, 4}, 0.15, false},
		{"rows ≫ domain", 20000, 4, 6, []int{5}, 0.05, false},
		{"rows ≫ domain, composite", 8000, 3, 5, []int{2, 3}, 0.1, false},
		{"row list, domain ≫ rows", 2000, 8, 60, []int{60}, 0.1, true},
		{"row list, composite", 3000, 6, 20, []int{10, 8}, 0.2, true},
		{"unconditioned", 500, 7, 9, nil, 0.1, false},
	}
	for _, c := range cases {
		for rep := 0; rep < 8; rep++ {
			x := oracleRandVar(r, "x", c.n, c.cx, c.miss)
			y := oracleRandVar(r, "y", c.n, c.cy, c.miss)
			given := make([]Var, len(c.zcards))
			for i, card := range c.zcards {
				given[i] = oracleRandVar(r, "g", c.n, card, c.miss)
			}
			w := touchedWeights(r, c.n)
			z := strata(given, c.n)
			if !c.list {
				checkTouchedIsFullWalk(t, c.name, counting.CountXYZOf(dim(x), dim(y), z, Weights{W: w}))
				continue
			}
			var rows []int32
			for i := 0; i < c.n; i++ {
				if r.Intn(10) == 0 {
					rows = append(rows, int32(i))
				}
			}
			checkTouchedIsFullWalk(t, c.name, counting.CountXYZRowsOf(dim(x), dim(y), z, Weights{W: w}, rows))
		}
	}

	// The screen's conditional (z = t) and marginal (one stratum) tallies.
	for rep := 0; rep < 20; rep++ {
		n := 50 + r.Intn(2000)
		o := oracleRandVar(r, "o", n, 1+r.Intn(6), 0.1)
		tv := oracleRandVar(r, "t", n, 1+r.Intn(200), 0.1)
		e := oracleRandVar(r, "e", n, 1+r.Intn(30), 0.1)
		w := touchedWeights(r, n)
		s := counting.CountScreenOf(dim(o), dim(tv), dim(e), Weights{W: w})
		got := cmiDenseStats(s.JointT, s.TO, s.TE, s.TM, s.Co, s.Ce, s.CondOccupancy(), s.WS3, s.WSQ3)
		want := fullWalkStats(s.JointT, s.TO, s.TE, s.TM, s.Co, s.Ce, s.WS3, s.WSQ3)
		if !statsBitsEqual(got, want) {
			t.Fatalf("screen, conditional: touched %+v, full walk %+v", got, want)
		}
		got = cmiDenseStats(s.OE, s.OM, s.EM, []float64{s.WS2}, s.Co, s.Ce, s.MarginalOccupancy(), s.WS2, s.WSQ2)
		want = fullWalkStats(s.OE, s.OM, s.EM, []float64{s.WS2}, s.Co, s.Ce, s.WS2, s.WSQ2)
		if !statsBitsEqual(got, want) {
			t.Fatalf("screen, marginal: touched %+v, full walk %+v", got, want)
		}
		s.Release()

		// The pair tally folded from a slot cube (core's entity-level null).
		nSlots := 1 + r.Intn(60)
		slots := make([]int32, n)
		for i := range slots {
			slots[i] = int32(r.Intn(nSlots+1)) - 1
		}
		ce := 1 + r.Intn(40)
		codes := make([]int32, nSlots)
		for i := range codes {
			codes[i] = int32(r.Intn(ce+1)) - 1
		}
		p := counting.NewSlotCube(slots, counting.Dim{Card: 1}, counting.Dim{Codes: o.Codes, Card: o.Card}, counting.Dim{Card: 1}).Pair(codes, ce)
		oMargin := make([]float64, p.Cx) // summed from the joint, row by row
		for oc := range oMargin {
			for _, k := range p.Joint[oc*ce : (oc+1)*ce] {
				oMargin[oc] += k
			}
		}
		mi := fullWalkStats(p.Joint, oMargin, p.EMargin, []float64{p.Total}, p.Cx, p.Ce, p.Total, p.Total).mi
		if got := TallyMutualInfo(&p); !bitsEqual(got, mi) {
			t.Fatalf("pair tally: touched %v, full walk %v", got, mi)
		}
		p.Release()
	}
}
