package infotheory

// Differential oracles for the counting-kernel migration. Every estimator
// whose tally loop moved into internal/counting keeps its pre-migration
// implementation here, verbatim, and quick.Check pins the live path to the
// oracle bit for bit (dense paths; the sparse fallback's pre-migration
// finalize summed in randomized map order, so it is compared within an
// epsilon — the live sparse path itself is deterministic, which is also
// asserted).

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"nexus/internal/bins"
)

// --- pre-migration implementations (the oracles), verbatim ------------------

func oracleEntropy(x Var, w []float64) float64 {
	counts := make([]float64, x.Card)
	total := 0.0
	for i, c := range x.Codes {
		if c == bins.Missing {
			continue
		}
		wt := weightAt(w, i)
		counts[c] += wt
		total += wt
	}
	return entropyOf(counts, total)
}

func oracleJointEntropy(xs []Var, w []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := xs[0].Len()
	ids, card := oracleDenseIDs(xs, n)
	counts := make([]float64, card)
	total := 0.0
	for i, id := range ids {
		if id < 0 {
			continue
		}
		wt := weightAt(w, i)
		counts[id] += wt
		total += wt
	}
	return entropyOf(counts, total)
}

func oracleCMI(x, y Var, given []Var, w []float64) cmiStats {
	n := x.Len()
	zids, zcard := oracleDenseIDs(given, n)
	cx, cy := x.Card, y.Card
	if cx == 0 || cy == 0 {
		return cmiStats{}
	}
	size := zcard * cx * cy
	if size > 0 && size <= maxDense {
		return oracleCMIDense(x, y, zids, zcard, w)
	}
	return oracleCMISparse(x, y, zids, w)
}

func oracleCMIDense(x, y Var, zids []int32, zcard int, w []float64) cmiStats {
	cx, cy := x.Card, y.Card
	joint := make([]float64, zcard*cx*cy)
	zx := make([]float64, zcard*cx)
	zy := make([]float64, zcard*cy)
	z := make([]float64, zcard)
	var s cmiStats
	for i := 0; i < len(zids); i++ {
		zi := zids[i]
		xc, yc := x.Codes[i], y.Codes[i]
		if zi < 0 || xc == bins.Missing || yc == bins.Missing {
			continue
		}
		wt := weightAt(w, i)
		joint[(int(zi)*cx+int(xc))*cy+int(yc)] += wt
		zx[int(zi)*cx+int(xc)] += wt
		zy[int(zi)*cy+int(yc)] += wt
		z[zi] += wt
		s.weightSum += wt
		s.weightSqSum += wt * wt
	}
	if s.weightSum <= 0 {
		return cmiStats{}
	}
	total := s.weightSum
	xSeen := make([]bool, cx)
	ySeen := make([]bool, cy)
	mi := 0.0
	for zi := 0; zi < zcard; zi++ {
		if z[zi] <= 0 {
			continue
		}
		s.nz++
		for xc := 0; xc < cx; xc++ {
			pzx := zx[zi*cx+xc]
			if pzx <= 0 {
				continue
			}
			xSeen[xc] = true
			for yc := 0; yc < cy; yc++ {
				pj := joint[(zi*cx+xc)*cy+yc]
				if pj <= 0 {
					continue
				}
				ySeen[yc] = true
				pzy := zy[zi*cy+yc]
				mi += pj / total * math.Log2(z[zi]*pj/(pzx*pzy))
			}
		}
	}
	for _, seen := range xSeen {
		if seen {
			s.nx++
		}
	}
	for _, seen := range ySeen {
		if seen {
			s.ny++
		}
	}
	if mi < 0 {
		mi = 0
	}
	s.mi = mi
	for zi := 0; zi < zcard; zi++ {
		if z[zi] <= 0 {
			continue
		}
		for xc := 0; xc < cx; xc++ {
			if pzx := zx[zi*cx+xc]; pzx > 0 {
				s.hx -= pzx / total * math.Log2(pzx/z[zi])
			}
		}
		for yc := 0; yc < cy; yc++ {
			if pzy := zy[zi*cy+yc]; pzy > 0 {
				s.hy -= pzy / total * math.Log2(pzy/z[zi])
			}
		}
	}
	return s
}

func oracleCMISparse(x, y Var, zids []int32, w []float64) cmiStats {
	type key struct {
		z    int32
		x, y int32
	}
	joint := make(map[key]float64)
	zx := make(map[[2]int32]float64)
	zy := make(map[[2]int32]float64)
	z := make(map[int32]float64)
	xSeen := make(map[int32]struct{})
	ySeen := make(map[int32]struct{})
	var s cmiStats
	for i := 0; i < len(zids); i++ {
		zi := zids[i]
		xc, yc := x.Codes[i], y.Codes[i]
		if zi < 0 || xc == bins.Missing || yc == bins.Missing {
			continue
		}
		wt := weightAt(w, i)
		joint[key{zi, xc, yc}] += wt
		zx[[2]int32{zi, xc}] += wt
		zy[[2]int32{zi, yc}] += wt
		z[zi] += wt
		xSeen[xc] = struct{}{}
		ySeen[yc] = struct{}{}
		s.weightSum += wt
		s.weightSqSum += wt * wt
	}
	if s.weightSum <= 0 {
		return cmiStats{}
	}
	mi := 0.0
	for k, pj := range joint {
		mi += pj / s.weightSum * math.Log2(z[k.z]*pj/(zx[[2]int32{k.z, k.x}]*zy[[2]int32{k.z, k.y}]))
	}
	if mi < 0 {
		mi = 0
	}
	s.mi = mi
	s.nx, s.ny, s.nz = len(xSeen), len(ySeen), len(z)
	for k, pzx := range zx {
		s.hx -= pzx / s.weightSum * math.Log2(pzx/z[k[0]])
	}
	for k, pzy := range zy {
		s.hy -= pzy / s.weightSum * math.Log2(pzy/z[k[0]])
	}
	return s
}

func oracleDenseIDs(given []Var, n int) (ids []int32, card int) {
	switch len(given) {
	case 0:
		ids = make([]int32, n)
		return ids, 1
	case 1:
		return given[0].Codes, max(given[0].Card, 1)
	}
	product := 1
	ok := true
	for _, g := range given {
		if g.Card == 0 {
			ok = false
			break
		}
		product *= g.Card
		if product > maxDense {
			ok = false
			break
		}
	}
	ids = make([]int32, n)
	if ok {
		for i := 0; i < n; i++ {
			id := 0
			for _, g := range given {
				c := g.Codes[i]
				if c == bins.Missing {
					id = -1
					break
				}
				id = id*g.Card + int(c)
			}
			ids[i] = int32(id)
		}
		return ids, product
	}
	seen := make(map[string]int32)
	buf := make([]byte, 0, len(given)*4)
	for i := 0; i < n; i++ {
		buf = buf[:0]
		miss := false
		for _, g := range given {
			c := g.Codes[i]
			if c == bins.Missing {
				miss = true
				break
			}
			buf = append(buf, byte(c), byte(c>>8), byte(c>>16), byte(c>>24))
		}
		if miss {
			ids[i] = -1
			continue
		}
		id, found := seen[string(buf)]
		if !found {
			id = int32(len(seen))
			seen[string(buf)] = id
		}
		ids[i] = id
	}
	return ids, max(len(seen), 1)
}

// --- random instance generation ---------------------------------------------

// randVar builds a synthetic encoded column with the given cardinality:
// codes uniform over [0, card) with missProb chance of Missing per row.
func oracleRandVar(r *rand.Rand, name string, n, card int, missProb float64) Var {
	codes := make([]int32, n)
	for i := range codes {
		if r.Float64() < missProb {
			codes[i] = bins.Missing
		} else {
			codes[i] = int32(r.Intn(card))
		}
	}
	return &bins.Encoded{Name: name, Codes: codes, Card: card}
}

func oracleRandWeights(r *rand.Rand, n int) []float64 {
	if r.Intn(3) == 0 {
		return nil
	}
	w := make([]float64, n)
	for i := range w {
		w[i] = r.Float64() * 2
	}
	return w
}

func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// quickCfg drives each property with fresh sub-rand instances so failures
// reproduce from the printed seed value.
var quickCfg = &quick.Config{MaxCount: 60}

// --- differential properties -------------------------------------------------

func TestEntropyMatchesOracleBitwise(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(200)
		x := oracleRandVar(r, "x", n, 1+r.Intn(8), 0.2)
		w := oracleRandWeights(r, n)
		return bitsEqual(Entropy(x, w), oracleEntropy(x, w))
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestJointEntropyMatchesOracleBitwise(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(150)
		k := 1 + r.Intn(3)
		xs := make([]Var, k)
		for i := range xs {
			xs[i] = oracleRandVar(r, "v", n, 1+r.Intn(6), 0.15)
		}
		w := oracleRandWeights(r, n)
		return bitsEqual(JointEntropy(xs, w), oracleJointEntropy(xs, w))
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func statsBitsEqual(a, b cmiStats) bool {
	return bitsEqual(a.mi, b.mi) && bitsEqual(a.hx, b.hx) && bitsEqual(a.hy, b.hy) &&
		bitsEqual(a.weightSum, b.weightSum) && bitsEqual(a.weightSqSum, b.weightSqSum) &&
		a.nx == b.nx && a.ny == b.ny && a.nz == b.nz
}

func TestCMIDenseMatchesOracleBitwise(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(200)
		x := oracleRandVar(r, "x", n, 1+r.Intn(6), 0.2)
		y := oracleRandVar(r, "y", n, 1+r.Intn(6), 0.2)
		k := r.Intn(3)
		given := make([]Var, k)
		for i := range given {
			given[i] = oracleRandVar(r, "g", n, 1+r.Intn(4), 0.15)
		}
		w := oracleRandWeights(r, n)
		return statsBitsEqual(cmi(x, y, given, Weights{W: w}), oracleCMI(x, y, given, w))
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// TestCMISparseMatchesOracle exercises the hash-map fallback (joint domain
// above maxDense). The pre-migration sparse finalize summed in Go's
// randomized map-range order, so the oracle itself wobbles in the last few
// ULPs between runs: the comparison is within 1e-9, and the live path —
// which sums in sorted-key order — is additionally pinned to be
// run-deterministic (bit-equal across repeated evaluations).
func TestCMISparseMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const n = 300
	// cx*cy = 2100² ≈ 4.4M > maxDense with an empty conditioning set.
	x := oracleRandVar(r, "x", n, 2100, 0.1)
	y := oracleRandVar(r, "y", n, 2100, 0.1)
	for _, w := range [][]float64{nil, oracleRandWeights(rand.New(rand.NewSource(8)), n)} {
		got := cmi(x, y, nil, Weights{W: w})
		want := oracleCMI(x, y, nil, w)
		if math.Abs(got.mi-want.mi) > 1e-9 || math.Abs(got.hx-want.hx) > 1e-9 ||
			math.Abs(got.hy-want.hy) > 1e-9 ||
			got.nx != want.nx || got.ny != want.ny || got.nz != want.nz ||
			!bitsEqual(got.weightSum, want.weightSum) || !bitsEqual(got.weightSqSum, want.weightSqSum) {
			t.Fatalf("sparse cmi mismatch: got %+v want %+v", got, want)
		}
		if again := cmi(x, y, nil, Weights{W: w}); !statsBitsEqual(got, again) {
			t.Fatalf("sparse cmi not deterministic: %+v vs %+v", got, again)
		}
	}
}

func TestDenseIDsMatchesOracleBitwise(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(150)
		k := r.Intn(4)
		given := make([]Var, k)
		for i := range given {
			given[i] = oracleRandVar(r, "g", n, 1+r.Intn(6), 0.15)
		}
		ids, card := DenseIDs(given, n)
		oids, ocard := oracleDenseIDs(given, n)
		if card != ocard || len(ids) != len(oids) {
			return false
		}
		for i := range ids {
			if ids[i] != oids[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestDenseIDsFallbackMatchesOracle(t *testing.T) {
	// Three 200-ary variables: product 8M > maxDense forces the first-seen
	// numbering in both implementations.
	r := rand.New(rand.NewSource(11))
	const n = 500
	given := []Var{
		oracleRandVar(r, "a", n, 200, 0.1),
		oracleRandVar(r, "b", n, 200, 0.1),
		oracleRandVar(r, "c", n, 200, 0.1),
	}
	ids, card := DenseIDs(given, n)
	oids, ocard := oracleDenseIDs(given, n)
	if card != ocard {
		t.Fatalf("card: got %d want %d", card, ocard)
	}
	for i := range ids {
		if ids[i] != oids[i] {
			t.Fatalf("ids[%d]: got %d want %d", i, ids[i], oids[i])
		}
	}
}
