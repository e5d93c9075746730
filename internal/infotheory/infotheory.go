// Package infotheory implements plug-in (maximum-likelihood) estimators of
// entropy, mutual information and conditional mutual information over
// discretized columns (bins.Encoded). All quantities are in bits.
//
// Estimation is complete-case: rows where any involved variable is missing
// are skipped. Inverse-probability weights (package missing) are passed as an
// optional weight vector; a nil vector (a zero Weights) means uniform
// weights. This mirrors how the paper combines complete-case analysis with
// IPW (§3.2).
//
// A variable, and a Weights vector, may be in the indirect form of a
// knowledge-graph attribute — one value per entity slot plus the row→slot
// map (bins.Encoded.Slots, Weights.Slots) — which the kernel reads through
// the map. Every statistic is bit-identical to the one computed over the
// same variable broadcast to rows.
//
// All counting passes route through the unified kernel (internal/counting);
// this package owns only the finalize arithmetic — probabilities and
// logarithms over the kernel's tally buffers. The finalize loops read those
// buffers in the same iteration order as the pre-migration standalone
// estimators, and the kernel's accumulation loops preserve their per-row add
// sequence, so every statistic here is bit-identical to its pre-kernel
// implementation (pinned by the differential oracles in oracle_test.go).
package infotheory

import (
	"math"
	"sort"

	"nexus/internal/bins"
	"nexus/internal/counting"
)

// Var is a discretized column, direct or indirect (see bins.Encoded.Slots).
type Var = *bins.Encoded

// Weights is a weight vector in the kernel's two forms: one weight per row,
// or one per entity slot read through a row→slot map.
type Weights = counting.Weights

// dim is v as a kernel column.
func dim(v Var) counting.Dim {
	return counting.Dim{Codes: v.Codes, Card: v.Card, Slots: v.Slots}
}

// maxDense bounds the contingency-array size of the dense fast path; larger
// joint domains fall back to hash maps. It is the kernel's bound — the gates
// here and the representations there must key off the same constant.
const maxDense = counting.MaxDense

// Entropy returns the Shannon entropy H(X) in bits over complete cases,
// optionally weighted. Returns 0 when no complete cases exist.
func Entropy(x Var, w []float64) float64 {
	v := counting.CountVecOf(dim(x), Weights{W: w})
	h := entropyOf(v.Counts, v.Total)
	v.Release()
	return h
}

// MutualInfo returns I(X; Y) in bits over complete cases.
func MutualInfo(x, y Var, w []float64) float64 {
	return CondMutualInfo(x, y, nil, Weights{W: w})
}

// TallyMutualInfo returns I(X; Y) in bits from a dense pair tally the caller
// holds: MutualInfo's finalize (denseMI with one stratum) for a tally that was
// folded rather than counted over rows, as the entity-level permutation null
// of core does.
func TallyMutualInfo(p *counting.Pair) float64 {
	if p.Total <= 0 {
		return 0
	}
	return denseMI(p.Joint, p.XMargin, p.EMargin, []float64{p.Total}, p.Cx, p.Ce, p.Occupancy(), p.Total)
}

// TallyCondMutualInfo returns I(X; Y | Z) in bits from a dense three-way
// tally the caller holds, and releases it: CondMutualInfo's finalize (the
// denseMI walk over the tally's occupancy) for a tally that was folded rather
// than counted over rows (counting.SlotCube.Fold).
func TallyCondMutualInfo(t *counting.XYZ) float64 {
	defer t.Release()
	if t.WeightSum <= 0 {
		return 0
	}
	return denseMI(t.Joint, t.ZX, t.ZY, t.Z, t.Cx, t.Cy, t.Occupancy(), t.WeightSum)
}

// TallyCondMutualInfoDebiased is CondMutualInfoDebiasedRows's finalize for an
// unweighted three-way tally that was folded rather than counted over a row
// list (counting.SlotCube.FoldSlots), and releases it: equal tallies give
// math.Float64bits-equal results.
func TallyCondMutualInfoDebiased(t *counting.XYZ) float64 {
	return debiasedMI(xyzStats(t, false), true)
}

// CondMutualInfo returns I(X; Y | G1, ..., Gk) in bits over rows where x, y
// and every conditioning variable are present. It returns 0 when no complete
// cases exist. Negative values arising from floating-point error are clamped
// to 0. The weights may be in either form.
func CondMutualInfo(x, y Var, given []Var, w Weights) float64 {
	return cmiOf(x, y, given, w, false).mi
}

// CondMutualInfoDebiased returns the plug-in CMI minus its expected value
// under the independence null (Miller–Madow style: the 2N·ln2·CMI statistic
// is asymptotically χ² with (|X|−1)(|Y|−1)|Z| degrees of freedom, so the
// null expectation of CMI is df / (2·N_eff·ln2)), clamped at 0. This is the
// quantity the conditional-independence tests threshold — the raw plug-in
// estimate has a positive bias that grows with the number of conditioning
// strata and would otherwise drown small thresholds.
func CondMutualInfoDebiased(x, y Var, given []Var, w []float64) float64 {
	return debiasedMI(cmiOf(x, y, given, Weights{W: w}, false), w != nil)
}

// CondMutualInfoDebiasedRows is CondMutualInfoDebiased restricted to the
// listed rows (ascending), at the cost of the list and the cells it fills
// rather than the table and the domain: it tallies through
// counting.CountXYZRowsOf and finalizes like the full pass under a weight
// vector that is w on the list and 0 off it, walking only the occupied
// strata and (z, y) pairs. On the dense path the result is
// math.Float64bits-equal to that masked pass. N_eff is always the Kish form,
// as it is under a mask: with unit weights Σw²=Σw=k and k·k/k is exactly k.
func CondMutualInfoDebiasedRows(x, y Var, given []Var, w []float64, rows []int32) float64 {
	cx, cy := x.Card, y.Card
	if cx == 0 || cy == 0 {
		return 0
	}
	z := strata(given, x.Len())
	t := counting.CountXYZRowsOf(dim(x), dim(y), z, Weights{W: w}, rows)
	return debiasedMI(xyzStats(&t, false), true)
}

func debiasedMI(s cmiStats, weighted bool) float64 {
	if s.weightSum <= 0 {
		return 0
	}
	neff := s.weightSum
	if weighted && s.weightSqSum > 0 {
		neff = s.weightSum * s.weightSum / s.weightSqSum // Kish effective N
	}
	df := float64(max(s.nx-1, 0)) * float64(max(s.ny-1, 0)) * float64(max(s.nz, 1))
	v := s.mi - df/(2*neff*math.Ln2)
	if v < 0 {
		v = 0
	}
	return v
}

// cmiStats carries the plug-in estimate plus the observed support sizes
// needed for bias correction and the conditional entropies needed by the
// normalized independence tests — all from one counting pass.
type cmiStats struct {
	mi          float64
	hx, hy      float64 // H(X|Z), H(Y|Z) over the same complete cases
	weightSum   float64
	weightSqSum float64
	nx, ny, nz  int // observed distinct x codes, y codes, z strata
}

// cmi returns every statistic of I(X;Y|given), the conditional entropies the
// normalized independence tests read included.
func cmi(x, y Var, given []Var, w Weights) cmiStats {
	return cmiOf(x, y, given, w, true)
}

// cmiOf is cmi; without entropies a dense tally's hx and hy are left 0, which
// the estimators that read only mi, the weight sums and the supports never
// look at.
func cmiOf(x, y Var, given []Var, w Weights, entropies bool) cmiStats {
	z := strata(given, x.Len())
	if x.Card == 0 || y.Card == 0 {
		return cmiStats{}
	}
	t := counting.CountXYZOf(dim(x), dim(y), z, w)
	return xyzStats(&t, entropies)
}

// strata is the conditioning set as one kernel column: the constant column
// of the single stratum, the one variable in its own form, or the composite
// ids of a larger set (DenseIDs, read through any row→slot maps) — under
// MaxDense as a composite column whose product ids the tally computes a run
// at a time (counting.Product), past it as the first-seen id vector.
func strata(given []Var, n int) counting.Dim {
	switch len(given) {
	case 0:
		return counting.Dim{Card: 1}
	case 1:
		z := dim(given[0])
		z.Card = max(z.Card, 1)
		return z
	}
	dims := make([]counting.Dim, len(given))
	for i, g := range given {
		dims[i] = dim(g)
	}
	if z, ok := counting.Product(dims); ok {
		return z
	}
	ids, card := counting.IDs(dims, n)
	return counting.Dim{Codes: ids, Card: card}
}

// xyzStats finalizes and releases a tally, a dense one's conditional
// entropies only when entropies is set.
func xyzStats(t *counting.XYZ, entropies bool) cmiStats {
	if !t.Dense {
		return cmiSparseStats(t)
	}
	defer t.Release()
	if entropies {
		return cmiDenseStats(t.Joint, t.ZX, t.ZY, t.Z, t.Cx, t.Cy, t.Occupancy(), t.WeightSum, t.WeightSqSum)
	}
	return denseMIStats(t.Joint, t.ZX, t.ZY, t.Z, t.Cx, t.Cy, t.Occupancy(), t.WeightSum, t.WeightSqSum)
}

// cmiDenseStats is the one dense finalize: every plug-in statistic read off a
// dense contingency tally goes through it. The tally is laid out
// joint[(z·cx+x)·cy+y] with margins zx[z·cx+x], zy[z·cy+y] and z[z] (one
// stratum for a marginal test) — counting.XYZ's buffers, and equally the
// (JointT, TO, TE, TM) and (OE, OM, EM, {WS2}) tallies of counting.Screen.
// It visits only the occupied strata and (z, y) pairs that occ lists, in
// ascending (z, x, y) order: a cell outside them is +0, which the walk over
// the whole domain would skip, so every term is added in that walk's order
// and mi, hx, hy and the support sizes are math.Float64bits-equal to it
// (TestTouchedFinalizeMatchesFullWalk holds them to the full walk, kept as
// the oracle in a test file). The support sizes are read off the margins:
// weights are never negative, so a code has a positive margin cell exactly
// where denseMI's walk meets it.
func cmiDenseStats(joint, zx, zy, z []float64, cx, cy int, occ *counting.Occupancy, weightSum, weightSqSum float64) cmiStats {
	s := denseMIStats(joint, zx, zy, z, cx, cy, occ, weightSum, weightSqSum)
	if weightSum > 0 {
		s.hx, s.hy = denseCondEntropies(zx, zy, z, cx, cy, occ, weightSum)
	}
	return s
}

// denseMIStats is cmiDenseStats without the conditional entropies: mi, the
// weight sums and the support sizes, all that CondMutualInfo and the debiased
// estimators read.
func denseMIStats(joint, zx, zy, z []float64, cx, cy int, occ *counting.Occupancy, weightSum, weightSqSum float64) cmiStats {
	if weightSum <= 0 {
		return cmiStats{}
	}
	s := cmiStats{
		mi:        denseMI(joint, zx, zy, z, cx, cy, occ, weightSum),
		weightSum: weightSum, weightSqSum: weightSqSum,
	}
	s.nx, s.ny, s.nz = denseSupport(zx, zy, z, cx, cy, occ)
	return s
}

// denseMI is the (z, x, y) walk over the occupied cells: I(X;Y|Z) in bits,
// clamped at 0. Loop order (z outer, then x, then y) is the float-add
// sequence every bit-identity pin in this package rests on.
func denseMI(joint, zx, zy, z []float64, cx, cy int, occ *counting.Occupancy, total float64) float64 {
	mi := 0.0
	for i, zc := range occ.Strata {
		zi := int(zc)
		pz := z[zi]
		if pz <= 0 {
			continue
		}
		ys, zyRow := occ.Ys(i), zy[zi*cy:(zi+1)*cy]
		for xc, pzx := range zx[zi*cx : (zi+1)*cx] {
			if pzx <= 0 {
				continue
			}
			row := joint[(zi*cx+xc)*cy : (zi*cx+xc+1)*cy]
			for _, yc := range ys {
				pj := row[yc]
				if pj <= 0 {
					continue
				}
				mi += pj / total * math.Log2(pz*pj/(pzx*zyRow[yc]))
			}
		}
	}
	if mi < 0 {
		mi = 0
	}
	return mi
}

// denseCondEntropies computes H(X|Z) and H(Y|Z), each −Σ p(z,v) log2 p(v|z)
// from its margin zv[z·card+v], z outer, over the occupied strata.
func denseCondEntropies(zx, zy, z []float64, cx, cy int, occ *counting.Occupancy, total float64) (hx, hy float64) {
	for i, zc := range occ.Strata {
		zi := int(zc)
		pz := z[zi]
		if pz <= 0 {
			continue
		}
		for _, pzx := range zx[zi*cx : (zi+1)*cx] {
			if pzx > 0 {
				hx -= pzx / total * math.Log2(pzx/pz)
			}
		}
		for _, yc := range occ.Ys(i) {
			if pzy := zy[zi*cy+int(yc)]; pzy > 0 {
				hy -= pzy / total * math.Log2(pzy/pz)
			}
		}
	}
	return hx, hy
}

// denseSupport counts the x codes and the y codes with a positive margin cell
// in some occupied stratum, and the strata of positive weight. An x code is
// looked up stratum by stratum until one holds it — x is the outcome, a
// handful of codes, each met in the first strata. The y codes are read off
// the occupied (z, y) pairs, stratum by stratum, each marked once, until
// every code is met: a tally whose strata hold few of the y codes (a lattice
// node's) costs its pairs, not |Y|·|Z|, and one whose first strata hold
// them all (a full table's) costs those strata.
func denseSupport(zx, zy, z []float64, cx, cy int, occ *counting.Occupancy) (nx, ny, nz int) {
	for xc := 0; xc < cx; xc++ {
		for _, zi := range occ.Strata {
			if zx[int(zi)*cx+xc] > 0 {
				nx++
				break
			}
		}
	}
	for _, zi := range occ.Strata {
		if z[zi] > 0 {
			nz++
		}
	}
	var small [8]uint64 // a mark per y code, up to 512 codes without allocating
	seen := small[:]
	if words := (cy + 63) / 64; words > len(seen) {
		seen = make([]uint64, words)
	}
	for i, zc := range occ.Strata {
		if ny == cy {
			break
		}
		row := zy[int(zc)*cy : (int(zc)+1)*cy]
		for _, yc := range occ.Ys(i) {
			if bit := uint64(1) << (yc & 63); row[yc] > 0 && seen[yc>>6]&bit == 0 {
				seen[yc>>6] |= bit
				ny++
			}
		}
	}
	return nx, ny, nz
}

// supportSize counts the codes v with a positive cell zv[z·card+v] in some
// stratum.
func supportSize(zv []float64, card int) (n int) {
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

// cmiSparseStats finalizes the hash-map fallback tally. Unlike the
// pre-kernel estimator, which summed in Go's randomized map-range order (the
// result varied in the last few ULPs from run to run), the finalize iterates
// sorted keys: the sparse path is now deterministic for fixed input, at a
// sort cost negligible next to the map tally itself.
func cmiSparseStats(t *counting.XYZ) cmiStats {
	s := cmiStats{weightSum: t.WeightSum, weightSqSum: t.WeightSqSum}
	if s.weightSum <= 0 {
		return cmiStats{}
	}
	cells := make([]counting.Cell, 0, len(t.MJoint))
	for k := range t.MJoint {
		cells = append(cells, k)
	}
	sort.Slice(cells, func(i, j int) bool {
		a, b := cells[i], cells[j]
		if a.Z != b.Z {
			return a.Z < b.Z
		}
		if a.X != b.X {
			return a.X < b.X
		}
		return a.Y < b.Y
	})
	mi := 0.0
	for _, k := range cells {
		pj := t.MJoint[k]
		mi += pj / s.weightSum * math.Log2(t.MZ[k.Z]*pj/(t.MZX[[2]int32{k.Z, k.X}]*t.MZY[[2]int32{k.Z, k.Y}]))
	}
	if mi < 0 {
		mi = 0
	}
	s.mi = mi
	s.nx, s.ny, s.nz = len(t.XSeen), len(t.YSeen), len(t.MZ)
	s.hx = sparseCondEntropy(t.MZX, t.MZ, s.weightSum)
	s.hy = sparseCondEntropy(t.MZY, t.MZ, s.weightSum)
	return s
}

// sparseCondEntropy computes H(V|Z) = -Σ p(z,v) log2 p(v|z) from a sparse
// (z, v) margin, iterating keys in sorted order for determinism.
func sparseCondEntropy(zv map[[2]int32]float64, z map[int32]float64, total float64) float64 {
	keys := make([][2]int32, 0, len(zv))
	for k := range zv {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	h := 0.0
	for _, k := range keys {
		p := zv[k]
		h -= p / total * math.Log2(p/z[k[0]])
	}
	return h
}

// DenseIDs maps each row to a dense id identifying the combination of codes
// of the given variables (-1 when any is missing), and returns the number of
// distinct ids. With no variables every row maps to id 0. This is the
// kernel's composite coding (counting.IDs) over the variables' code columns,
// each read in its own form.
func DenseIDs(given []Var, n int) (ids []int32, card int) {
	dims := make([]counting.Dim, len(given))
	for i, g := range given {
		dims[i] = dim(g)
	}
	return counting.IDs(dims, n)
}

// entropyOf computes -Σ p log2 p from weighted counts.
func entropyOf(counts []float64, total float64) float64 {
	if total <= 0 {
		return 0
	}
	h := 0.0
	for _, c := range counts {
		if c > 0 {
			p := c / total
			h -= p * math.Log2(p)
		}
	}
	return h
}

// CondIndependent reports whether X ⊥ Y | G at the given threshold. It
// thresholds the bias-corrected CMI normalized by min(H(X|G), H(Y|G)) — the
// efficient CI test used as the responsibility test (Lemma 4.2) and for
// pruning. The weights may be in either form.
func CondIndependent(x, y Var, given []Var, w Weights, threshold float64) bool {
	return condIndependentStats(cmi(x, y, given, w), w.W != nil, threshold)
}

// condIndependentStats is the verdict half of CondIndependent, shared with
// the fused online-prune screen so both paths threshold identically.
func condIndependentStats(s cmiStats, weighted bool, threshold float64) bool {
	d := debiasedMI(s, weighted)
	if d == 0 {
		return true
	}
	m := math.Min(s.hx, s.hy)
	if m <= 0 {
		return false // fully determined pair cannot be independent
	}
	return d/m < threshold
}
