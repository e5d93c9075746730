package infotheory

import (
	"math/rand"
	"slices"
	"testing"
)

// BenchmarkCondMutualInfoShapes times one CMI finalize-and-release per op in
// the three shapes the pipeline meets, |Z|·|X|·|Y| each:
//
//   - row-bound: 50,000 rows over 5·8·320, nearly every cell filled — the
//     online prune's and MCIMR's tests on a large table;
//   - wide-domain: 188 rows over 50·8·188, most strata empty — a composite
//     conditioning set on a small table (Covid-19);
//   - row-list: 300 listed rows of 5,000 over 60·8·187 — a lattice node of the
//     subgroup search, scored through CondMutualInfoDebiasedRows.
//
// Run with -benchmem: a pass that allocates shows in allocs/op.
func BenchmarkCondMutualInfoShapes(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	shape := func(n, zc, cx, cy int) (x, y, z Var) {
		return codeVar(randCodes(r, n, cx, 20), cx), codeVar(randCodes(r, n, cy, 20), cy), codeVar(randCodes(r, n, zc, 20), zc)
	}
	b.Run("row-bound", func(b *testing.B) {
		x, y, z := shape(50000, 5, 8, 320)
		b.ReportAllocs()
		for range b.N {
			CondMutualInfo(x, y, []Var{z}, Weights{})
		}
	})
	b.Run("wide-domain", func(b *testing.B) {
		x, y, z := shape(188, 50, 8, 188)
		b.ReportAllocs()
		for range b.N {
			CondMutualInfo(x, y, []Var{z}, Weights{})
		}
	})
	b.Run("row-list", func(b *testing.B) {
		x, y, z := shape(5000, 60, 8, 187)
		rows := make([]int32, 5000)
		for i := range rows {
			rows[i] = int32(i)
		}
		r.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		rows = rows[:300]
		slices.Sort(rows)
		b.ReportAllocs()
		for range b.N {
			CondMutualInfoDebiasedRows(x, y, []Var{z}, nil, rows)
		}
	})
}
