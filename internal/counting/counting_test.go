package counting

import (
	"math"
	"math/rand"
	"testing"
)

func TestCountVecBasic(t *testing.T) {
	codes := []int32{0, 1, Missing, 1, 2}
	v := CountVec(codes, 3, nil)
	defer v.Release()
	want := []float64{1, 2, 1}
	for c, n := range want {
		if v.Counts[c] != n {
			t.Fatalf("Counts[%d] = %v, want %v", c, v.Counts[c], n)
		}
	}
	if v.Total != 4 {
		t.Fatalf("Total = %v, want 4", v.Total)
	}
}

func TestCountVecWeighted(t *testing.T) {
	codes := []int32{0, 0, 1}
	v := CountVec(codes, 2, []float64{0.5, 1.5, 2})
	defer v.Release()
	if v.Counts[0] != 2 || v.Counts[1] != 2 || v.Total != 4 {
		t.Fatalf("got %v total %v", v.Counts, v.Total)
	}
}

// TestPoolReuseZeroed pins that a recycled scratch buffer is fully zeroed:
// a large pass followed by a smaller one must not see stale counts.
func TestPoolReuseZeroed(t *testing.T) {
	big := make([]int32, 100)
	for i := range big {
		big[i] = int32(i % 50)
	}
	v := CountVec(big, 50, nil)
	v.Release()
	v2 := CountVec([]int32{Missing, Missing}, 50, nil)
	defer v2.Release()
	for c, n := range v2.Counts {
		if n != 0 {
			t.Fatalf("recycled buffer not zeroed: Counts[%d] = %v", c, n)
		}
	}
	if v2.Total != 0 {
		t.Fatalf("Total = %v, want 0", v2.Total)
	}
}

func TestCountPairMargins(t *testing.T) {
	x := []int32{0, 0, 1, Missing, 1}
	e := []int32{0, 1, 1, 0, Missing}
	p := CountPair(x, e, 2, 2, nil)
	defer p.Release()
	if p.Total != 3 {
		t.Fatalf("Total = %v, want 3 (two rows have a missing side)", p.Total)
	}
	if p.Joint[0*2+0] != 1 || p.Joint[0*2+1] != 1 || p.Joint[1*2+1] != 1 {
		t.Fatalf("Joint = %v", p.Joint)
	}
	if p.EMargin[0] != 1 || p.EMargin[1] != 2 {
		t.Fatalf("EMargin = %v", p.EMargin)
	}
}

func TestIDsProductAndFallback(t *testing.T) {
	n := 4
	a := Dim{Codes: []int32{0, 1, 0, Missing}, Card: 2}
	b := Dim{Codes: []int32{0, 0, 2, 1}, Card: 3}
	ids, card := IDs([]Dim{a, b}, n)
	if card != 6 {
		t.Fatalf("card = %d, want 6", card)
	}
	want := []int32{0, 3, 2, -1}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids = %v, want %v", ids, want)
		}
	}
	// Zero-card dimension forces the first-seen fallback.
	ids2, card2 := IDs([]Dim{a, {Codes: b.Codes, Card: 0}}, n)
	if card2 != 3 {
		t.Fatalf("fallback card = %d, want 3 observed combos", card2)
	}
	want2 := []int32{0, 1, 2, -1}
	for i := range want2 {
		if ids2[i] != want2[i] {
			t.Fatalf("fallback ids = %v, want %v", ids2, want2)
		}
	}
}

func TestIDsSingleAliases(t *testing.T) {
	codes := []int32{2, 0, 1}
	ids, card := IDs([]Dim{{Codes: codes, Card: 3}}, 3)
	if &ids[0] != &codes[0] {
		t.Fatal("single-dimension IDs should alias the code column, not copy")
	}
	if card != 3 {
		t.Fatalf("card = %d", card)
	}
}

func TestGroupRowsTwoPass(t *testing.T) {
	ids := []int32{1, 0, 1, -1, 0, 2}
	rowsets := GroupRows(ids, 3)
	want := [][]int{{1, 4}, {0, 2}, {5}}
	for g := range want {
		if len(rowsets[g]) != len(want[g]) {
			t.Fatalf("group %d = %v, want %v", g, rowsets[g], want[g])
		}
		for i := range want[g] {
			if rowsets[g][i] != want[g][i] {
				t.Fatalf("group %d = %v, want %v", g, rowsets[g], want[g])
			}
		}
	}
}

func TestCountXYZDenseSparseAgree(t *testing.T) {
	// The two representations must tally identical cell values; force the
	// sparse path with an over-MaxDense zcard and compare cell by cell
	// against the dense tally of the same data under a small zcard.
	r := rand.New(rand.NewSource(5))
	n := 400
	x := make([]int32, n)
	y := make([]int32, n)
	z := make([]int32, n)
	w := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = int32(r.Intn(4))
		y[i] = int32(r.Intn(3))
		z[i] = int32(r.Intn(5))
		w[i] = r.Float64()
		if r.Intn(10) == 0 {
			x[i] = Missing
		}
	}
	d := CountXYZ(x, y, 4, 3, z, 5, w)
	defer d.Release()
	if !d.Dense {
		t.Fatal("expected dense representation")
	}
	s := countXYZSparse(x, y, 4, 3, z, 5, w)
	if math.Abs(d.WeightSum-s.WeightSum) > 1e-12 || math.Abs(d.WeightSqSum-s.WeightSqSum) > 1e-12 {
		t.Fatalf("weight sums differ: dense (%v, %v) sparse (%v, %v)", d.WeightSum, d.WeightSqSum, s.WeightSum, s.WeightSqSum)
	}
	for cell, wv := range s.MJoint {
		dv := d.Joint[(int(cell.Z)*4+int(cell.X))*3+int(cell.Y)]
		if math.Abs(dv-wv) > 1e-12 {
			t.Fatalf("cell %+v: dense %v sparse %v", cell, dv, wv)
		}
	}
	for zi := 0; zi < 5; zi++ {
		if math.Abs(d.Z[zi]-s.MZ[int32(zi)]) > 1e-12 {
			t.Fatalf("Z[%d]: dense %v sparse %v", zi, d.Z[zi], s.MZ[int32(zi)])
		}
	}
}

func TestCountScreenGate(t *testing.T) {
	if s := CountScreen(nil, nil, nil, 0, 2, 2, nil); s != nil {
		t.Fatal("degenerate card must return nil")
	}
	// ce*co over the bound.
	if s := CountScreen(nil, nil, nil, 1<<12, 2, 1<<12, nil); s != nil {
		t.Fatal("ce*co > MaxDense must return nil")
	}
}

func TestCountersAdvance(t *testing.T) {
	base := Stats()
	v := CountVec([]int32{0, 1}, 2, nil)
	v.Release()
	GroupRows([]int32{0, 1}, 2)
	IDs([]Dim{{Codes: []int32{0}, Card: 1}, {Codes: []int32{0}, Card: 1}}, 1)
	d := Stats().Delta(base)
	if d.DensePasses < 1 || d.Partitions < 1 || d.IDJoins < 1 {
		t.Fatalf("counter delta = %+v", d)
	}
	names := map[string]int64{}
	d.Each(func(name string, v int64) { names[name] = v })
	for _, want := range []string{"counting_dense_passes", "counting_partitions", "counting_id_joins"} {
		if names[want] == 0 {
			t.Fatalf("Each missing %s: %v", want, names)
		}
	}
}

// TestPackedHistogramSelect checks the packed code matrix at each cell width
// against a per-row recount: the fused histogram of every column at once, and
// the ascending row selection a lattice child is carved with.
func TestPackedHistogramSelect(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	const n = 700
	for _, widest := range []int{3, 255, 256, 70000} {
		dims := []Dim{{Card: 2}, {Card: widest}, {Card: 5}}
		for j := range dims {
			dims[j].Codes = make([]int32, n)
			for i := range dims[j].Codes {
				dims[j].Codes[i] = int32(r.Intn(dims[j].Card))
				if i%2 == 0 {
					dims[j].Codes[i] = int32(dims[j].Card - 1) // the top code is always present
				}
				if r.Intn(9) == 0 {
					dims[j].Codes[i] = Missing
				}
			}
		}
		p, err := Pack(dims, n)
		if err != nil {
			t.Fatal(err)
		}
		if got := [3]bool{p.u8 != nil, p.u16 != nil, p.u32 != nil}; got != [3]bool{widest < 256, widest >= 256 && widest < 65536, widest >= 65536} {
			t.Fatalf("widest card %d: cell widths in use (u8, u16, u32) = %v", widest, got)
		}
		var rows []int32
		for i := 0; i < n; i++ {
			if r.Intn(3) > 0 {
				rows = append(rows, int32(i))
			}
		}
		const from = 1
		hist := make([]int32, p.Bins())
		p.Histogram(rows, from, hist)
		for j, d := range dims {
			want := make([]int32, d.Card)
			if j >= from {
				for _, row := range rows {
					if c := d.Codes[row]; c >= 0 {
						want[c]++
					}
				}
			}
			got := p.Column(hist, j)
			if len(got) != d.Card {
				t.Fatalf("column %d: %d bins, want %d", j, len(got), d.Card)
			}
			for c := range want {
				if got[c] != want[c] {
					t.Fatalf("widest %d column %d code %d: histogram %d, recount %d", widest, j, c, got[c], want[c])
				}
			}
			code := int32(d.Card - 1)
			var wantSel []int32
			for _, row := range rows {
				if d.Codes[row] == code {
					wantSel = append(wantSel, row)
				}
			}
			sel := p.Select(rows, j, code, len(wantSel))
			if len(sel) == 0 || len(sel) != len(wantSel) {
				t.Fatalf("widest %d column %d: selected %d rows, want %d (> 0)", widest, j, len(sel), len(wantSel))
			}
			for k := range sel {
				if sel[k] != wantSel[k] {
					t.Fatalf("widest %d column %d: selection differs at %d", widest, j, k)
				}
			}
		}
	}
	if _, err := Pack([]Dim{{Codes: []int32{0, 2}, Card: 2}}, 2); err == nil {
		t.Fatal("a code outside [0, Card) must be rejected")
	}
}
