package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical draws", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestFloat64Uniformity(t *testing.T) {
	r := NewRNG(99)
	const n = 100000
	var buckets [10]int
	for i := 0; i < n; i++ {
		buckets[int(r.Float64()*10)]++
	}
	for i, c := range buckets {
		frac := float64(c) / n
		if frac < 0.08 || frac > 0.12 {
			t.Errorf("bucket %d has fraction %.4f, want ≈0.1", i, frac)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(3)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(5)
		if v < 0 || v >= 5 {
			t.Fatalf("Intn(5) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Fatalf("Intn(5) only hit %d values", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	r := NewRNG(11)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %.4f, want ≈0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %.4f, want ≈1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	check := func(seed uint64, n uint8) bool {
		m := int(n%50) + 1
		p := NewRNG(seed).Perm(m)
		if len(p) != m {
			return false
		}
		seen := make([]bool, m)
		for _, v := range p {
			if v < 0 || v >= m || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := NewRNG(5)
	c1 := r.Split()
	c2 := r.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("split children produced identical first draws")
	}
}

func TestChoiceRespectsWeights(t *testing.T) {
	r := NewRNG(21)
	counts := [3]int{}
	for i := 0; i < 30000; i++ {
		counts[r.Choice([]float64{1, 2, 7})]++
	}
	if counts[2] < counts[1] || counts[1] < counts[0] {
		t.Fatalf("weighted choice ordering violated: %v", counts)
	}
	frac := float64(counts[2]) / 30000
	if frac < 0.65 || frac > 0.75 {
		t.Errorf("weight-7 choice fraction %.3f, want ≈0.7", frac)
	}
}

func TestChoicePanicsOnZeroWeights(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Choice with zero weights did not panic")
		}
	}()
	NewRNG(1).Choice([]float64{0, 0})
}

func TestShuffleKeepsElements(t *testing.T) {
	r := NewRNG(8)
	xs := []int{1, 2, 3, 4, 5, 6}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	sum := 0
	for _, v := range xs {
		sum += v
	}
	if sum != 21 {
		t.Fatalf("shuffle changed multiset, sum=%d", sum)
	}
}
