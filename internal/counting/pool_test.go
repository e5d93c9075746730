package counting

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// checkOccupancy holds a dense tally's occupancy to its buffers: the listed
// strata are exactly those with Z ≠ 0, the listed y codes of each exactly its
// ZY cells ≠ 0, both ascending, and every Z, ZX, ZY and Joint cell outside
// them is +0 bit for bit — so a walk over the listed cells adds every term a
// walk over the whole domain adds, in the same order.
func checkOccupancy(t testing.TB, what string, d XYZ) {
	t.Helper()
	o := d.Occupancy()
	cx, cy := d.Cx, d.Cy
	listed := make([]bool, len(d.Z))
	pairs := make([]bool, len(d.ZY))
	for i, z := range o.Strata {
		if i > 0 && z <= o.Strata[i-1] || d.Z[z] == 0 {
			t.Fatalf("%s: stratum %d listed out of order or with Z = 0 (%v)", what, z, o.Strata)
		}
		listed[z] = true
		ys := o.Ys(i)
		for j, y := range ys {
			if j > 0 && y <= ys[j-1] || d.ZY[int(z)*cy+int(y)] == 0 {
				t.Fatalf("%s: pair (%d, %d) listed out of order or with ZY = 0 (%v)", what, z, y, ys)
			}
			pairs[int(z)*cy+int(y)] = true
		}
	}
	zero := func(v float64) bool { return math.Float64bits(v) == 0 }
	for z := range d.Z {
		if !listed[z] && !zero(d.Z[z]) {
			t.Fatalf("%s: Z[%d] = %v is not listed", what, z, d.Z[z])
		}
		for x := range cx {
			if !listed[z] && !zero(d.ZX[z*cx+x]) {
				t.Fatalf("%s: ZX[%d, %d] = %v lies in an unlisted stratum", what, z, x, d.ZX[z*cx+x])
			}
		}
		for y := range cy {
			if !pairs[z*cy+y] && !zero(d.ZY[z*cy+y]) {
				t.Fatalf("%s: ZY[%d, %d] = %v is not listed", what, z, y, d.ZY[z*cy+y])
			}
			for x := range cx {
				if v := d.Joint[(z*cx+x)*cy+y]; !pairs[z*cy+y] && !zero(v) {
					t.Fatalf("%s: Joint[%d, %d, %d] = %v lies outside the listed pairs", what, z, x, y, v)
				}
			}
		}
	}
}

// checkPoolZero takes a few buffers from the pool and fails unless each is
// +0 over its whole capacity, then puts them back: grab hands them out as
// they are.
func checkPoolZero(t testing.TB, after string) {
	t.Helper()
	var held []*scratch
	defer func() {
		for _, sc := range held {
			pool.Put(sc)
		}
	}()
	for range 3 {
		sc := pool.Get().(*scratch)
		held = append(held, sc)
		for i, v := range sc.buf[:cap(sc.buf)] {
			if math.Float64bits(v) != 0 {
				t.Fatalf("after %s: a pooled buffer of %d cells holds %v at %d", after, cap(sc.buf), v, i)
			}
		}
	}
}

// shapeInput draws n rows of x, y and z codes (about one in ten missing) and
// weights: nil, dyadic with zeros, or with a NaN and an Inf among them.
func shapeInput(r *rand.Rand, n, cx, cy, zc int, weights string) (x, y, z Dim, w Weights) {
	code := func(card int) []int32 {
		c := make([]int32, n)
		for i := range c {
			c[i] = int32(r.Intn(card))
			if r.Intn(10) == 0 {
				c[i] = Missing
			}
		}
		return c
	}
	x, y, z = Dim{Codes: code(cx), Card: cx}, Dim{Codes: code(cy), Card: cy}, Dim{Codes: code(zc), Card: zc}
	switch weights {
	case "zeros":
		w.W = make([]float64, n)
		for i := range w.W {
			w.W[i] = 0.25 * float64(r.Intn(8))
		}
	case "nan":
		w.W = make([]float64, n)
		for i := range w.W {
			w.W[i] = 1 + r.Float64()
		}
		w.W[r.Intn(n)] = math.NaN()
		w.W[r.Intn(n)] = math.Inf(1)
	}
	return x, y, z, w
}

// TestReleasedBuffersAreZero pins the pool's invariant across a sequence of
// passes of mixed shapes — three-way tallies much wider than their rows (the
// occupied cells zeroed one by one) and much narrower (the whole buffer
// cleared), over all rows and over a row list, with zero, NaN and infinite
// weights; screens, folds, pairs and one-axis tallies — each released into a
// buffer another shape used before: every buffer in the pool is all zero
// after each Release.
func TestReleasedBuffersAreZero(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	var list []int32
	for i := 0; i < 3000; i += 1 + r.Intn(20) {
		list = append(list, int32(i))
	}
	for rep := 0; rep < 3; rep++ {
		for _, c := range []struct {
			name          string
			n, cx, cy, zc int
			weights       string
			rows          bool
		}{
			{"wide", 60, 8, 40, 300, "zeros", false},
			{"narrow", 5000, 3, 4, 5, "", false},
			{"wide, NaN weights", 80, 6, 30, 200, "nan", false},
			{"row list", 3000, 8, 50, 60, "zeros", true},
			{"narrow, NaN weights", 4000, 2, 3, 2, "nan", false},
			{"row list, NaN weights", 3000, 5, 20, 40, "nan", true},
		} {
			x, y, z, w := shapeInput(r, c.n, c.cx, c.cy, c.zc, c.weights)
			var d XYZ
			if c.rows {
				d = CountXYZRowsOf(x, y, z, w, list)
			} else {
				d = CountXYZOf(x, y, z, w)
			}
			checkOccupancy(t, c.name, d)
			d.Release()
			checkPoolZero(t, c.name)

			s := CountScreenOf(x, z, y, w)
			s.CondOccupancy()
			s.MarginalOccupancy()
			s.Release()
			checkPoolZero(t, c.name+" screen")

			slots := z.Codes
			cube, pair := screenCubes(slots, x, y)
			codes := make([]int32, c.zc)
			for i := range codes {
				codes[i] = int32(r.Intn(7))
			}
			cube.Screen(pair, codes, 7).Release()
			p := pair.Pair(codes, 7)
			p.Occupancy()
			p.Release()
			checkPoolZero(t, c.name+" fold")

			v := CountVecOf(z, w)
			v.Release()
			checkPoolZero(t, c.name+" vector")
		}
	}
}

// TestParallelPassesStartFromZero runs mixed passes from several goroutines
// sharing the pool, each tally checked cell for cell against a tally of its
// own fresh buffers: a buffer handed out dirty, or zeroed while another
// worker holds it, shows as a cell that differs.
func TestParallelPassesStartFromZero(t *testing.T) {
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for range 40 {
				n := 20 + r.Intn(2000)
				cx, cy, zc := 1+r.Intn(8), 1+r.Intn(40), 1+r.Intn(300)
				x, y, z, w := shapeInput(r, n, cx, cy, zc, []string{"", "zeros"}[r.Intn(2)])
				d := CountXYZOf(x, y, z, w)
				want := make([]float64, zc*cx*cy)
				for i := range n {
					if xc, yc, zi := x.Codes[i], y.Codes[i], z.Codes[i]; xc >= 0 && yc >= 0 && zi >= 0 {
						want[(int(zi)*cx+int(xc))*cy+int(yc)] += weightAt(w.W, i)
					}
				}
				for i, v := range want {
					if d.Joint[i] != v {
						t.Errorf("cards (%d, %d, %d): Joint[%d] = %v, a fresh tally has %v", zc, cx, cy, i, d.Joint[i], v)
						break
					}
				}
				d.Release()
				v := CountVecOf(z, w)
				for zi := range zc {
					want := 0.0
					for i, c := range z.Codes {
						if int(c) == zi {
							want += weightAt(w.W, i)
						}
					}
					if v.Counts[zi] != want {
						t.Errorf("card %d: Counts[%d] = %v, a fresh tally has %v", zc, zi, v.Counts[zi], want)
						break
					}
				}
				v.Release()
			}
		}(int64(g))
	}
	wg.Wait()
}
