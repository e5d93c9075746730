package counting

// FuzzCountParity pins the kernel's two representations to each other and to
// an independent naive tally: for random cards, codes, missing masks and
// weight vectors, the dense-array pass, the hash-map pass and a from-scratch
// per-row map tally must agree cell for cell. Weights are dyadic rationals
// (multiples of 0.25), so every accumulation is exact and the comparison is
// equality, not epsilon — any disagreement is a real counting bug, never
// float noise. A rows-subset mode does the same for the row-list entry point
// (CountXYZRows, dense and map form) against the naive tally of an ascending
// subset the fuzz bytes pick, a slot-cube mode holds the entity-level folds
// (SlotCube.Screen, and SlotCube.Fold with the slot codes joined onto each
// axis of a keyed cube) to the unweighted row pass over the broadcast codes,
// and
// an indirect-form mode holds every pass over slot codes and slot weights
// read through row→slot maps to the same pass over their broadcasts. Every
// dense three-way tally, one with a NaN weight among its rows included, lists
// exactly the strata and (z, y) pairs that hold weight and no cell outside
// them is nonzero (checkOccupancy), and once every tally is released the
// pool holds only zero buffers (checkPoolZero). The seed corpus is checked in
// under testdata/fuzz; CI runs the target as a bounded smoke iteration.

import (
	"math"
	"reflect"
	"testing"
)

// fuzzScenario decodes fuzz bytes into a counting instance: a 4-byte header
// (cards and weightedness) followed by 4 bytes per row.
func fuzzScenario(data []byte) (x, y, z []int32, cx, cy, zc int, w []float64, ok bool) {
	if len(data) < 8 {
		return nil, nil, nil, 0, 0, 0, nil, false
	}
	cx = 1 + int(data[0]%6)
	cy = 1 + int(data[1]%6)
	zc = 1 + int(data[2]%6)
	weighted := data[3]%2 == 1
	rows := data[4:]
	n := len(rows) / 4
	if n > 512 {
		n = 512
	}
	x = make([]int32, n)
	y = make([]int32, n)
	z = make([]int32, n)
	if weighted {
		w = make([]float64, n)
	}
	code := func(b byte, card int) int32 {
		if b%8 == 7 {
			return Missing
		}
		return int32(int(b) % card)
	}
	for i := 0; i < n; i++ {
		x[i] = code(rows[4*i], cx)
		y[i] = code(rows[4*i+1], cy)
		z[i] = code(rows[4*i+2], zc)
		if weighted {
			w[i] = 0.25 * float64(rows[4*i+3]%8)
		}
	}
	return x, y, z, cx, cy, zc, w, true
}

func FuzzCountParity(f *testing.F) {
	f.Add([]byte("\x03\x02\x04\x01" + "abcdefghijklmnopqrstuvwxyz0123456789"))
	f.Add([]byte("\x01\x05\x02\x00" + "ZZZZZZZZ77778888AAAA"))
	f.Add([]byte{5, 5, 5, 1, 7, 7, 7, 7, 0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		x, y, z, cx, cy, zc, w, ok := fuzzScenario(data)
		if !ok {
			t.Skip()
		}
		n := len(x)
		defer checkPoolZero(t, "the fuzz passes") // deferred first: runs once every tally is released

		// Naive oracle: one pass, plain maps, no shared code with the kernel.
		type cell struct{ z, x, y int32 }
		naive := map[cell]float64{}
		naiveZ := map[int32]float64{}
		var naiveTotal float64
		for i := 0; i < n; i++ {
			if x[i] < 0 || y[i] < 0 || z[i] < 0 {
				continue
			}
			wt := 1.0
			if w != nil {
				wt = w[i]
			}
			naive[cell{z[i], x[i], y[i]}] += wt
			naiveZ[z[i]] += wt
			naiveTotal += wt
		}

		// Dense path (cards ≤ 6 keep the domain ≤ 216, well under MaxDense).
		d := CountXYZ(x, y, cx, cy, z, zc, w)
		defer d.Release()
		if !d.Dense {
			t.Fatalf("expected dense path for domain %d", zc*cx*cy)
		}
		checkOccupancy(t, "CountXYZ", d)
		if n > 0 {
			nan := make([]float64, n)
			for i := range nan {
				nan[i] = weightAt(w, i)
			}
			nan[int(data[3])%n] = math.NaN()
			dn := CountXYZ(x, y, cx, cy, z, zc, nan)
			checkOccupancy(t, "CountXYZ with a NaN weight", dn)
			dn.Release()
		}
		// Map path, forced on identical data.
		s := countXYZSparse(x, y, cx, cy, z, zc, w)

		if d.WeightSum != naiveTotal || s.WeightSum != naiveTotal {
			t.Fatalf("weight sums: dense %v map %v naive %v", d.WeightSum, s.WeightSum, naiveTotal)
		}
		for zi := 0; zi < zc; zi++ {
			for xc := 0; xc < cx; xc++ {
				for yc := 0; yc < cy; yc++ {
					dv := d.Joint[(zi*cx+xc)*cy+yc]
					sv := s.MJoint[Cell{int32(zi), int32(xc), int32(yc)}]
					nv := naive[cell{int32(zi), int32(xc), int32(yc)}]
					if dv != sv || dv != nv {
						t.Fatalf("cell (%d,%d,%d): dense %v map %v naive %v", zi, xc, yc, dv, sv, nv)
					}
				}
			}
		}
		for zi := 0; zi < zc; zi++ {
			if d.Z[zi] != naiveZ[int32(zi)] || s.MZ[int32(zi)] != naiveZ[int32(zi)] {
				t.Fatalf("Z[%d]: dense %v map %v naive %v", zi, d.Z[zi], s.MZ[int32(zi)], naiveZ[int32(zi)])
			}
		}

		// Rows-subset mode: the weight byte's high bits pick an ascending row
		// subset; the row-list pass must equal a naive tally of just those
		// rows, cell for cell, in both representations — and must not know
		// about any other row (the map form holds no cell, margin or seen
		// code the subset does not have).
		var rows []int32
		subNaive := map[cell]float64{}
		subX, subY := map[int32]struct{}{}, map[int32]struct{}{}
		var subTotal float64
		for i := 0; i < n; i++ {
			if data[4+4*i+3]>>3%3 == 0 {
				continue
			}
			rows = append(rows, int32(i))
			if x[i] < 0 || y[i] < 0 || z[i] < 0 {
				continue
			}
			wt := 1.0
			if w != nil {
				wt = w[i]
			}
			subNaive[cell{z[i], x[i], y[i]}] += wt
			subX[x[i]], subY[y[i]] = struct{}{}, struct{}{}
			subTotal += wt
		}
		rd := CountXYZRows(x, y, cx, cy, z, zc, w, rows)
		defer rd.Release()
		// zcard·cx·cy > MaxDense routes the same rows to the map form; the
		// cells are keyed by code, so the inflated zcard changes nothing else.
		rs := CountXYZRows(x, y, cx, cy, z, MaxDense+1, w, rows)
		if !rd.Dense || rs.Dense {
			t.Fatalf("row-list representations: dense %v, forced-sparse dense %v", rd.Dense, rs.Dense)
		}
		checkOccupancy(t, "CountXYZRows", rd)
		if rd.WeightSum != subTotal || rs.WeightSum != subTotal {
			t.Fatalf("subset weight sums: dense %v map %v naive %v", rd.WeightSum, rs.WeightSum, subTotal)
		}
		for zi := 0; zi < zc; zi++ {
			for xc := 0; xc < cx; xc++ {
				for yc := 0; yc < cy; yc++ {
					dv := rd.Joint[(zi*cx+xc)*cy+yc]
					sv := rs.MJoint[Cell{int32(zi), int32(xc), int32(yc)}]
					nv := subNaive[cell{int32(zi), int32(xc), int32(yc)}]
					if dv != sv || dv != nv {
						t.Fatalf("subset cell (%d,%d,%d): dense %v map %v naive %v", zi, xc, yc, dv, sv, nv)
					}
				}
			}
		}
		if len(rs.MJoint) != len(subNaive) || len(rs.XSeen) != len(subX) || len(rs.YSeen) != len(subY) {
			t.Fatalf("subset map form holds %d cells, %d x codes, %d y codes; the subset has %d, %d, %d",
				len(rs.MJoint), len(rs.XSeen), len(rs.YSeen), len(subNaive), len(subX), len(subY))
		}

		// The one-axis pass must agree with the three-axis z margin when fed
		// the rows the three-axis pass counted.
		masked := make([]int32, n)
		for i := range masked {
			if x[i] < 0 || y[i] < 0 {
				masked[i] = Missing
			} else {
				masked[i] = z[i]
			}
		}
		v := CountVec(masked, zc, w)
		defer v.Release()
		for zi := 0; zi < zc; zi++ {
			if v.Counts[zi] != naiveZ[int32(zi)] {
				t.Fatalf("CountVec[%d] = %v, naive %v", zi, v.Counts[zi], naiveZ[int32(zi)])
			}
		}

		// Slot-cube mode: z is a row→slot map (a missing z is an unresolved
		// row), x the outcome, y the exposure, and the row bytes' spare bits
		// give each slot a code; the fold must be the unweighted row pass
		// over the broadcast codes, buffer for buffer.
		ce := int(data[3]>>1) % 7
		codes := make([]int32, zc)
		for s := range codes {
			codes[s] = Missing
			if b := data[4+(s%n)*4+3] >> 5; ce > 0 && b != 7 {
				codes[s] = int32(int(b) % ce)
			}
		}
		checkFoldIsRowPass(t, z, x, y, codes, cx, cy, ce)

		// Keyed-cube mode: the same slot map keyed by x, y and the weight byte's
		// low bits as a third part (one part absent, as the fuzz bytes say),
		// the slot codes joined onto each axis in turn; every fold must be the
		// unweighted row pass over the broadcast codes, with the joined axis
		// read as product ids.
		third := make([]int32, n)
		for i := range third {
			third[i] = Missing
			if b := data[4+4*i+3]; b%5 != 4 {
				third[i] = int32(b % 3)
			}
		}
		parts := [3]Dim{{Codes: third, Card: 3}, {Codes: x, Card: cx}, {Codes: y, Card: cy}}
		if drop := int(data[0]>>3) % 4; drop < 3 {
			parts[drop] = Dim{}
		}
		checkKeyedFold(t, z, parts, codes, ce)

		checkIndirectIsBroadcast(t, data[4:], x, y, z, cx, cy, zc, w)
	})
}

// checkIndirectIsBroadcast is the indirect-form mode: x and z are re-read as
// one code per slot under two row→slot maps the row bytes pick (slot -1 an
// unresolved row), w as one weight per slot under a third map — so a row
// without a weight slot may still be counted, with weight 0 — and y stays
// direct;
// every pass over these inputs must equal, cell for cell, the same pass over
// their broadcasts — dense and past MaxDense, over all rows and a row list,
// and for the composite ids.
func checkIndirectIsBroadcast(t *testing.T, rows []byte, x, y, z []int32, cx, cy, zc int, w []float64) {
	n := len(x)
	slotsX, slotsZ, slotsW := make([]int32, n), make([]int32, n), make([]int32, n)
	var list []int32
	for i := range slotsX {
		slotsX[i] = int32((7*i+int(rows[4*i]))%(n+1)) - 1
		slotsZ[i] = int32((int(rows[4*i+1])+3*int(rows[4*i+2]))%(n+1)) - 1
		slotsW[i] = int32((5*i+int(rows[4*i+3]))%(n+1)) - 1
		if rows[4*i+3]&1 == 0 {
			list = append(list, int32(i))
		}
	}
	xi, yd, zi := Dim{Codes: x, Card: cx, Slots: slotsX}, Dim{Codes: y, Card: cy}, Dim{Codes: z, Card: zc, Slots: slotsZ}
	wi := Weights{W: w, Slots: slotsW}
	bx, bz, bw := broadcast(x, slotsX), broadcast(z, slotsZ), wi.Rows()

	same := func(what string, got, want XYZ) {
		t.Helper()
		g, w := got, want
		g.sc, w.sc = nil, nil
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: indirect tally differs from the broadcast one\nindirect  %+v\nbroadcast %+v", what, g, w)
		}
		got.Release()
		want.Release()
	}
	same("CountXYZ dense", CountXYZOf(xi, yd, zi, wi), CountXYZ(bx, y, cx, cy, bz, zc, bw))
	same("CountXYZ past MaxDense", CountXYZOf(xi, yd, Dim{Codes: z, Card: MaxDense + 1, Slots: slotsZ}, wi),
		CountXYZ(bx, y, cx, cy, bz, MaxDense+1, bw))
	same("CountXYZ constant z", CountXYZOf(xi, yd, Dim{Card: 1}, wi), CountXYZ(bx, y, cx, cy, make([]int32, n), 1, bw))
	same("CountXYZRows dense", CountXYZRowsOf(xi, yd, zi, wi, list), CountXYZRows(bx, y, cx, cy, bz, zc, bw, list))
	same("CountXYZRows past MaxDense", CountXYZRowsOf(xi, yd, Dim{Codes: z, Card: MaxDense + 1, Slots: slotsZ}, wi, list),
		CountXYZRows(bx, y, cx, cy, bz, MaxDense+1, bw, list))

	gs, ws := CountScreenOf(yd, Dim{Codes: bz, Card: zc}, xi, wi), CountScreen(y, bz, bx, cy, zc, cx, bw)
	g, ws2 := *gs, *ws
	g.sc, ws2.sc = nil, nil
	if !reflect.DeepEqual(g, ws2) {
		t.Fatalf("CountScreen: indirect screen differs from the broadcast one\nindirect  %+v\nbroadcast %+v", g, ws2)
	}
	gs.Release()
	ws.Release()

	gv, wv := CountVecOf(xi, wi), CountVec(bx, cx, bw)
	if gv.Total != wv.Total || !reflect.DeepEqual(gv.Counts, wv.Counts) {
		t.Fatalf("CountVec: indirect %v (%v), broadcast %v (%v)", gv.Counts, gv.Total, wv.Counts, wv.Total)
	}
	gv.Release()
	wv.Release()

	for _, c := range []struct {
		name      string
		got, want []Dim
	}{
		{"one indirect", []Dim{xi}, []Dim{{Codes: bx, Card: cx}}},
		{"product", []Dim{xi, yd, zi}, []Dim{{Codes: bx, Card: cx}, yd, {Codes: bz, Card: zc}}},
		{"first-seen", []Dim{zi, {Codes: y, Card: 0}, xi}, []Dim{{Codes: bz, Card: zc}, {Codes: y, Card: 0}, {Codes: bx, Card: cx}}},
	} {
		got, gotCard := IDs(c.got, n)
		want, wantCard := IDs(c.want, n)
		if gotCard != wantCard || !reflect.DeepEqual(got, want) {
			t.Fatalf("IDs %s: indirect %v (card %d), broadcast %v (card %d)", c.name, got, gotCard, want, wantCard)
		}
	}
}
