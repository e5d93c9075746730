package counting

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// broadcast expands per-slot codes to rows through a row→slot map, the way
// extract.Attribute.Encode does: an unresolved row is missing.
func broadcast(codes, slots []int32) []int32 {
	out := make([]int32, len(slots))
	for i, s := range slots {
		out[i] = Missing
		if s >= 0 {
			out[i] = codes[s]
		}
	}
	return out
}

// checkFoldIsRowPass holds SlotCube.Screen to its contract: every buffer and
// weight sum == CountScreen over the broadcast codes with nil weights, and
// nil exactly when that is nil. It returns whether the screen was dense.
func checkFoldIsRowPass(t testing.TB, slots, o, tc, codes []int32, co, ct, ce int) bool {
	t.Helper()
	cube, pair := screenCubes(slots, Dim{Codes: o, Card: co}, Dim{Codes: tc, Card: ct})
	got := cube.Screen(pair, codes, ce)
	want := CountScreen(o, tc, broadcast(codes, slots), co, ct, ce, nil)
	defer got.Release()
	defer want.Release()
	if (got == nil) != (want == nil) {
		t.Fatalf("cards (%d,%d,%d): fold nil = %v, row pass nil = %v", co, ct, ce, got == nil, want == nil)
	}
	if got == nil {
		return false
	}
	g, w := *got, *want
	g.sc, w.sc = nil, nil
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("cards (%d,%d,%d), %d rows, %d slots: fold differs from the row pass\nfold %+v\nrows %+v", co, ct, ce, len(slots), len(codes), g, w)
	}
	// The (O, E) pair tally is the screen's, which also counts rows without T.
	p := pair.Pair(codes, ce)
	defer p.Release()
	if p.Total != want.WS2 || !reflect.DeepEqual(p.Joint, want.OE) || !reflect.DeepEqual(p.EMargin, want.EM) {
		t.Fatalf("cards (%d,%d,%d): Pair (%v %v %v) differs from the row pass (%v %v %v)", co, ct, ce, p.Total, p.Joint, p.EMargin, want.WS2, want.OE, want.EM)
	}
	return true
}

// screenCubes makes the two cubes of a row→slot map that the online prune's
// screen folds: parts (·, O, T) and (·, O, ·).
func screenCubes(slots []int32, o, t Dim) (cube, pair *SlotCube) {
	return NewSlotCube(slots, Dim{Card: 1}, o, t), NewSlotCube(slots, Dim{Card: 1}, o, Dim{Card: 1})
}

// randomCodes draws n codes below card with about one in miss missing
// (miss ≤ 0: none).
func randomCodes(r *rand.Rand, n, card, miss int) []int32 {
	out := make([]int32, n)
	for i := range out {
		switch {
		case card == 0 || (miss > 0 && r.Intn(miss) == 0):
			out[i] = Missing
		default:
			out[i] = int32(r.Intn(card))
		}
	}
	return out
}

// TestSlotCubeScreenMatchesRowPass is the fold differential: random slot maps
// with unresolved rows, per-slot codes with missing ones and codes no row
// uses, T and O with missing codes and zero cardinalities.
func TestSlotCubeScreenMatchesRowPass(t *testing.T) {
	dense := 0
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, nSlots := r.Intn(400), 1+r.Intn(40)
		co, ct, ce := r.Intn(7), r.Intn(9), r.Intn(12)
		slots := randomCodes(r, n, nSlots, 1+r.Intn(6))
		if seed%7 == 0 {
			slots = randomCodes(r, n, nSlots, 1) // every row unresolved
		}
		o, tc := randomCodes(r, n, co, r.Intn(5)), randomCodes(r, n, ct, r.Intn(5))
		codes := randomCodes(r, nSlots, ce, r.Intn(4))
		if checkFoldIsRowPass(t, slots, o, tc, codes, co, ct, ce) {
			dense++
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 600}); err != nil {
		t.Fatal(err)
	}
	if dense < 200 {
		t.Fatalf("only %d of 600 cases were dense", dense)
	}
}

// TestSlotCubeScreenDenseGate walks the cardinality product up to and across
// MaxDense: the fold is dense exactly where the row pass is, including when
// |T|·|O| alone leaves the bound and the cube holds no cells.
func TestSlotCubeScreenDenseGate(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	const n, nSlots = 3000, 50
	for _, c := range []struct {
		co, ct, ce int
		dense      bool
	}{
		{64, 2048, 32, true},   // ce·co·ct == MaxDense
		{64, 2048, 33, false},  // one code past it
		{2049, 2048, 1, false}, // co·ct > MaxDense: no cube cells
		{2048, 1, 2049, false}, // ce·co > MaxDense
		{8, 0, 4, false},       // no exposure at all
	} {
		slots := randomCodes(r, n, nSlots, 5)
		o, tc := randomCodes(r, n, c.co, 9), randomCodes(r, n, c.ct, 9)
		codes := randomCodes(r, nSlots, c.ce, 6)
		if got := checkFoldIsRowPass(t, slots, o, tc, codes, c.co, c.ct, c.ce); got != c.dense {
			t.Fatalf("cards (%d,%d,%d): dense = %v, want %v", c.co, c.ct, c.ce, got, c.dense)
		}
	}
}

// checkKeyedFold holds SlotCube.Fold to its contract for each axis: the
// folded tally equals, buffer for buffer and occupancy included, CountXYZOf
// over the parts and the codes broadcast to rows with nil weights — the axis
// the codes join read as IDs' product ids of (its part, the codes), or the
// codes alone where the part is absent — and the fold reports false exactly
// where that pass is not dense. parts[j] with nil Codes is absent.
func checkKeyedFold(t testing.TB, slots []int32, parts [3]Dim, codes []int32, ce int) {
	t.Helper()
	cube := NewSlotCube(slots, parts[0], parts[1], parts[2])
	eb := Dim{Codes: broadcast(codes, slots), Card: ce}
	for on := AxisZ; on <= AxisY; on++ {
		var dims [3]Dim
		for j, p := range parts {
			switch {
			case Axis(j) != on && p.Codes == nil:
				dims[j] = Dim{Card: 1}
			case Axis(j) != on:
				dims[j] = p
			case p.Codes == nil:
				dims[j] = eb
			default:
				ids, card := IDs([]Dim{p, eb}, len(slots))
				dims[j] = Dim{Codes: ids, Card: card}
			}
		}
		dense := ce > 0 && dims[0].Card*dims[1].Card*dims[2].Card <= MaxDense
		for j, d := range dims {
			dense = dense && d.Card > 0 && (parts[j].Codes == nil || parts[j].Card > 0)
		}
		got, ok := cube.Fold(codes, ce, on)
		if ok != dense {
			t.Fatalf("axis %d, cards %d·%d·%d: fold dense = %v, row pass dense = %v", on, dims[0].Card, dims[1].Card, dims[2].Card, ok, dense)
		}
		if !ok {
			continue
		}
		want := CountXYZOf(dims[1], dims[2], dims[0], Weights{})
		checkOccupancy(t, "the fold", got)
		gotOcc, wantOcc := *got.Occupancy(), *want.Occupancy()
		g, w := got, want
		g.sc, w.sc = nil, nil
		if !reflect.DeepEqual(g, w) || !reflect.DeepEqual(gotOcc.Strata, wantOcc.Strata) {
			t.Fatalf("axis %d, %d rows, %d slots: fold differs from the row pass\nfold %+v\nrows %+v", on, len(slots), len(codes), g, w)
		}
		got.Release()
		want.Release()
	}
}

// TestSlotCubeFoldMatchesRowPass is the keyed fold's differential: random
// slot maps with unresolved rows, per-slot codes with missing ones and codes
// no row uses, parts with missing codes, absent parts, a part of card 0, more
// keys than rows and a zero-row map, each code joined onto every axis.
func TestSlotCubeFoldMatchesRowPass(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, nSlots := r.Intn(400), 1+r.Intn(40)
		if seed%11 == 0 {
			n = 0
		}
		slots := randomCodes(r, n, nSlots, 1+r.Intn(6))
		var parts [3]Dim
		for j := range parts {
			if r.Intn(3) > 0 {
				card := r.Intn(9)
				parts[j] = Dim{Codes: randomCodes(r, n, card, r.Intn(5)), Card: card}
			}
		}
		ce := r.Intn(12)
		if seed%4 == 0 { // more keys than rows: the cells are counted by sorting
			parts[0] = Dim{Codes: randomCodes(r, n, 3000, r.Intn(5)), Card: 3000}
			ce = r.Intn(3)
		}
		checkKeyedFold(t, slots, parts, randomCodes(r, nSlots+r.Intn(3), ce, r.Intn(4)), ce)
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 600}); err != nil {
		t.Fatal(err)
	}
}

// TestSlotCubeFoldSlotsMatchesRowList is the slot-list fold's differential:
// the (E, x, y) tally of a random ascending slot list, E on z, against the row
// pass over the rows of those slots with E broadcast — unresolved rows, slots
// with a missing E code or without rows, parts with missing codes, an empty
// list and the nil list of every slot.
func TestSlotCubeFoldSlotsMatchesRowList(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, nSlots := r.Intn(400), 1+r.Intn(40)
		slots := randomCodes(r, n, nSlots, 1+r.Intn(6))
		cx, cy, ce := 1+r.Intn(6), 1+r.Intn(20), 1+r.Intn(12)
		x := Dim{Codes: randomCodes(r, n, cx, r.Intn(5)), Card: cx}
		y := Dim{Codes: randomCodes(r, n, cy, r.Intn(5)), Card: cy}
		codes := randomCodes(r, nSlots, ce, r.Intn(4))
		var list []int32
		if seed%7 != 0 {
			list = []int32{}
			for s := range nSlots {
				if r.Intn(3) == 0 {
					list = append(list, int32(s))
				}
			}
		}
		listed := make([]bool, nSlots)
		for _, s := range list {
			listed[s] = true
		}
		var rows []int32
		for i, s := range slots {
			if s >= 0 && (list == nil || listed[s]) {
				rows = append(rows, int32(i))
			}
		}
		got, ok := NewSlotCube(slots, Dim{}, x, y).FoldSlots(codes, ce, AxisZ, list)
		if !ok {
			t.Fatalf("seed %d: a dense fold reported false", seed)
		}
		want := CountXYZRowsOf(x, y, Dim{Codes: broadcast(codes, slots), Card: ce}, Weights{}, rows)
		checkOccupancy(t, "the slot-list fold", got)
		gotOcc, wantOcc := *got.Occupancy(), *want.Occupancy()
		g, w := got, want
		g.sc, w.sc = nil, nil
		if !reflect.DeepEqual(g, w) || !reflect.DeepEqual(gotOcc.Strata, wantOcc.Strata) {
			t.Fatalf("seed %d, %d rows, %d listed slots: fold differs from the row pass\nfold %+v\nrows %+v", seed, len(rows), len(list), g, w)
		}
		got.Release()
		want.Release()
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestSlotCubeFoldDenseGate walks the product of the cards up to and across
// MaxDense on each axis: the fold is dense exactly where the row pass is,
// and a cube whose parts alone leave MaxDense is nil and folds nothing.
func TestSlotCubeFoldDenseGate(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	const n, nSlots = 2000, 50
	slots := randomCodes(r, n, nSlots, 7)
	part := func(card int) Dim { return Dim{Codes: randomCodes(r, n, card, 9), Card: card} }
	for _, ce := range []int{1024, 1025} {
		codes := randomCodes(r, nSlots, ce, 6)
		checkKeyedFold(t, slots, [3]Dim{part(1024), part(2), part(2)}, codes, ce)
		checkKeyedFold(t, slots, [3]Dim{{}, part(2), part(2048)}, codes, ce)
	}
	if c := NewSlotCube(slots, part(2048), part(2049), Dim{}); c != nil {
		t.Fatal("a cube whose parts leave MaxDense is not nil")
	}
	if _, ok := (*SlotCube)(nil).Fold(make([]int32, nSlots), 2, AxisZ); ok {
		t.Fatal("a nil cube folded")
	}
}

func TestRowsPerSlot(t *testing.T) {
	if got, want := RowsPerSlot([]int32{2, 0, -1, 2, 2}), []int32{1, 0, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("RowsPerSlot = %v, want %v", got, want)
	}
}

// TestSlotCubeSlotMajorCorners pins the shapes a slot-major cell list can get
// wrong: a slot with no rows between two that have some, trailing slots whose
// rows lack an outcome or an exposure (no cells), a code vector longer than
// the last slot any row names, every code missing, and |T|·|O| past MaxDense,
// where there is no (·, O, T) cube but the (·, O, ·) cube still answers Pair.
func TestSlotCubeSlotMajorCorners(t *testing.T) {
	const m = Missing
	slots := []int32{0, 0, 2, 2, 2, m, 5, 5, 6, 7}
	o := []int32{1, 0, 1, 1, m, 0, 2, 0, m, 1}
	tc := []int32{0, 1, 1, 1, 0, 0, m, 2, 1, m}
	for name, codes := range map[string][]int32{
		"a code per slot":         {0, 1, 2, 1, 0, 2, 1, 0},
		"codes past the map":      {2, 0, 1, 1, 0, 1, 2, 0, 1, 1, 2},
		"holes among the codes":   {1, m, m, 0, 1, 2, m, 0},
		"every code missing":      {m, m, m, m, m, m, m, m},
		"only the empty slot set": {m, 2, m, 0, 1, m, m, m},
	} {
		if !checkFoldIsRowPass(t, slots, o, tc, codes, 3, 3, 3) {
			t.Fatalf("%s: the fold left the dense path", name)
		}
	}

	// co·ct > MaxDense: no screen is dense and there is no (·, O, T) cube.
	const co, ct, ce = 2049, 2048, 3
	r := rand.New(rand.NewSource(8))
	wideSlots, wideO, wideT := randomCodes(r, 500, 40, 6), randomCodes(r, 500, co, 7), randomCodes(r, 500, ct, 7)
	codes := randomCodes(r, 40, ce, 5)
	cube, pair := screenCubes(wideSlots, Dim{Codes: wideO, Card: co}, Dim{Codes: wideT, Card: ct})
	if cube != nil || cube.Screen(pair, codes, ce) != nil {
		t.Fatalf("past MaxDense the (·, O, T) cube is %v and Screen != nil is %v", cube, cube.Screen(pair, codes, ce) != nil)
	}
	got, want := pair.Pair(codes, ce), CountPair(wideO, broadcast(codes, wideSlots), co, ce, nil)
	defer got.Release()
	defer want.Release()
	if got.Total != want.Total || !reflect.DeepEqual(got.Joint, want.Joint) || !reflect.DeepEqual(got.EMargin, want.EMargin) {
		t.Fatalf("Pair past MaxDense: total %v, e margin %v; the row pass has %v, %v", got.Total, got.EMargin, want.Total, want.EMargin)
	}
}
