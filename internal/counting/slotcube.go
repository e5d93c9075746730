package counting

import (
	"slices"
	"sync"
)

// SlotCube is a counting pass in aggregate form. A knowledge-graph attribute
// is a function of the linked entity: all attributes extracted through one
// link column have one code per entity slot and share the column's row→slot
// map. The cube holds how many rows each slot has under each composite key
// (z, x, y) of up to three row columns, so one pass per link column plus, per
// attribute, a fold over the non-empty cells (never more than the map has
// linked rows) replaces one row pass per attribute.
//
// A fold joins the attribute's slot code onto one axis of a three-way tally
// (Fold): that axis's code becomes part·|E| + e, the product id IDs gives the
// pair (part, E), and an absent part makes it e alone. One cube thus serves
// I(O;T|E) (parts (·, O, T), E on z), I(O;E|C) (parts (C, O, ·), E on y),
// I(O;T|C,E) (parts (C, O, T), E on z) and I(E;C) (parts (·, ·, C), E on x),
// where C is any row column. The online prune's screen (Screen) and the
// entity-level null's (O, E) tally (Pair) read the (·, O, T) and (·, O, ·)
// cubes through their joint alone, indexed by the key.
//
// Equality contract: a fold produces an unweighted tally — sums of integer
// row counts, exact in float64 in any order — so every buffer and weight sum
// is == to the row pass over the codes broadcast to rows with nil weights
// (FuzzCountParity, TestSlotCubeFoldMatchesRowPass). IPW-weighted tallies
// depend on the order in which different slots' weights interleave and cannot
// be folded bit for bit; they keep the row pass.
type SlotCube struct {
	card  [3]int // of the z, x and y parts; 1 for an absent one
	slots []int32
	parts [3][]int32 // nil for an absent part

	once  sync.Once
	every []int32 // 0, 1, …: every slot, the list Fold walks
	start []int32 // the cells of slot s are [start[s], start[s+1])
	// Each cell's key (z·card₂ + y)·card₁ + x, its z, x and y part and its
	// rows, the cells of a slot sorted by key. The key puts y before x so that
	// a cube with parts (·, O, T) is keyed t·|O| + o, CountScreen's layout. A
	// candidate has one code per slot, so a fold reads it once per slot and
	// its inner loop has no branch on it.
	key  []int32
	part [3][]int32
	rows []float64
}

// Axis names an axis of a three-way tally (XYZ): the strata z, or x or y.
type Axis int

// The axes a fold can join a slot code onto.
const (
	AxisZ Axis = iota
	AxisX
	AxisY
)

// RowsPerSlot counts the rows of each slot of a row→slot map, up to the last
// slot that has any (a negative slot is an unresolved row, counted nowhere).
func RowsPerSlot(slots []int32) []int32 {
	nSlots := 0
	for _, s := range slots {
		nSlots = max(nSlots, int(s)+1)
	}
	rows := make([]int32, nSlots)
	for _, s := range slots {
		if s >= 0 {
			rows[s]++
		}
	}
	return rows
}

// NewSlotCube keys the rows of a row→slot map by their codes in z, x and y,
// each a direct code column as long as the map or the constant column (no
// Codes: an absent part, of card 1). A row is in the cube when it has a slot
// and every present part has a code. The cells are counted on the first
// fold (build) and shared by every later one, so concurrent folds are safe.
// It returns nil when the parts' cards alone leave MaxDense: no fold of such
// a cube is dense.
func NewSlotCube(slots []int32, z, x, y Dim) *SlotCube {
	c := &SlotCube{slots: slots}
	size := 1
	for j, d := range [3]Dim{z, x, y} {
		c.card[j], c.parts[j] = 1, d.Codes
		if d.Codes != nil {
			c.card[j] = d.Card
		}
		if size *= c.card[j]; size > MaxDense {
			return nil
		}
	}
	return c
}

// build counts the cells: each row's composite key, the keys bucketed by
// slot, then each slot's keys counted — into a dense count per key while
// the keys are few next to the rows, else by sorting the slot's keys — and
// listed in ascending order. O(rows + slots + keys), and every pass over the
// rows reads them in order.
func (c *SlotCube) build() {
	partitions.Add(1)
	nSlots := 0
	for _, s := range c.slots {
		nSlots = max(nSlots, int(s)+1)
	}
	// key[r] = (z·card₂ + y)·card₁ + x, or -1 for a row the cube leaves out.
	key := make([]int32, len(c.slots))
	for r, s := range c.slots {
		key[r] = s >> 31 // 0, or -1 for an unresolved row
	}
	for _, j := range [3]Axis{AxisZ, AxisY, AxisX} {
		p := c.parts[j]
		if p == nil {
			continue
		}
		card := int32(c.card[j])
		for r, v := range p[:len(key)] {
			switch k := key[r]; {
			case k < 0:
			case v < 0:
				key[r] = -1
			default:
				key[r] = k*card + v
			}
		}
	}
	first := make([]int32, nSlots+1) // the keys of slot s are bySlot[first[s]:first[s+1]]
	for r, s := range c.slots {
		if key[r] >= 0 {
			first[s+1]++
		}
	}
	for s := range nSlots {
		first[s+1] += first[s]
	}
	next := slices.Clone(first[:nSlots])
	bySlot := make([]int32, first[nSlots])
	for r, s := range c.slots {
		if k := key[r]; k >= 0 {
			bySlot[next[s]] = k
			next[s]++
		}
	}

	c.every = make([]int32, nSlots)
	for s := range c.every {
		c.every[s] = int32(s)
	}
	c.start = make([]int32, nSlots+1)
	c1, c2 := int32(c.card[1]), int32(c.card[2])
	add := func(k, rows int32) {
		c.key = append(c.key, k)
		c.part[0] = append(c.part[0], k/(c1*c2))
		c.part[1] = append(c.part[1], k%c1)
		c.part[2] = append(c.part[2], k/c1%c2)
		c.rows = append(c.rows, float64(rows))
	}
	keys := c.card[0] * c.card[1] * c.card[2]
	var count, seen []int32
	if keys <= 4*len(bySlot)+1024 {
		count = make([]int32, keys)
	}
	for s := range nSlots {
		seg := bySlot[first[s]:first[s+1]]
		if count != nil {
			seen = seen[:0]
			for _, k := range seg {
				if count[k] == 0 {
					seen = append(seen, k)
				}
				count[k]++
			}
			slices.Sort(seen)
			for _, k := range seen {
				add(k, count[k])
				count[k] = 0
			}
		} else {
			slices.Sort(seg)
			for i := 0; i < len(seg); {
				j := i + 1
				for j < len(seg) && seg[j] == seg[i] {
					j++
				}
				add(seg[i], int32(j-i))
				i = j
			}
		}
		c.start[s+1] = int32(len(c.key))
	}
}

// Fold tallies the cube through e, one code per slot with cardinality ce,
// joined onto axis on: what CountXYZOf returns over the parts and e broadcast
// to rows with nil weights — the axis on read as the product ids of (its
// part, e), or e alone when the part is absent — buffer for buffer, with its
// occupancy listed. It reports false, and tallies nothing, where that row
// pass would not be dense, and where a part of card 0 leaves the joined axis
// without product ids; the caller then runs the row pass.
// Counted as a dense pass like the row pass it stands for. Backed by pooled
// storage — call Release when done.
func (c *SlotCube) Fold(e []int32, ce int, on Axis) (XYZ, bool) {
	return c.FoldSlots(e, ce, on, nil)
}

// FoldSlots is Fold over the listed slots alone (nil lists every slot): the
// tally of the rows whose slot is listed — what CountXYZRowsOf returns over
// those rows, ascending, with the parts and e broadcast to rows and nil
// weights — walking the listed slots' cells, not every slot's. A slot appears
// in the list at most once.
func (c *SlotCube) FoldSlots(e []int32, ce int, on Axis, slots []int32) (XYZ, bool) {
	if c == nil || ce <= 0 {
		return XYZ{}, false
	}
	// The tally's cards: each part's, times ce on the joined axis.
	d := c.card
	d[on] *= ce
	zc, cx, cy := d[0], d[1], d[2]
	if size := zc * cx * cy; size <= 0 || size > MaxDense {
		return XYZ{}, false
	}
	t := newDenseXYZ(cx, cy, zc)
	t.WeightSum = c.foldInto(e, ce, on, cx, cy, slots, t.Joint, t.ZX, t.ZY, t.Z)
	t.WeightSqSum = t.WeightSum // every weight is 1
	t.occupy()
	return t, true
}

// foldInto adds the listed slots' cells' rows to the three-way layout
// joint[(z·cx+x)·cy+y] and its margins zx[z·cx+x], zy[z·cy+y], z[z], e's code
// for the cell's slot joined onto axis on; a slot whose code is missing is
// skipped whole. It returns the rows added.
func (c *SlotCube) foldInto(e []int32, ce int, on Axis, cx, cy int, slots []int32, joint, zx, zy, z []float64) (total float64) {
	c.once.Do(c.build)
	mul := [3]int{1, 1, 1}
	mul[on] = ce
	mz, mx, my := mul[0], mul[1], mul[2]
	if slots == nil {
		slots = c.every
	}
	for _, s := range slots {
		if int(s)+1 >= len(c.start) || int(s) >= len(e) {
			continue
		}
		ec := int(e[s])
		if ec < 0 {
			continue
		}
		var add [3]int
		add[on] = ec
		az, ax, ay := add[0], add[1], add[2]
		lo, hi := c.start[s], c.start[s+1]
		pz, px, py, rows := c.part[0][lo:hi], c.part[1][lo:hi], c.part[2][lo:hi], c.rows[lo:hi]
		for k, n := range rows {
			zi := int(pz[k])*mz + az
			xz := zi*cx + int(px[k])*mx + ax
			yi := int(py[k])*my + ay
			joint[xz*cy+yi] += n
			zx[xz] += n
			zy[zi*cy+yi] += n
			z[zi] += n
			total += n
		}
	}
	return total
}

// foldJoint adds every cell's rows to the joint alone at key·ce + e, e's code
// for the cell's slot: (y, x, e) for a cube without a z part. Where the joint
// is small next to the cells, its margins are cheaper summed from it densely
// than added cell by cell.
func (c *SlotCube) foldJoint(e []int32, ce int, joint []float64) {
	c.once.Do(c.build)
	for s := 0; s+1 < len(c.start) && s < len(e); s++ {
		ec := int(e[s])
		if ec < 0 {
			continue
		}
		key := c.key[c.start[s]:c.start[s+1]]
		rows := c.rows[c.start[s]:c.start[s+1]]
		for k, run := range key {
			joint[int(run)*ce+ec] += rows[k]
		}
	}
}

// Pair folds a cube whose one part is x, the outcome o, through e with e on
// y: the (O, E) tally over the rows with a slot, an outcome and a present
// code — what CountPair returns over o and e broadcast to rows with nil
// weights. Not counted as a pass. Backed by pooled storage — call Release
// when done.
func (c *SlotCube) Pair(e []int32, ce int) Pair {
	p := newPair(c.card[1], ce)
	p.Total = c.foldPair(e, ce, p.Joint, p.XMargin, p.EMargin)
	return p
}

// Screen folds through e, one code per slot with cardinality ce, the cube
// with parts (·, O, T), whose key t·|O| + o is CountScreen's (t, o) index, and
// pair, the (·, O, ·) cube of the same map (the (O, E) tallies, which count a
// row whatever its T): what CountScreen(o, t, e broadcast to rows, co, ct, ce,
// nil) returns, nil exactly when that is nil — a nil cube is one past
// MaxDense, where that is nil too. The two joints are the folds of the cubes'
// cells with e joined on; the margins are dense sums of them — sums of
// integers, exact in any order.
// Counted as a dense pass like the row pass it stands for.
func (c *SlotCube) Screen(pair *SlotCube, e []int32, ce int) *Screen {
	if c == nil {
		return nil
	}
	co := c.card[1]
	s := newScreen(co, c.card[2], ce)
	if s == nil {
		return nil
	}
	c.foldJoint(e, ce, s.JointT)
	for run := range s.TO {
		tc, oc := run/co, run%co
		te := s.TE[tc*ce : (tc+1)*ce]
		var rows float64
		for ec, n := range s.JointT[run*ce : (run+1)*ce] {
			te[ec] += n
			s.EO[ec*co+oc] += n
			rows += n
		}
		s.TO[run] = rows
		s.TM[tc] += rows
		s.WS3 += rows
	}
	s.WS2 = pair.foldPair(e, ce, s.OE, s.OM, s.EM)
	for oc := 0; oc < co; oc++ {
		for ec := 0; ec < ce; ec++ {
			s.ZE[ec] += s.EO[ec*co+oc]
		}
	}
	s.WSQ2, s.WSQ3 = s.WS2, s.WS3 // every weight is 1
	return s
}

func (c *SlotCube) foldPair(e []int32, ce int, joint, oMargin, eMargin []float64) (total float64) {
	c.foldJoint(e, ce, joint)
	for oc := 0; oc < c.card[1]; oc++ {
		for ec, n := range joint[oc*ce : (oc+1)*ce] {
			oMargin[oc] += n
			eMargin[ec] += n
			total += n
		}
	}
	return total
}
