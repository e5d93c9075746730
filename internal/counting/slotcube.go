package counting

// SlotCube is the fused screen pass in aggregate form. A knowledge-graph
// attribute is a function of the linked entity: all attributes extracted
// through one link column have one code per entity slot and share the
// column's row→slot map. The cube holds how many rows each slot has under
// each o, and under each (t, o), so one pass per link column plus, per
// attribute, a fold over the non-empty cells (never more than the map has
// linked rows) replaces one row pass per attribute.
//
// Equality contract: the fold produces unweighted tallies — sums of integer
// row counts, exact in float64 in any order — so every buffer and weight sum
// of Screen is == to CountScreen over the codes broadcast to rows with nil
// weights (FuzzCountParity, TestSlotCubeScreenMatchesRowPass). IPW-weighted
// tallies depend on the order in which different slots' weights interleave
// and cannot be folded bit for bit; they keep the row pass.
type SlotCube struct {
	co, ct int
	// pair is keyed by (slot, o), over the rows with a slot and an outcome:
	// the (O, E) tallies, which count a row whatever its T.
	pair slotCells
	// cube is keyed by (slot, t·co+o), over those of them that have a T: the
	// (O, T, E) joint. It is empty when |T|·|O| leaves MaxDense: no screen
	// over them is dense then.
	cube slotCells
}

// slotCells lists the rows per (slot, key), sorted by both: the cells of slot
// s are [start[s], start[s+1]). A candidate has one code per slot, so a fold
// reads it once per slot and its inner loop has no branch on it.
type slotCells struct {
	start []int32
	key   []int32
	rows  []float64
}

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

// NewSlotCube tallies the rows of a row→slot map against the outcome o and
// exposure t: stable counting sorts (o, [t,] slot) and a merge of equal
// neighbours, O(rows + slots + |T|).
func NewSlotCube(slots, o, t []int32, co, ct int) *SlotCube {
	partitions.Add(1)
	c := &SlotCube{co: co, ct: ct}
	rows := make([]int32, len(slots))
	nSlots := 0
	for i, s := range slots {
		rows[i] = int32(i)
		nSlots = max(nSlots, int(s)+1)
	}
	rows = sortRows(rows, o, co)
	c.pair = mergeCells(sortRows(rows, slots, nSlots), slots, nSlots, func(r int32) int32 { return o[r] })
	if co > 0 && ct > 0 && co*ct <= MaxDense {
		rows = sortRows(sortRows(rows, t, ct), slots, nSlots)
		c.cube = mergeCells(rows, slots, nSlots, func(r int32) int32 { return t[r]*int32(co) + o[r] })
	}
	return c
}

// sortRows stably sorts rows by keys[row] ∈ [0, card), dropping the rows
// whose key is missing.
func sortRows(rows, keys []int32, card int) []int32 {
	next := make([]int32, card+1) // next[k]: where the next row of key k goes
	for _, r := range rows {
		if k := keys[r]; k >= 0 {
			next[k+1]++
		}
	}
	for k := 1; k <= card; k++ {
		next[k] += next[k-1]
	}
	out := make([]int32, next[card])
	for _, r := range rows {
		if k := keys[r]; k >= 0 {
			out[next[k]] = r
			next[k]++
		}
	}
	return out
}

// mergeCells collapses rows sorted by (slot, key(row)) into one cell per
// distinct pair.
func mergeCells(rows, slots []int32, nSlots int, key func(r int32) int32) slotCells {
	c := slotCells{start: make([]int32, nSlots+1)}
	lastSlot, lastKey := int32(-1), int32(-1)
	for _, r := range rows {
		s, k := slots[r], key(r)
		if s != lastSlot || k != lastKey {
			c.key = append(c.key, k)
			c.rows = append(c.rows, 0)
			c.start[s+1]++ // cells of slot s, summed into offsets below
			lastSlot, lastKey = s, k
		}
		c.rows[len(c.rows)-1]++
	}
	for s := 0; s < nSlots; s++ {
		c.start[s+1] += c.start[s]
	}
	return c
}

// fold adds every cell's rows to out[key·ce+code], code being e's for the
// cell's slot; a slot whose code is missing is skipped whole.
func (c *slotCells) fold(e []int32, ce int, out []float64) {
	for s := 0; s+1 < len(c.start); s++ {
		ec := int(e[s])
		if ec < 0 {
			continue
		}
		key := c.key[c.start[s]:c.start[s+1]]
		rows := c.rows[c.start[s]:c.start[s+1]]
		for k, run := range key {
			out[int(run)*ce+ec] += rows[k]
		}
	}
}

// Screen folds the cube through e, one code per slot with cardinality ce:
// what CountScreen(o, t, e broadcast to rows, co, ct, ce, nil) returns, nil
// exactly when that is nil. Only the two joints are folded cell by cell; the
// margins are dense sums of them — sums of integers, exact in any order.
// Counted as a dense pass like the row pass it stands for.
func (c *SlotCube) Screen(e []int32, ce int) *Screen {
	s := newScreen(c.co, c.ct, ce)
	if s == nil {
		return nil
	}
	co := c.co
	c.cube.fold(e, ce, s.JointT)
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
	s.WS2 = c.foldPair(e, ce, s.OE, s.OM, s.EM)
	for oc := 0; oc < co; oc++ {
		for ec := 0; ec < ce; ec++ {
			s.ZE[ec] += s.EO[ec*co+oc]
		}
	}
	s.WSQ2, s.WSQ3 = s.WS2, s.WS3 // every weight is 1
	return s
}

// PairO folds the (slot, o) cells through e the same way: the (O, E) tally
// over the rows with a slot, an outcome and a present code, whatever their T.
// Not counted as a pass. Backed by pooled storage — call Release when done.
func (c *SlotCube) PairO(e []int32, ce int) Pair {
	p := newPair(c.co, ce)
	p.Total = c.foldPair(e, ce, p.Joint, p.XMargin, p.EMargin)
	return p
}

func (c *SlotCube) foldPair(e []int32, ce int, joint, oMargin, eMargin []float64) (total float64) {
	c.pair.fold(e, ce, joint)
	for oc := 0; oc < c.co; oc++ {
		for ec, n := range joint[oc*ce : (oc+1)*ce] {
			oMargin[oc] += n
			eMargin[ec] += n
			total += n
		}
	}
	return total
}
