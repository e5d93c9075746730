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
	// pair is keyed by (o, slot), over the rows with a slot and an outcome:
	// the (O, E) tallies, which count a row whatever its T.
	pair slotCells
	// cube is keyed by (t·co+o, slot), over those of them that have a T: the
	// (O, T, E) tallies; a fold walks JointT forward. It is empty when
	// |T|·|O| leaves MaxDense: no screen over them is dense then.
	cube slotCells
}

// slotCells lists the rows per (major key, slot), sorted by both: the cells
// of the i-th distinct major key, major[i], are [start[i], start[i+1]).
type slotCells struct {
	major []int32
	start []int32
	slot  []int32
	rows  []float64
}

// RowsPerSlot counts the rows of each slot of a row→slot map, up to the last
// slot that has any (a negative slot is an unresolved row, counted nowhere).
func RowsPerSlot(slots []int32) []int32 {
	nSlots := 0
	for _, s := range slots {
		nSlots = maxInt(nSlots, int(s)+1)
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
// exposure t: three stable counting sorts (slot, then o, then t) and a merge
// of equal neighbours, O(rows + slots + |T|).
func NewSlotCube(slots, o, t []int32, co, ct int) *SlotCube {
	partitions.Add(1)
	c := &SlotCube{co: co, ct: ct}
	rows := make([]int32, len(slots))
	nSlots := 0
	for i, s := range slots {
		rows[i] = int32(i)
		nSlots = maxInt(nSlots, int(s)+1)
	}
	rows = sortRows(sortRows(rows, slots, nSlots), o, co)
	c.pair = mergeCells(rows, slots, func(r int32) int32 { return o[r] })
	if co > 0 && ct > 0 && co*ct <= MaxDense {
		rows = sortRows(rows, t, ct)
		c.cube = mergeCells(rows, slots, func(r int32) int32 { return t[r]*int32(co) + o[r] })
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

// mergeCells collapses rows sorted by (major(row), slot) into one cell per
// distinct pair.
func mergeCells(rows, slots []int32, major func(r int32) int32) slotCells {
	var c slotCells
	lastMajor, lastSlot := int32(-1), int32(-1)
	for _, r := range rows {
		m, s := major(r), slots[r]
		if m != lastMajor {
			c.major = append(c.major, m)
			c.start = append(c.start, int32(len(c.slot)))
		}
		if m != lastMajor || s != lastSlot {
			c.slot = append(c.slot, s)
			c.rows = append(c.rows, 0)
			lastMajor, lastSlot = m, s
		}
		c.rows[len(c.rows)-1]++
	}
	c.start = append(c.start, int32(len(c.slot)))
	return c
}

// Screen folds the cube through e, one code per slot with cardinality ce:
// what CountScreen(o, t, e broadcast to rows, co, ct, ce, nil) returns, nil
// exactly when that is nil, at one visit per cell. Counted as a dense pass
// like the row pass it stands for.
func (c *SlotCube) Screen(e []int32, ce int) *Screen {
	s := newScreen(c.co, c.ct, ce)
	if s == nil {
		return nil
	}
	co, slot, rows := c.co, c.cube.slot, c.cube.rows
	for i, run := range c.cube.major {
		tc, oc := int(run)/co, int(run)%co
		joint, te := s.JointT[int(run)*ce:(int(run)+1)*ce], s.TE[tc*ce:(tc+1)*ce]
		var n float64 // rows of the run with E present
		for k := c.cube.start[i]; k < c.cube.start[i+1]; k++ {
			if ec := e[slot[k]]; ec >= 0 {
				joint[ec] += rows[k]
				te[ec] += rows[k]
				s.EO[int(ec)*co+oc] += rows[k]
				n += rows[k]
			}
		}
		s.TO[run] += n
		s.TM[tc] += n
		s.WS3 += n
	}
	s.WS2 = c.foldPair(e, ce, s.OE, s.EM)
	for oc := 0; oc < co; oc++ {
		for ec := 0; ec < ce; ec++ {
			s.OM[oc] += s.OE[oc*ce+ec]
			s.ZE[ec] += s.EO[ec*co+oc]
		}
	}
	s.WSQ2, s.WSQ3 = s.WS2, s.WS3 // every weight is 1
	return s
}

// PairO folds the (o, slot) cells through e the same way: the (O, E) tally
// over the rows with a slot, an outcome and a present code, whatever their T.
// Not counted as a pass. Backed by pooled storage — call Release when done.
func (c *SlotCube) PairO(e []int32, ce int) Pair {
	sc := grab(c.co*ce + ce)
	p := Pair{Cx: c.co, Ce: ce, Joint: sc.buf[: c.co*ce : c.co*ce], EMargin: sc.buf[c.co*ce:], sc: sc}
	p.Total = c.foldPair(e, ce, p.Joint, p.EMargin)
	return p
}

func (c *SlotCube) foldPair(e []int32, ce int, joint, eMargin []float64) (total float64) {
	for i, oc := range c.pair.major {
		row := joint[int(oc)*ce : (int(oc)+1)*ce]
		for k := c.pair.start[i]; k < c.pair.start[i+1]; k++ {
			if ec := e[c.pair.slot[k]]; ec >= 0 {
				row[ec] += c.pair.rows[k]
				eMargin[ec] += c.pair.rows[k]
				total += c.pair.rows[k]
			}
		}
	}
	return total
}
