package counting

// CountVec is the one-axis pass over a direct column.
func CountVec(codes []int32, card int, w []float64) Vec {
	return CountVecOf(Dim{Codes: codes, Card: card}, Weights{W: w})
}

// CountXYZ and CountXYZRows are the three-axis passes over direct columns,
// zids a pre-joined conditioning id column.
func CountXYZ(x, y []int32, cx, cy int, zids []int32, zcard int, w []float64) XYZ {
	return CountXYZOf(Dim{Codes: x, Card: cx}, Dim{Codes: y, Card: cy}, Dim{Codes: zids, Card: zcard}, Weights{W: w})
}

func CountXYZRows(x, y []int32, cx, cy int, zids []int32, zcard int, w []float64, rows []int32) XYZ {
	return CountXYZRowsOf(Dim{Codes: x, Card: cx}, Dim{Codes: y, Card: cy}, Dim{Codes: zids, Card: zcard}, Weights{W: w}, rows)
}

// countXYZSparse runs the map form of the three-axis tally over direct
// columns whatever the joint domain, for comparison with the dense form.
func countXYZSparse(x, y []int32, cx, cy int, zids []int32, zcard int, w []float64) XYZ {
	t := newSparseXYZ(cx, cy, zcard)
	t.tally([3][]int32{x, y, zids}, w)
	return t
}

// CountPair tallies two direct code columns jointly: the row pass that
// SlotCube.Pair folds from a (·, O, ·) cube, kept as its reference. The caller gates
// on cx·ce ≤ MaxDense.
func CountPair(x, e []int32, cx, ce int, w []float64) Pair {
	densePasses.Add(1)
	p := newPair(cx, ce)
	for i, xc := range x {
		yc := e[i]
		if xc < 0 || yc < 0 {
			continue
		}
		wt := weightAt(w, i)
		p.Joint[int(xc)*ce+int(yc)] += wt
		p.XMargin[xc] += wt
		p.EMargin[yc] += wt
		p.Total += wt
	}
	return p
}
