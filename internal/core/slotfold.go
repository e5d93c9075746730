package core

import (
	"sync"

	"nexus/internal/bins"
	"nexus/internal/counting"
	"nexus/internal/infotheory"
)

// slotFolds serves an explain's unweighted statistics of entity-form
// candidates from slot cubes (counting.SlotCube): the online prune's screen
// and entity-level null, and MCIMR's relevance I(O;T|E), responsibility
// statistic I(O;E|prefix), joint score I(O;T|prefix,E) — of the candidate and
// of each of its permuted copies — and redundancy I(E;chosen). Each cube is
// keyed by a link column's row→slot map and the row columns the statistic
// conditions on, and is shared by every candidate of that link column: a
// statistic then costs the cube's cells, not the rows. Cubes are made on
// first use and count their cells on their first fold, so the prune's
// workers, the relevance pass, the permutation workers and the redundancy
// pass share them read-only. A nil *slotFolds folds nothing.
type slotFolds struct {
	t, o  *bins.Encoded
	mu    sync.Mutex
	cubes map[cubeKey]*counting.SlotCube
}

// cubeKey identifies a cube by its row→slot map and the code columns of its
// parts (backing arrays, as slotMapKey does) with their cards: the columns of
// a zero-row view are all empty, and the cards then tell the cubes apart.
type cubeKey struct {
	slots *int32
	parts [3]struct {
		codes *int32
		card  int
	}
}

func newSlotFolds(t, o *bins.Encoded) *slotFolds {
	return &slotFolds{t: t, o: o, cubes: make(map[cubeKey]*counting.SlotCube)}
}

// reset drops the cubes, the online prune's among them: on an accept, every
// later test conditions on the new prefix. Not safe to call while a fold
// runs.
func (f *slotFolds) reset() { clear(f.cubes) }

// cmi returns I(X;Y|Z) of the unweighted three-way tally whose row parts are
// z, x and y (nil for an absent part, each a direct column) with the slot
// codes of the entity-form e joined onto axis on, folded from the cube of e's
// link column — math.Float64bits-equal to infotheory.CondMutualInfo over the
// same variables with no weights. It reports false when e is not an entity
// form or the row pass would not be dense; the caller then runs the row pass.
func (f *slotFolds) cmi(e, z, x, y *bins.Encoded, on counting.Axis) (float64, bool) {
	if f == nil || e.Slots == nil {
		return 0, false
	}
	t, ok := f.cube(e.Slots, z, x, y).Fold(e.Codes, e.Card, on)
	if !ok {
		return 0, false
	}
	return infotheory.TallyCondMutualInfo(&t), true
}

// perm is op.stat of the entity-form e under the pre-joined prefix given,
// folded: I(O;E|prefix) with E on y, or I(O;T|prefix,E) with E joined onto the
// prefix's strata as DenseIDs joins it.
func (f *slotFolds) perm(op PermOp, e *bins.Encoded, given []infotheory.Var) (float64, bool) {
	if f == nil {
		return 0, false
	}
	if op == PermGain {
		return f.cmi(e, givenVar(given), f.o, f.t, counting.AxisZ)
	}
	return f.cmi(e, givenVar(given), f.o, nil, counting.AxisY)
}

func (f *slotFolds) cube(slots []int32, z, x, y *bins.Encoded) *counting.SlotCube {
	k := cubeKey{slots: slotMapKey(slots)}
	var parts [3]counting.Dim // absent where nil
	for j, v := range [3]*bins.Encoded{z, x, y} {
		if v != nil {
			if v.Slots != nil {
				return nil // not a row column: the row pass reads it
			}
			parts[j] = counting.Dim{Codes: v.Codes, Card: v.Card}
			k.parts[j].codes, k.parts[j].card = slotMapKey(v.Codes), v.Card
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.cubes[k]
	if !ok {
		c = counting.NewSlotCube(slots, parts[0], parts[1], parts[2])
		f.cubes[k] = c
	}
	return c
}
