package core

import (
	"math"
	"testing"

	"nexus/internal/bins"
	"nexus/internal/infotheory"
	"nexus/internal/stats"
	"nexus/internal/table"
)

// TestSlotMIMatchesRowLevel pins slotMI as the marginal finalize: on the
// cube's (O, E) fold it returns infotheory.MutualInfo of the broadcast
// encoding bit for bit — with missing slot codes, slots no row points at,
// unresolved rows and a code vector that is missing everywhere.
func TestSlotMIMatchesRowLevel(t *testing.T) {
	for _, tc := range []struct {
		name            string
		missing         float64 // share of slots without a code
		emptySlots      int     // trailing slots without rows
		unresolvedEvery int     // every k-th row has no slot (0 = none)
		wantZero        bool
	}{
		{name: "missing codes", missing: 0.2},
		{name: "complete"},
		{name: "slots without rows", missing: 0.2, emptySlots: 7},
		{name: "unresolved rows", missing: 0.1, emptySlots: 3, unresolvedEvery: 5},
		{name: "every code missing", missing: 1, wantZero: true},
	} {
		rng := stats.NewRNG(3)
		nSlots, rowsPer := 40, 25
		n := nSlots * rowsPer
		slotCodes := make([]int32, nSlots+tc.emptySlots) // entity-level attribute codes
		for i := range slotCodes {
			if rng.Float64() < tc.missing {
				slotCodes[i] = bins.Missing
			} else {
				slotCodes[i] = int32(rng.Intn(4))
			}
		}
		oVals := make([]float64, n)
		rowSlot := make([]int32, n)
		for i := 0; i < n; i++ {
			rowSlot[i] = int32(i % nSlots)
			if tc.unresolvedEvery > 0 && i%tc.unresolvedEvery == 0 {
				rowSlot[i] = -1
			}
			base := 0.0
			if s := rowSlot[i]; s >= 0 && slotCodes[s] != bins.Missing {
				base = float64(slotCodes[s])
			}
			oVals[i] = base + rng.Norm()
		}
		o, err := bins.Encode(table.NewFloatColumn("O", oVals), bins.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}

		// Contingency (o code × slot): the (·, O, ·) cube's own.
		fast := slotMI(newSlotFolds(nil, o).cube(rowSlot, nil, o, nil), slotCodes, 4)

		// Row-level reference.
		e := (&bins.Encoded{Name: "E", Card: 4, Codes: slotCodes}).Broadcast(rowSlot)
		slow := infotheory.MutualInfo(o, e, nil)
		if math.Float64bits(fast) != math.Float64bits(slow) {
			t.Errorf("%s: slotMI = %v (%#x), row-level MI = %v (%#x)", tc.name, fast, math.Float64bits(fast), slow, math.Float64bits(slow))
		}
		if tc.wantZero != (fast == 0) {
			t.Errorf("%s: slotMI = %v, fixture meant zero = %v", tc.name, fast, tc.wantZero)
		}
	}
}
