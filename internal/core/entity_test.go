package core

import (
	"math"
	"testing"

	"nexus/internal/bins"
	"nexus/internal/counting"
	"nexus/internal/infotheory"
	"nexus/internal/stats"
	"nexus/internal/table"
)

// TestSlotMIMatchesRowLevel checks the outcome×slot contingency shortcut
// against the generic row-level mutual information.
func TestSlotMIMatchesRowLevel(t *testing.T) {
	rng := stats.NewRNG(3)
	nSlots, rowsPer := 40, 25
	n := nSlots * rowsPer
	slotCodes := make([]int32, nSlots) // entity-level attribute codes
	for i := range slotCodes {
		if rng.Float64() < 0.2 {
			slotCodes[i] = bins.Missing
		} else {
			slotCodes[i] = int32(rng.Intn(4))
		}
	}
	oVals := make([]float64, n)
	rowSlot := make([]int32, n)
	for i := 0; i < n; i++ {
		rowSlot[i] = int32(i % nSlots)
		base := 0.0
		if c := slotCodes[rowSlot[i]]; c != bins.Missing {
			base = float64(c)
		}
		oVals[i] = base + rng.Norm()
	}
	o, err := bins.Encode(table.NewFloatColumn("O", oVals), bins.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	// Contingency (o code × slot): the cube's own, under a constant exposure.
	cube := counting.NewSlotCube(rowSlot, o.Codes, make([]int32, n), o.Card, 1)
	fast := slotMI(cube, slotCodes, 4)

	// Row-level reference.
	rowCodes := make([]int32, n)
	for i := range rowCodes {
		rowCodes[i] = slotCodes[rowSlot[i]]
	}
	e := &bins.Encoded{Name: "E", Card: 4, Codes: rowCodes}
	slow := infotheory.MutualInfo(o, e, nil)
	if math.Abs(fast-slow) > 1e-9 {
		t.Fatalf("slotMI = %v, row-level MI = %v", fast, slow)
	}
}
