package core

import (
	"context"
	"errors"
	"slices"
	"testing"

	"nexus/internal/bins"
	"nexus/internal/stats"
)

// TestFromEntityPermuteIsShuffleObservedBroadcast pins the null model of an
// entity-form candidate: the slot codes shuffled among the observed slots by
// ShuffleObserved — same RNG draws — and read through the row→slot map, which
// the draw keeps, with missing slot codes and unresolved rows staying Missing.
// The draw is compared through Broadcast.
func TestFromEntityPermuteIsShuffleObservedBroadcast(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		rng := stats.NewRNG(seed)
		nSlots, n := rng.Intn(30), rng.Intn(120)
		ent := &bins.Encoded{Name: "slot-level", Card: 5, Codes: make([]int32, nSlots)}
		for s := range ent.Codes {
			ent.Codes[s] = int32(rng.Intn(6)) - 1 // -1 is bins.Missing
		}
		slots := make([]int32, n)
		for i := range slots {
			slots[i] = int32(rng.Intn(nSlots+1)) - 1 // -1 is an unresolved row
		}
		c := FromEntity("E", 1, &Entity{Slots: slots, Enc: func() (*bins.Encoded, error) { return ent, nil }}, nil)
		draw, err := c.Permute(stats.NewRNG(seed * 31))
		if err != nil {
			t.Fatal(err)
		}
		if len(draw.Codes) != nSlots || draw.Len() != n {
			t.Fatalf("seed %d: Permute drew %d codes for %d rows, want %d for %d", seed, len(draw.Codes), draw.Len(), nSlots, n)
		}
		got := draw.Broadcast(draw.Slots)
		shuffled := ShuffleObserved(ent, stats.NewRNG(seed*31)).Codes
		want := make([]int32, n)
		for i, s := range slots {
			want[i] = bins.Missing
			if s >= 0 {
				want[i] = shuffled[s]
			}
		}
		if got.Name != "E" || got.Card != ent.Card || !slices.Equal(got.Codes, want) {
			t.Fatalf("seed %d: Permute = %q card %d %v, want \"E\" card %d %v", seed, got.Name, got.Card, got.Codes, ent.Card, want)
		}
	}
}

// TestFromEntityDegenerateForms drives entity forms at their edges through
// the candidate's own accessors and the whole pipeline: an unweighted
// candidate, no panic.
func TestFromEntityDegenerateForms(t *testing.T) {
	encoded := func(codes ...int32) func() (*bins.Encoded, error) {
		return func() (*bins.Encoded, error) { return &bins.Encoded{Name: "e", Card: 2, Codes: codes}, nil }
	}
	nilWeights := func() []float64 { return nil }
	cases := []struct {
		name string
		ent  *Entity
		rows int
	}{
		{"zero rows", &Entity{Slots: nil, Enc: encoded(0, 1, 0), Weights: nilWeights}, 0},
		{"zero slots", &Entity{Slots: []int32{-1, -1, -1, -1}, Enc: encoded(), Weights: nilWeights}, 4},
		{"every row unresolved", &Entity{Slots: []int32{-1, -1, -1, -1}, Enc: encoded(0, 1), Weights: nilWeights}, 4},
		{"Weights supplier returns nil", &Entity{Slots: []int32{0, 1, 1, 0}, Enc: encoded(0, 1), Weights: nilWeights}, 4},
		{"no Weights supplier", &Entity{Slots: []int32{0, 1, 1, 0}, Enc: encoded(0, 1)}, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := FromEntity("E", 1, tc.ent, nil)
			enc, w, err := c.vectors()
			if err != nil || enc.Len() != tc.rows || w != nil {
				t.Fatalf("vectors = %v, weights %v, %v; want %d rows, unweighted", enc, w, err, tc.rows)
			}
			if c.Entity.Weights != nil && c.Entity.Weights() != nil {
				t.Fatal("slot weights not nil")
			}
			if pe, err := c.Permute(stats.NewRNG(1)); err != nil || pe.Len() != tc.rows {
				t.Fatalf("Permute = %v, %v", pe, err)
			}
			to := &bins.Encoded{Name: "T", Card: 2, Codes: []int32{0, 1, 0, 1}[:tc.rows]}
			if _, err := Explain(context.Background(), to, to, []*Candidate{c}, DefaultOptions()); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Run("Enc supplier fails", func(t *testing.T) {
		boom := errors.New("boom")
		c := FromEntity("E", 1, &Entity{Slots: []int32{0}, Enc: func() (*bins.Encoded, error) { return nil, boom }}, nil)
		if _, _, err := c.vectors(); err != boom {
			t.Fatalf("vectors: %v, want the supplier's error", err)
		}
		if _, err := c.Permute(stats.NewRNG(1)); err != boom {
			t.Fatalf("Permute: %v, want the supplier's error", err)
		}
	})
}
