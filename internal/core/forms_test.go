package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"nexus/internal/bins"
	"nexus/internal/infotheory"
	"nexus/internal/stats"
	"nexus/internal/table"
)

// combineWeights is weightProduct over row vectors.
func combineWeights(ws ...[]float64) []float64 {
	forms := make([]infotheory.Weights, len(ws))
	for i, w := range ws {
		forms[i] = infotheory.Weights{W: w}
	}
	return weightProduct(forms...).W
}

// TestWeightProductEqualsBroadcastProduct: a product of weight vectors in
// either form is, bit for bit, the product of their broadcasts, unresolved
// rows (weight 0) included; a single weighted input comes back as it is.
func TestWeightProductEqualsBroadcastProduct(t *testing.T) {
	rng := stats.NewRNG(4)
	const n, nSlots = 300, 40
	slots := func() []int32 {
		s := make([]int32, n)
		for i := range s {
			s[i] = int32(rng.Intn(nSlots+1)) - 1
		}
		return s
	}
	vec := func(k int) []float64 {
		w := make([]float64, k)
		for i := range w {
			w[i] = 0.5 + rng.Float64()
		}
		return w
	}
	a := infotheory.Weights{W: vec(nSlots), Slots: slots()}
	b := infotheory.Weights{W: vec(nSlots), Slots: slots()}
	r := infotheory.Weights{W: vec(n)}
	for _, ws := range [][]infotheory.Weights{{a, b}, {r, a}, {a, {}, r, b}, {{}, b, r}} {
		rows := make([][]float64, len(ws))
		for i, w := range ws {
			rows[i] = w.Rows()
		}
		got, want := weightProduct(ws...), combineWeights(rows...)
		if got.Slots != nil || !slices.EqualFunc(got.W, want, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
			t.Fatalf("product of %d forms differs from the product of their broadcasts", len(ws))
		}
	}
	if got := weightProduct(infotheory.Weights{}, a, infotheory.Weights{}); &got.W[0] != &a.W[0] || &got.Slots[0] != &a.Slots[0] {
		t.Fatal("a single weighted input must come back as it is")
	}
}

// broadcastForm is c without its entity form: Enc, Weights and the broadcast
// of each Permute draw, so every statistic is computed over rows.
func broadcastForm(c *Candidate) *Candidate {
	return &Candidate{Name: c.Name, Origin: c.Origin, Hops: c.Hops, Enc: c.Enc, Weights: c.Weights,
		Permute: func(rng *stats.RNG) (*bins.Encoded, error) {
			d, err := c.Permute(rng)
			if err != nil {
				return nil, err
			}
			return d.Broadcast(d.Slots), nil
		}}
}

// TestExplainIndirectEqualsBroadcast runs Explain over entity-form
// candidates, IPW-weighted ones among them, and over the same candidates
// broadcast to rows: every score, relevance, responsibility and prune count
// is Float64bits-equal, also with a link column that resolves no row and an
// attribute missing on every slot. The prune's entity-level null is off: it
// is a different test from a row-level one by design.
func TestExplainIndirectEqualsBroadcast(t *testing.T) {
	rng := stats.NewRNG(8)
	const n, nA, nB = 3000, 90, 40
	slotsA, slotsB, nowhere := make([]int32, n), make([]int32, n), make([]int32, n)
	z := make([]float64, nA)
	for s := range z {
		z[s] = rng.Norm()
	}
	tv, ov := make([]float64, n), make([]float64, n)
	for i := range slotsA {
		slotsA[i], slotsB[i], nowhere[i] = int32(rng.Intn(nA)), int32(rng.Intn(nB)), -1
		if rng.Intn(8) == 0 {
			slotsA[i] = -1
		}
		if rng.Intn(6) == 0 {
			slotsB[i] = -1
		}
		a := 0.0
		if s := slotsA[i]; s >= 0 {
			a = z[s]
		}
		tv[i], ov[i] = a+rng.Norm(), 2*a+0.5*rng.Norm()
	}
	encode := func(name string, vals []float64) *bins.Encoded {
		e, err := bins.Encode(table.NewFloatColumn(name, vals), bins.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	tEnc, oEnc := encode("T", tv), encode("O", ov)
	entity := func(name string, slots []int32, vals []float64, weighted bool) *Candidate {
		slotEnc := encode(name, vals)
		ent := &Entity{Slots: slots, Enc: func() (*bins.Encoded, error) { return slotEnc, nil }}
		if weighted {
			w := make([]float64, len(vals))
			for s := range w {
				w[s] = 0.5 + rng.Float64()
			}
			ent.Weights = func() []float64 { return w }
		}
		return FromEntity(name, 1, ent, nil)
	}
	noisy := func(k int, scale float64) []float64 {
		out := make([]float64, k)
		for s := range out {
			out[s] = rng.Norm()
			if s < len(z) && scale > 0 {
				out[s] = z[s] + scale*out[s]
			}
		}
		return out
	}
	allMissing := make([]float64, nA)
	for s := range allMissing {
		allMissing[s] = math.NaN()
	}
	base := []*Candidate{
		entity("Z", slotsA, z, false),
		entity("Zw", slotsA, noisy(nA, 0.4), true),
		entity("JunkW", slotsB, noisy(nB, 0), true),
		entity("Junk", slotsB, noisy(nB, 0), false),
	}
	for _, tc := range []struct {
		name  string
		extra *Candidate
	}{
		{"weighted and unweighted", nil},
		{"link column resolving no row", entity("Nowhere", nowhere, noisy(nB, 0), true)},
		{"attribute missing on every slot", entity("AllMissing", slotsA, allMissing, false)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cands := append([]*Candidate{}, base...)
			if tc.extra != nil {
				cands = append(cands, tc.extra)
			}
			rows := make([]*Candidate, len(cands))
			for i, c := range cands {
				rows[i] = broadcastForm(c)
			}
			opts := DefaultOptions()
			opts.Prune.DisablePermRelevance = true
			explain := func(cs []*Candidate) string {
				ex, err := Explain(context.Background(), tEnc, oEnc, cs, opts)
				if err != nil {
					t.Fatal(err)
				}
				return fmt.Sprintf("%x %x %+v %+v %v", math.Float64bits(ex.BaseScore), math.Float64bits(ex.Score), ex.OfflineStats, ex.OnlineStats, attrBits(ex))
			}
			got, want := explain(cands), explain(rows)
			if got != want {
				t.Fatalf("entity form:\n%s\nbroadcast:\n%s", got, want)
			}
			if !strings.Contains(got, "Z") {
				t.Fatalf("fixture too weak: %s", got)
			}
		})
	}
}

func attrBits(ex *Explanation) []string {
	out := make([]string, len(ex.Attrs))
	for i, a := range ex.Attrs {
		out[i] = fmt.Sprintf("%s rel=%x resp=%x", a.Name, math.Float64bits(a.Relevance), math.Float64bits(a.Responsibility))
	}
	return out
}

// TestVectorsOfWeightedEntityForm: the core's view of an IPW-weighted
// entity-form candidate is its slot encoding and slot weights under the map,
// and it equals, read through the map, the row vectors Enc and Weights build.
func TestVectorsOfWeightedEntityForm(t *testing.T) {
	slotEnc := &bins.Encoded{Name: "slot-level", Card: 3, Codes: []int32{2, bins.Missing, 0, 1}}
	slotW := []float64{1.5, 2, 0.25, 3}
	slots := []int32{3, -1, 0, 2, 2, 1, -1, 0}
	c := FromEntity("E", 1, &Entity{
		Slots:   slots,
		Enc:     func() (*bins.Encoded, error) { return slotEnc, nil },
		Weights: func() []float64 { return slotW },
	}, nil)
	enc, w, err := c.vectors()
	if err != nil {
		t.Fatal(err)
	}
	if enc.Name != "E" || !slices.Equal(enc.Codes, slotEnc.Codes) || !slices.Equal(enc.Slots, slots) || !slices.Equal(w, slotW) {
		t.Fatalf("vectors = %+v, %v", enc, w)
	}
	rowEnc, err := c.Enc()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(enc.Broadcast(enc.Slots).Codes, rowEnc.Codes) || !slices.Equal(weightsOf(enc, w).Rows(), c.Weights(rowEnc)) {
		t.Fatal("the entity form read through its map differs from Enc and Weights")
	}
}
