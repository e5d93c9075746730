package distwire

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"nexus/internal/bins"
	"nexus/internal/core"
)

func testDataset() Dataset {
	enc := func(name string, codes ...int32) Column {
		card := int32(0)
		for _, c := range codes {
			if c >= card {
				card = c + 1
			}
		}
		return Column{Name: name, Card: int(card), Codes: codes}
	}
	return Dataset{
		Fingerprint: "mcimr:00000000deadbeef",
		Cols: []Column{
			enc("T", 0, 1, 0, 1),
			enc("O", 1, 1, 0, 0),
			enc("A", 0, 1, 2, 0),
			enc("B", 2, 2, 1, 0),
		},
		Weights: [][]float64{nil, nil, nil, {0.5, 1, 1, 0.25}},
	}
}

// TestDatasetRoundTrip pins the exactness contract of the wire format:
// int32 codes, uint64 seeds and float64 weights survive a JSON round trip
// bit-for-bit — the foundation of byte-identical distributed scoring.
func TestDatasetRoundTrip(t *testing.T) {
	d := testDataset()
	// Adversarial floats: shortest-repr marshalling must reproduce these
	// exactly, including a subnormal and a value with no short decimal.
	d.Weights[3] = []float64{0.1 + 0.2, math.Nextafter(1, 2), 5e-324, 1e300}
	blob, err := json.Marshal(&d)
	if err != nil {
		t.Fatal(err)
	}
	var got Dataset
	if err := json.Unmarshal(blob, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d, got) {
		t.Errorf("dataset changed across the wire:\n got %+v\nwant %+v", got, d)
	}
	for i, w := range d.Weights[3] {
		if math.Float64bits(got.Weights[3][i]) != math.Float64bits(w) {
			t.Errorf("weight %d: bits %x != %x", i, math.Float64bits(got.Weights[3][i]), math.Float64bits(w))
		}
	}
}

// TestUnitRoundTrip checks the same for work units, in particular that
// large uint64 seeds do not take a float64 detour.
func TestUnitRoundTrip(t *testing.T) {
	g := Column{Name: "given", Card: 2, Codes: []int32{0, 1, 1, 0}}
	units := []Unit{
		{Kind: KindRelevance, Cands: []int{0, 1}},
		{Kind: KindPerm, Cand: 1, Op: OpResp, Observed: 0.030000000000000002,
			Seeds: []uint64{math.MaxUint64, math.MaxUint64 - 1, 0x9e3779b97f4a7c15}, Allow: 1, Given: &g},
	}
	blob, err := json.Marshal(units)
	if err != nil {
		t.Fatal(err)
	}
	var got []Unit
	if err := json.Unmarshal(blob, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(units, got) {
		t.Errorf("units changed across the wire:\n got %+v\nwant %+v", got, units)
	}
	if got[1].Seeds[0] != math.MaxUint64 {
		t.Errorf("seed 0 = %d, want MaxUint64 (float detour?)", got[1].Seeds[0])
	}
}

// TestContextsRoundTrip checks that a score context rebuilt from its wire
// dataset has identical columns, weights and fingerprint-relevant content.
func TestContextsRoundTrip(t *testing.T) {
	mk := func(name string, codes ...int32) *bins.Encoded {
		card := int32(0)
		for _, c := range codes {
			if c >= card {
				card = c + 1
			}
		}
		return &bins.Encoded{Name: name, Card: int(card), Codes: codes}
	}
	sc := &core.ScoreContext{
		T:       mk("T", 0, 1, 0, 1),
		O:       mk("O", 1, 1, 0, 0),
		Cands:   []*bins.Encoded{mk("A", 0, 1, 2, 0), mk("B", 2, 2, 1, 0)},
		Weights: [][]float64{nil, {0.5, 1, 1, 0.25}},
	}
	d := FromScoreContext(sc)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	blob, _ := json.Marshal(&d)
	var wired Dataset
	if err := json.Unmarshal(blob, &wired); err != nil {
		t.Fatal(err)
	}
	got := wired.Context()
	if !reflect.DeepEqual(got.T, sc.T) || !reflect.DeepEqual(got.O, sc.O) ||
		!reflect.DeepEqual(got.Cands, sc.Cands) || !reflect.DeepEqual(got.Weights, sc.Weights) {
		t.Errorf("rebuilt score context differs from the original")
	}
}

// TestDatasetValidate covers each structural rejection.
func TestDatasetValidate(t *testing.T) {
	base := testDataset()
	cases := []struct {
		name   string
		mutate func(*Dataset)
	}{
		{"no fingerprint", func(d *Dataset) { d.Fingerprint = "" }},
		{"too few columns", func(d *Dataset) { d.Cols = d.Cols[:1] }},
		{"ragged rows", func(d *Dataset) { d.Cols[2].Codes = d.Cols[2].Codes[:2] }},
		{"weights misaligned", func(d *Dataset) { d.Weights = d.Weights[:2] }},
		{"short weight vector", func(d *Dataset) { d.Weights[3] = []float64{1} }},
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("baseline dataset invalid: %v", err)
	}
	for _, tc := range cases {
		d := base
		d.Cols = append([]Column(nil), base.Cols...)
		d.Weights = append([][]float64(nil), base.Weights...)
		tc.mutate(&d)
		if err := d.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a broken dataset", tc.name)
		}
	}
}

// TestUnitValidate covers per-kind bounds checks.
func TestUnitValidate(t *testing.T) {
	d := testDataset()
	ok := []Unit{
		{Kind: KindRelevance, Cands: []int{0, 1}},
		{Kind: KindPerm, Cand: 0, Op: OpResp},
		{Kind: KindPerm, Cand: 1, Op: OpGain},
	}
	for i, u := range ok {
		if err := u.Validate(&d); err != nil {
			t.Errorf("unit %d rejected: %v", i, err)
		}
	}
	bad := []Unit{
		{Kind: "mystery"},
		{Kind: KindRelevance, Cands: []int{2}},
		{Kind: KindRelevance, Cands: []int{-1}},
		{Kind: KindPerm, Cand: 5, Op: OpResp},
		{Kind: KindPerm, Cand: 0, Op: "sideways"},
		{Kind: KindPerm, Cand: 0, Op: OpResp, Given: &Column{Codes: []int32{1}}},
		// A subgroup unit from an older coordinator: Alg. 2 scores in process.
		{Kind: "subgroup", Cands: []int{0}},
	}
	for i, u := range bad {
		if err := u.Validate(&d); err == nil {
			t.Errorf("bad unit %d accepted", i)
		}
	}
}

// FuzzDistUnit fuzzes the work-unit decode → validate → re-encode path: any
// bytes may arrive at a worker, and whatever decodes and validates must
// re-encode to a semantically identical unit (no field silently dropped or
// coerced). The seeds are one unit of each kind and a subgroup unit as older
// coordinators sent it, whose kind Validate rejects as unknown; the
// checked-in corpus holds another (seed-subgroup).
func FuzzDistUnit(f *testing.F) {
	for _, u := range []Unit{
		{Kind: KindRelevance, Cands: []int{0, 1}},
		{Kind: KindPerm, Cand: 1, Op: OpResp, Observed: 0.25,
			Seeds: []uint64{1, math.MaxUint64}, Allow: 1,
			Given: &Column{Name: "g", Card: 2, Codes: []int32{0, 1, 1, 0}}},
	} {
		blob, err := json.Marshal(u)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Add([]byte(`{"kind":"subgroup","groups":[{"conds":[{"attr":0,"code":3}]}]}`))
	d := testDataset()
	f.Fuzz(func(t *testing.T, blob []byte) {
		var u Unit
		if err := json.Unmarshal(blob, &u); err != nil {
			return // malformed JSON is the decoder's problem, not ours
		}
		_ = u.Validate(&d) // must not panic, whatever arrived
		re, err := json.Marshal(u)
		if err != nil {
			t.Fatalf("unit decoded from %q cannot re-encode: %v", blob, err)
		}
		var u2 Unit
		if err := json.Unmarshal(re, &u2); err != nil {
			t.Fatalf("re-encoded unit %q does not decode: %v", re, err)
		}
		if !reflect.DeepEqual(normalize(u), normalize(u2)) {
			t.Fatalf("unit not stable across re-encode:\nfirst  %+v\nsecond %+v", u, u2)
		}
	})
}

// normalize maps empty slices to nil so DeepEqual compares semantics, not
// the []T{} vs nil distinction omitempty erases.
func normalize(u Unit) Unit {
	if len(u.Cands) == 0 {
		u.Cands = nil
	}
	if len(u.Seeds) == 0 {
		u.Seeds = nil
	}
	if u.Given != nil && len(u.Given.Codes) == 0 {
		u.Given.Codes = nil
	}
	return u
}
