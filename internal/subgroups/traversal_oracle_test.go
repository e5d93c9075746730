package subgroups

// Differential oracle for the lattice search. oracleTopUnexplained is the
// pre-change traversal kept serial: every refinement of an expanded node is
// materialised (one map partition per attribute) and pushed, whatever the
// budget, and every consumed node is scored by the masked full-table pass.
// TopUnexplained — size histograms, lazy carving, row-list scoring and the
// reachability cut — must consume the same nodes with the same score bits
// and return the same results; only Pushed may differ, downwards.

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"nexus/internal/bins"
	"nexus/internal/infotheory"
	"nexus/internal/obs"
)

func oracleTopUnexplained(t, o *bins.Encoded, explanation []*bins.Encoded, attrs []RefinementAttr, opts Options, minSize, explored int) (results, consumed []Group, stats Stats) {
	n := t.Len()
	if len(explanation) > 1 {
		vars := make([]infotheory.Var, len(explanation))
		for i, e := range explanation {
			vars[i] = e
		}
		explanation = []*bins.Encoded{infotheory.JoinVars("explanation", vars...)}
	}
	rowsOf := map[*node][]int{}
	h := &nodeHeap{}
	pushChildren := func(g Group, gRows []int) {
		startAttr := 0
		if len(g.Conds) > 0 {
			startAttr = g.Conds[len(g.Conds)-1].AttrIdx + 1
		}
		for ai := startAttr; ai < len(attrs); ai++ {
			enc := attrs[ai].Enc
			parts := make(map[int32][]int)
			var codes []int32
			for _, r := range gRows {
				c := enc.Codes[r]
				if c == bins.Missing {
					continue
				}
				if parts[c] == nil {
					codes = append(codes, c)
				}
				parts[c] = append(parts[c], r)
			}
			sort.Slice(codes, func(a, b int) bool { return codes[a] < codes[b] })
			for _, code := range codes {
				rows := parts[code]
				if len(rows) < minSize || len(rows) == g.Size {
					continue
				}
				label := fmt.Sprintf("%d", code)
				if int(code) < len(enc.Labels) {
					label = enc.Labels[code]
				}
				child := &node{Group: Group{
					Conds: append(append([]Assignment(nil), g.Conds...), Assignment{
						AttrIdx: ai, Attr: attrs[ai].Name, Code: code, Value: label,
					}),
					Size: len(rows),
				}}
				rowsOf[child] = rows
				heap.Push(h, child)
				stats.Pushed++
			}
		}
	}
	allRows := make([]int, n)
	for i := range allRows {
		allRows[i] = i
	}
	pushChildren(Group{Size: n}, allRows)
	scratch := make([]float64, n)
	for h.Len() > 0 && len(results) < opts.K && stats.Explored < explored {
		g := heap.Pop(h).(*node)
		stats.Explored++
		for i := range scratch {
			scratch[i] = 0
		}
		for _, r := range rowsOf[g] {
			scratch[r] = 1
		}
		g.Score = infotheory.CondMutualInfoDebiased(o, t, explanation, scratch)
		consumed = append(consumed, g.Group)
		if g.Score > opts.Tau {
			dominated := false
			for _, r := range results {
				if r.isAncestorOf(g.Group) {
					dominated = true
					break
				}
			}
			if !dominated {
				results = append(results, g.Group)
			}
			continue
		}
		if len(g.Conds) < maxDepth {
			pushChildren(g.Group, rowsOf[g])
		}
		delete(rowsOf, g)
	}
	return results, consumed, stats
}

func renderGroups(groups []Group) string {
	var b strings.Builder
	for _, g := range groups {
		fmt.Fprintf(&b, "%s|%d|%#x\n", g.String(), g.Size, math.Float64bits(g.Score))
	}
	return b.String()
}

// tieHeavyRandom draws a lattice full of equal-size siblings (attributes are
// i-periodic with a random sprinkle, some with missing codes). T and O both
// follow the explanation with noise plus a weak direct link, so most scores
// are small but positive, and inside a0 == 0 O copies T, so some groups
// qualify at a moderate τ.
func tieHeavyRandom(seed int64) (te, oe *bins.Encoded, expl []*bins.Encoded, attrs []RefinementAttr) {
	r := rand.New(rand.NewSource(seed))
	n := 900 + 300*r.Intn(4)
	enc := func(name string, card int, code func(i int) int) *bins.Encoded {
		e := &bins.Encoded{Name: name, Card: card, Codes: make([]int32, n)}
		for i := range e.Codes {
			e.Codes[i] = int32(code(i) % card)
		}
		for c := 0; c < card; c++ {
			e.Labels = append(e.Labels, fmt.Sprintf("%s%d", name, c))
		}
		return e
	}
	for k := 0; k < 4+r.Intn(3); k++ {
		div := 1 << (2 * k)
		a := enc(fmt.Sprintf("a%d", k), 2+r.Intn(4), func(i int) int {
			if r.Intn(40) == 0 {
				return r.Intn(4)
			}
			return i / div
		})
		if k%2 == 1 {
			for i := 0; i < n; i += 11 + k {
				a.Codes[i] = bins.Missing
			}
		}
		attrs = append(attrs, RefinementAttr{Name: a.Name, Enc: a})
	}
	for k := 0; k < 1+r.Intn(2); k++ {
		div := 7 << k
		expl = append(expl, enc(fmt.Sprintf("E%d", k), 2+k, func(i int) int { return i / div }))
	}
	noisy := func(i int) int {
		if r.Intn(5) == 0 {
			return r.Intn(3)
		}
		return int(expl[0].Codes[i])
	}
	te = enc("T", 3, noisy)
	oe = enc("O", 3, func(i int) int {
		if attrs[0].Enc.Codes[i] == 0 || r.Intn(8) == 0 {
			return int(te.Codes[i])
		}
		return noisy(i)
	})
	return
}

func TestTopUnexplainedMatchesUncutOracle(t *testing.T) {
	cut := 0
	for seed := int64(1); seed <= 6; seed++ {
		te, oe, expl, attrs := tieHeavyRandom(seed)
		for _, tau := range []float64{0.1, 0.35, 100} {
			for _, maxExplored := range []int{1, 7, 50, 1500} {
				opts := Options{K: 4, Tau: tau}
				wantRes, wantSeq, wantStats := oracleTopUnexplained(te, oe, expl, attrs, opts, 5, maxExplored)
				for _, p := range []int{1, 2, 4, 8} {
					opts.Parallelism = p
					var seq []Group
					res, st, err := topUnexplained(context.Background(), te, oe, expl, attrs, opts, 5, maxExplored,
						func(g Group) { seq = append(seq, g) })
					if err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("seed=%d τ=%v maxExplored=%d P=%d", seed, tau, maxExplored, p)
					if got, want := renderGroups(res), renderGroups(wantRes); got != want {
						t.Fatalf("%s: results differ:\n%s--- oracle ---\n%s", name, got, want)
					}
					if got, want := renderGroups(seq), renderGroups(wantSeq); got != want {
						t.Fatalf("%s: consumed sequence differs:\n%s--- oracle ---\n%s", name, got, want)
					}
					if st.Explored != wantStats.Explored || st.Pushed > wantStats.Pushed {
						t.Fatalf("%s: stats %+v, oracle %+v", name, st, wantStats)
					}
					if st.Pushed < wantStats.Pushed {
						cut++
					}
				}
			}
		}
	}
	if cut == 0 {
		t.Fatal("the reachability cut never dropped a node; the fixture does not exercise it")
	}
}

// TestTopUnexplainedSparseDomain plants an unexplained group under an
// explanation whose joint domain with T and O leaves counting.MaxDense. The
// masked scorer returned NaN for every proper subgroup there, so the search
// silently found nothing.
func TestTopUnexplainedSparseDomain(t *testing.T) {
	const n, cardT, cardO, cardE = 20000, 300, 8, 2000
	r := rand.New(rand.NewSource(3))
	te := &bins.Encoded{Name: "T", Card: cardT, Codes: make([]int32, n)}
	oe := &bins.Encoded{Name: "O", Card: cardO, Codes: make([]int32, n)}
	ee := &bins.Encoded{Name: "E", Card: cardE, Codes: make([]int32, n)}
	region := &bins.Encoded{Name: "region", Card: 4, Labels: []string{"EU", "AS", "NA", "AF"}, Codes: make([]int32, n)}
	for i := 0; i < n; i++ {
		region.Codes[i] = int32(r.Intn(4))
		ee.Codes[i] = int32(r.Intn(cardE))
		te.Codes[i] = int32(r.Intn(cardT))
		oe.Codes[i] = int32(r.Intn(cardO))
		if region.Codes[i] == 0 { // inside EU, O follows T whatever E says
			te.Codes[i] = int32(r.Intn(8))
			oe.Codes[i] = te.Codes[i]
			ee.Codes[i] = int32(r.Intn(20))
		}
	}
	tr := obs.New("search")
	groups, _, err := TopUnexplained(obs.WithTrace(context.Background(), tr), te, oe, []*bins.Encoded{ee}, []RefinementAttr{{Name: "region", Enc: region}},
		Options{K: 1, Tau: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Counters().Get(obs.CountingSparsePasses) == 0 {
		t.Fatal("fixture stayed on the dense path")
	}
	if len(groups) != 1 || groups[0].String() != "region == EU" {
		t.Fatalf("groups = %v, want region == EU", groups)
	}
}
