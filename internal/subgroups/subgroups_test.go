package subgroups

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nexus/internal/bins"
	"nexus/internal/stats"
	"nexus/internal/table"
)

// buildData creates a dataset where a global explanation Z works everywhere
// EXCEPT inside region == "EU", where T and O stay correlated given Z.
func buildData(tb testing.TB, n int, seed uint64) (t, o, z *bins.Encoded, attrs []RefinementAttr) {
	tb.Helper()
	rng := stats.NewRNG(seed)
	tv := make([]string, n)
	ov := make([]string, n)
	zv := make([]string, n)
	region := make([]string, n)
	other := make([]string, n)
	for i := 0; i < n; i++ {
		reg := []string{"EU", "AS", "NA", "AF"}[rng.Choice([]float64{0.4, 0.25, 0.2, 0.15})]
		region[i] = reg
		other[i] = fmt.Sprintf("g%d", rng.Intn(3))
		zc := rng.Intn(4)
		zv[i] = fmt.Sprintf("z%d", zc)
		if reg == "EU" {
			// Inside EU: direct dependence between T and O not through Z.
			c := rng.Intn(4)
			tv[i] = fmt.Sprintf("t%d", c)
			ov[i] = fmt.Sprintf("o%d", c)
		} else {
			tc := zc
			oc := zc
			if rng.Float64() < 0.1 {
				tc = rng.Intn(4)
			}
			if rng.Float64() < 0.1 {
				oc = rng.Intn(4)
			}
			tv[i] = fmt.Sprintf("t%d", tc)
			ov[i] = fmt.Sprintf("o%d", oc)
		}
	}
	mk := func(name string, vals []string) *bins.Encoded {
		e, err := bins.Encode(table.NewStringColumn(name, vals), bins.DefaultOptions())
		if err != nil {
			tb.Fatal(err)
		}
		return e
	}
	t, o, z = mk("T", tv), mk("O", ov), mk("Z", zv)
	attrs = []RefinementAttr{
		{Name: "region", Enc: mk("region", region)},
		{Name: "other", Enc: mk("other", other)},
	}
	return
}

func TestTopUnexplainedFindsEU(t *testing.T) {
	te, oe, ze, attrs := buildData(t, 12000, 1)
	groups, stats, err := TopUnexplained(context.Background(), te, oe, []*bins.Encoded{ze}, attrs, Options{K: 3, Tau: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) == 0 {
		t.Fatal("no unexplained groups found")
	}
	if !strings.Contains(groups[0].String(), "region == EU") {
		t.Fatalf("top group = %q, want region == EU", groups[0])
	}
	if groups[0].Score <= 0.2 {
		t.Fatalf("top group score %.3f not above τ", groups[0].Score)
	}
	if stats.Explored == 0 || stats.Pushed == 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestTopUnexplainedOrderedBySize(t *testing.T) {
	te, oe, ze, attrs := buildData(t, 12000, 2)
	groups, _, err := TopUnexplained(context.Background(), te, oe, []*bins.Encoded{ze}, attrs, Options{K: 5, Tau: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(groups); i++ {
		if groups[i].Size > groups[i-1].Size {
			t.Fatalf("groups not in size order: %d then %d", groups[i-1].Size, groups[i].Size)
		}
	}
}

func TestTopUnexplainedAncestorSuppression(t *testing.T) {
	te, oe, ze, attrs := buildData(t, 12000, 3)
	groups, _, err := TopUnexplained(context.Background(), te, oe, []*bins.Encoded{ze}, attrs, Options{K: 10, Tau: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range groups {
		for j, h := range groups {
			if i != j && g.isAncestorOf(h) {
				t.Fatalf("result %q is an ancestor of result %q", g, h)
			}
		}
	}
}

func TestTopUnexplainedRespectsTau(t *testing.T) {
	te, oe, ze, attrs := buildData(t, 12000, 4)
	// τ above any group's score → nothing qualifies.
	groups, _, err := TopUnexplained(context.Background(), te, oe, []*bins.Encoded{ze}, attrs, Options{K: 5, Tau: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 0 {
		t.Fatalf("groups with impossible τ: %v", groups)
	}
}

func TestTopUnexplainedExhaustedOnlyWhenLatticeIs(t *testing.T) {
	// With τ above every score nothing qualifies, so the search runs until
	// the lattice or the budget ends it; only the former is exhaustion.
	te, oe, ze, attrs := buildData(t, 12000, 4)
	search := func(maxExplored int) Stats {
		groups, st, err := TopUnexplained(context.Background(), te, oe, []*bins.Encoded{ze}, attrs,
			Options{K: 5, Tau: 100, MaxExplored: maxExplored})
		if err != nil {
			t.Fatal(err)
		}
		if len(groups) != 0 {
			t.Fatalf("groups with impossible τ: %v", groups)
		}
		return st
	}
	full := search(1500)
	if !full.Exhausted || full.Explored >= 1500 {
		t.Fatalf("ample budget: stats %+v, want the lattice exhausted", full)
	}
	cut := search(full.Explored - 1)
	if cut.Exhausted || cut.Explored != full.Explored-1 {
		t.Fatalf("budget %d below the lattice's %d nodes: stats %+v, want not exhausted", full.Explored-1, full.Explored, cut)
	}
}

func TestTopUnexplainedPerfectExplanation(t *testing.T) {
	// When T and O are driven by Z everywhere, no subgroup should exceed a
	// reasonable τ.
	rng := stats.NewRNG(5)
	n := 8000
	tv := make([]string, n)
	ov := make([]string, n)
	zv := make([]string, n)
	region := make([]string, n)
	for i := 0; i < n; i++ {
		zc := rng.Intn(4)
		zv[i] = fmt.Sprintf("z%d", zc)
		tv[i] = fmt.Sprintf("t%d", zc)
		ov[i] = fmt.Sprintf("o%d", zc)
		region[i] = []string{"a", "b"}[rng.Intn(2)]
	}
	mk := func(name string, vals []string) *bins.Encoded {
		e, _ := bins.Encode(table.NewStringColumn(name, vals), bins.DefaultOptions())
		return e
	}
	groups, _, err := TopUnexplained(context.Background(), mk("T", tv), mk("O", ov), []*bins.Encoded{mk("Z", zv)},
		[]RefinementAttr{{Name: "region", Enc: mk("r", region)}}, Options{K: 5, Tau: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 0 {
		t.Fatalf("perfectly explained data produced groups: %v", groups)
	}
}

func TestTopUnexplainedMinSize(t *testing.T) {
	te, oe, ze, attrs := buildData(t, 12000, 6)
	_, stats1, err := TopUnexplained(context.Background(), te, oe, []*bins.Encoded{ze}, attrs, Options{K: 3, Tau: 0.2, MinSize: 4000})
	if err != nil {
		t.Fatal(err)
	}
	_, stats2, err := TopUnexplained(context.Background(), te, oe, []*bins.Encoded{ze}, attrs, Options{K: 3, Tau: 0.2, MinSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	if stats1.Pushed >= stats2.Pushed {
		t.Fatalf("larger MinSize should push fewer nodes: %d vs %d", stats1.Pushed, stats2.Pushed)
	}
}

func TestTopUnexplainedLengthMismatch(t *testing.T) {
	te, oe, ze, _ := buildData(t, 1000, 7)
	bad := RefinementAttr{Name: "short", Enc: &bins.Encoded{Name: "short", Card: 1, Codes: make([]int32, 10)}}
	if _, _, err := TopUnexplained(context.Background(), te, oe, []*bins.Encoded{ze}, []RefinementAttr{bad}, Options{K: 1, Tau: 0.1}); err == nil {
		t.Fatal("expected length-mismatch error")
	}
}

// tieHeavyFixture builds a tie-heavy lattice: every refinement attribute
// splits the rows into equal-size parts, so the heap holds many groups of
// identical size and any order-dependence — map iteration in the expansion,
// unstable heap tie handling, batch-boundary effects of the parallel
// frontier — surfaces as output drift. The explanation is deliberately weak
// (most groups qualify) and has two attributes, so the pre-joined composite
// path is exercised too.
func tieHeavyFixture(tb testing.TB) (te, oe *bins.Encoded, expl []*bins.Encoded, attrs []RefinementAttr) {
	tb.Helper()
	n := 4800
	tv := make([]string, n)
	ov := make([]string, n)
	z1 := make([]string, n)
	z2 := make([]string, n)
	a1 := make([]string, n)
	a2 := make([]string, n)
	a3 := make([]string, n)
	for i := 0; i < n; i++ {
		c := i % 4
		tv[i] = fmt.Sprintf("t%d", c)
		oc := c
		if i%5 == 0 {
			oc = (c + 1) % 4
		}
		ov[i] = fmt.Sprintf("o%d", oc)
		z1[i] = fmt.Sprintf("z%d", (i/100)%2)
		z2[i] = fmt.Sprintf("y%d", (i/300)%3)
		a1[i] = fmt.Sprintf("a%d", i%4)      // four parts of 1200
		a2[i] = fmt.Sprintf("b%d", (i/4)%4)  // four parts of 1200
		a3[i] = fmt.Sprintf("c%d", (i/16)%3) // three parts of 1600
	}
	mk := func(name string, vals []string) *bins.Encoded {
		e, err := bins.Encode(table.NewStringColumn(name, vals), bins.DefaultOptions())
		if err != nil {
			tb.Fatal(err)
		}
		return e
	}
	te, oe = mk("T", tv), mk("O", ov)
	expl = []*bins.Encoded{mk("Z1", z1), mk("Z2", z2)}
	attrs = []RefinementAttr{
		{Name: "a1", Enc: mk("a1", a1)},
		{Name: "a2", Enc: mk("a2", a2)},
		{Name: "a3", Enc: mk("a3", a3)},
	}
	return
}

// renderSearch serializes groups and stats with full float precision, so
// any drift — order, score bits, effort — fails a string compare.
func renderSearch(groups []Group, st Stats) string {
	var b strings.Builder
	for _, g := range groups {
		fmt.Fprintf(&b, "%s|%d|%.17g\n", g.String(), g.Size, g.Score)
	}
	fmt.Fprintf(&b, "explored=%d pushed=%d", st.Explored, st.Pushed)
	return b.String()
}

func TestTopUnexplainedDeterministic(t *testing.T) {
	te, oe, expl, attrs := tieHeavyFixture(t)
	var first string
	for run := 0; run < 10; run++ {
		groups, st, err := TopUnexplained(context.Background(), te, oe, expl, attrs, Options{K: 6, Tau: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first = renderSearch(groups, st)
			if len(groups) == 0 {
				t.Fatal("fixture produced no qualifying groups; ties not exercised")
			}
			continue
		}
		if s := renderSearch(groups, st); s != first {
			t.Fatalf("run %d output differs:\n%s\n--- vs first run ---\n%s", run, s, first)
		}
	}
}

// TestTopUnexplainedParallelismInvariant pins the batched frontier's
// determinism contract: on a tie-heavy workload the search output — groups,
// order, score bits, Explored/Pushed stats — is byte-identical at any
// Parallelism, because batches only memoize scores and never change the
// heap's contents or the (total-order) pop sequence.
func TestTopUnexplainedParallelismInvariant(t *testing.T) {
	te, oe, expl, attrs := tieHeavyFixture(t)
	var want string
	for _, p := range []int{1, 2, 4, 8} {
		groups, st, err := TopUnexplained(context.Background(), te, oe, expl, attrs, Options{K: 6, Tau: 0.05, Parallelism: p})
		if err != nil {
			t.Fatalf("Parallelism=%d: %v", p, err)
		}
		got := renderSearch(groups, st)
		if p == 1 {
			want = got
			if len(groups) == 0 {
				t.Fatal("fixture produced no qualifying groups; ties not exercised")
			}
			continue
		}
		if got != want {
			t.Fatalf("Parallelism=%d output differs:\n%s\n--- vs serial ---\n%s", p, got, want)
		}
	}
}

// errAfterCtx is a context whose Err() starts returning context.Canceled
// after a fixed number of calls — a deterministic way to cancel mid-
// traversal, at an exact cooperative checkpoint, without racing a timer.
type errAfterCtx struct {
	context.Context
	calls int64
	after int64
}

func (c *errAfterCtx) Err() error {
	if atomic.AddInt64(&c.calls, 1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestTopUnexplainedCancellation pins the cancellation contract: a context
// cancelled mid-traversal stops the search promptly with an error wrapping
// ctx.Err(), and no scoring worker goroutine outlives the call.
func TestTopUnexplainedCancellation(t *testing.T) {
	te, oe, expl, attrs := tieHeavyFixture(t)

	t.Run("pre-cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		groups, _, err := TopUnexplained(ctx, te, oe, expl, attrs, Options{K: 6, Tau: 0.05, Parallelism: 4})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if groups != nil {
			t.Fatalf("cancelled search returned groups: %v", groups)
		}
	})

	t.Run("mid-traversal", func(t *testing.T) {
		before := runtime.NumGoroutine()
		// Let a few checkpoints pass so at least one batch is scored, then
		// cancel; the traversal must notice at its next checkpoint.
		ctx := &errAfterCtx{Context: context.Background(), after: 3}
		_, st, err := TopUnexplained(ctx, te, oe, expl, attrs, Options{K: 6, Tau: 0.05, Parallelism: 4})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if st.Explored >= 1500 {
			t.Fatalf("cancellation did not stop the search early (explored %d)", st.Explored)
		}
		// goleak-style goroutine accounting: every scoring worker must have
		// joined before TopUnexplained returned, so the count settles
		// back to the baseline (polling tolerates unrelated runtime
		// goroutines winding down).
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		if g := runtime.NumGoroutine(); g > before {
			buf := make([]byte, 1<<20)
			t.Fatalf("leaked goroutines: %d before, %d after\n%s", before, g, buf[:runtime.Stack(buf, true)])
		}
	})

	t.Run("deadline-mid-scoring", func(t *testing.T) {
		// A real (channel-backed) cancellation while workers are scoring:
		// the batch joins, the traversal returns the deadline error.
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		defer cancel()
		<-ctx.Done()
		_, _, err := TopUnexplained(ctx, te, oe, expl, attrs, Options{K: 6, Tau: 0.05, Parallelism: 4})
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", err)
		}
	})
}

// TestTopUnexplainedWideRefinementAttr is the sizing regression test:
// refinement attributes with far more bins than the exposure/outcome
// encodings — one with a Labels table shorter than its code range, one with
// Card ≥ 256, whose codes leave the packed code matrix's uint8 width — must
// neither overrun anything sized from a narrower column (the size-histogram
// bins, the matrix cells) nor derail determinism under parallel scoring.
func TestTopUnexplainedWideRefinementAttr(t *testing.T) {
	n := 3000
	tv := make([]string, n)
	ov := make([]string, n)
	zv := make([]string, n)
	wide := make([]int32, n)
	huge := make([]int32, n)
	for i := 0; i < n; i++ {
		huge[i] = int32(i % 300) // even rows: 10 per even bin, below MinSize …
		if i%2 == 1 {
			huge[i] = 296 + int32(i/2%4) // … odd rows: 375 on each of the last four
		}
		c := i % 3 // root encodings: card 3
		tv[i] = fmt.Sprintf("t%d", c)
		ov[i] = fmt.Sprintf("o%d", (c+i%2)%3)
		zv[i] = fmt.Sprintf("z%d", i%2)
		wide[i] = int32(i % 30) // 30 bins of 100 rows, card 30 >> card(T)
	}
	mk := func(name string, vals []string) *bins.Encoded {
		e, err := bins.Encode(table.NewStringColumn(name, vals), bins.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	te, oe, ze := mk("T", tv), mk("O", ov), mk("Z", zv)
	// Hand-built encoding: more bins than the root encodings, and only two
	// labels for thirty codes, so the label fallback of search.expand runs too.
	wideEnc := &bins.Encoded{Name: "wide", Card: 30, Labels: []string{"w0", "w1"}, Codes: wide}
	hugeEnc := &bins.Encoded{Name: "huge", Card: 300, Codes: huge}
	attrs := []RefinementAttr{{Name: "wide", Enc: wideEnc}, {Name: "huge", Enc: hugeEnc}}

	var want string
	for _, p := range []int{1, 4} {
		groups, st, err := TopUnexplained(context.Background(), te, oe, []*bins.Encoded{ze}, attrs,
			Options{K: 4, Tau: 0.01, MinSize: 50, Parallelism: p})
		if err != nil {
			t.Fatalf("Parallelism=%d: %v", p, err)
		}
		if st.Pushed == 0 {
			t.Fatal("wide attribute pushed no groups; fixture broken")
		}
		if len(groups) == 0 || groups[0].String() != "huge == 296" || groups[0].Size != 385 {
			t.Fatalf("top group = %v, want huge == 296 with 385 rows", groups)
		}
		got := renderSearch(groups, st)
		if p == 1 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("Parallelism=%d output differs:\n%s\n--- vs serial ---\n%s", p, got, want)
		}
	}
}

// TestTopUnexplainedShortWeights pins the up-front validation that replaced
// a silent out-of-range panic inside a scoring worker: a weight vector not
// covering every view row is an error, not a crash.
func TestTopUnexplainedShortWeights(t *testing.T) {
	te, oe, ze, attrs := buildData(t, 1000, 8)
	_, _, err := TopUnexplained(context.Background(), te, oe, []*bins.Encoded{ze}, attrs,
		Options{K: 3, Tau: 0.2, Weights: make([]float64, 10)})
	if err == nil || !strings.Contains(err.Error(), "weights") {
		t.Fatalf("err = %v, want weights-length error", err)
	}
}

func TestIsAncestorOf(t *testing.T) {
	a := Group{Conds: []Assignment{{AttrIdx: 0, Code: 1}}}
	b := Group{Conds: []Assignment{{AttrIdx: 0, Code: 1}, {AttrIdx: 1, Code: 2}}}
	c := Group{Conds: []Assignment{{AttrIdx: 1, Code: 2}}}
	if !a.isAncestorOf(b) || !c.isAncestorOf(b) {
		t.Fatal("ancestor detection failed")
	}
	if b.isAncestorOf(a) || a.isAncestorOf(c) || a.isAncestorOf(a) {
		t.Fatal("false ancestor detected")
	}
}

func TestGroupString(t *testing.T) {
	g := Group{Conds: []Assignment{
		{Attr: "Continent", Value: "Europe"},
		{Attr: "Gender", Value: "female"},
	}}
	if s := g.String(); s != "Continent == Europe AND Gender == female" {
		t.Fatalf("String() = %q", s)
	}
}
