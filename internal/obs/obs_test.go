package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestNilTraceIsNoOp(t *testing.T) {
	var tr *Trace
	sp := tr.Start("x")
	if sp != nil {
		t.Fatalf("Start on nil trace returned %v, want nil", sp)
	}
	sp.SetStr("k", "v")
	sp.SetInt("n", 1)
	sp.SetFloat("f", 1.5)
	sp.End()
	tr.Add(CITests, 1)
	if ev := tr.Events(); ev != nil {
		t.Fatalf("Events on nil trace = %v, want nil", ev)
	}
	if c := tr.Counters(); c != nil {
		t.Fatalf("Counters on nil trace = %v, want nil", c)
	}
	if got := tr.Counters().Get(CITests); got != 0 {
		t.Fatalf("Get on nil counters = %d, want 0", got)
	}
	snap := tr.Close()
	if snap.Root != nil || snap.TotalNS != 0 {
		t.Fatalf("Close on nil trace = %+v, want zero snapshot", snap)
	}
}

func TestNilPathAllocatesNothing(t *testing.T) {
	var tr *Trace
	allocs := testing.AllocsPerRun(200, func() {
		sp := tr.Start("phase")
		sp.End()
		tr.Add(PermutationsRun, 19)
		tr.Counters().Add(CITests, 1)
	})
	if allocs != 0 {
		t.Fatalf("nil-trace instrumentation allocated %v objects/op, want 0", allocs)
	}
}

func TestSpanNestingFollowsCallOrder(t *testing.T) {
	tr := New("root")
	a := tr.Start("a")
	a1 := tr.Start("a1")
	a1.End()
	a2 := tr.Start("a2")
	a2.End()
	a.End()
	b := tr.Start("b")
	b.End()
	snap := tr.Close()

	root := snap.Root
	if root == nil || root.Name != "root" {
		t.Fatalf("root = %+v", root)
	}
	if len(root.Children) != 2 || root.Children[0].Name != "a" || root.Children[1].Name != "b" {
		t.Fatalf("root children = %+v, want [a b]", root.Children)
	}
	ac := root.Children[0].Children
	if len(ac) != 2 || ac[0].Name != "a1" || ac[1].Name != "a2" {
		t.Fatalf("a children = %+v, want [a1 a2]", ac)
	}
	if snap.TotalNS <= 0 {
		t.Fatalf("TotalNS = %d, want > 0", snap.TotalNS)
	}
}

func TestCloseEndsOpenSpans(t *testing.T) {
	tr := New("root")
	tr.Start("left-open")
	snap := tr.Close()
	if snap.Root.DurNS < snap.Root.Children[0].DurNS {
		t.Fatalf("root %dns shorter than child %dns", snap.Root.DurNS, snap.Root.Children[0].DurNS)
	}
	// Double-close is a no-op returning a consistent snapshot.
	again := tr.Close()
	if again.Root == nil || again.Root.Name != "root" {
		t.Fatalf("second Close = %+v", again)
	}
}

func TestCountersConcurrent(t *testing.T) {
	c := NewCounters()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Add(CITests, 1)
				c.Add(PermutationsRun, 2)
			}
		}()
	}
	wg.Wait()
	if got := c.Get(CITests); got != 8000 {
		t.Fatalf("ci_tests = %d, want 8000", got)
	}
	snap := c.Snapshot()
	if snap[PermutationsRun] != 16000 {
		t.Fatalf("permutations_run = %d, want 16000", snap[PermutationsRun])
	}
}

func TestSpanAttrsAndDuration(t *testing.T) {
	tr := New("root")
	sp := tr.Start("mcimr iteration 1")
	sp.SetStr("candidate", "HDI")
	sp.SetFloat("cmi", 0.0123)
	sp.SetInt("skips", 2)
	sp.End()
	if sp.Duration() <= 0 {
		t.Fatalf("Duration = %v, want > 0", sp.Duration())
	}
	snap := tr.Close()
	got := snap.Root.Children[0].Attrs
	want := []Attr{{"candidate", "HDI"}, {"cmi", "0.0123"}, {"skips", "2"}}
	if len(got) != len(want) {
		t.Fatalf("attrs = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("attr %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestWriteJSONLEmitsSpanAndCounterEvents(t *testing.T) {
	tr := New("root")
	sp := tr.Start("prepare")
	sp.SetInt("rows", 42)
	sp.End()
	tr.Add(CITests, 3)
	tr.Close()
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}

	var events []Event
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	// prepare end, root end (via Close), counters.
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3: %+v", len(events), events)
	}
	if events[0].Type != "span" || events[0].Name != "prepare" || events[0].Path != "root/prepare" {
		t.Fatalf("first event = %+v", events[0])
	}
	if events[0].DurNS <= 0 {
		t.Fatalf("span event has DurNS %d, want > 0", events[0].DurNS)
	}
	if len(events[0].Attrs) != 1 || events[0].Attrs[0] != (Attr{"rows", "42"}) {
		t.Fatalf("span event attrs = %+v, want rows=42", events[0].Attrs)
	}
	if events[1].Type != "span" || events[1].Path != "root" {
		t.Fatalf("second event = %+v, want the root span", events[1])
	}
	last := events[len(events)-1]
	if last.Type != "counters" || last.Counters[CITests] != 3 {
		t.Fatalf("last event = %+v, want counters with ci_tests=3", last)
	}
}

// Events lists spans in the order they ended, not the order they started:
// a child ends before its parent, and spans Close ends come deepest first.
func TestEventsFollowEndOrder(t *testing.T) {
	tr := New("root")
	a := tr.Start("a")
	tr.Start("a1").End()
	b := tr.Start("b") // child of a, left open
	a.End()            // out of order: a ends before b
	b.End()
	tr.Start("c") // left open: Close ends it, then root
	tr.Close()
	var got []string
	for _, e := range tr.Events() {
		got = append(got, e.Path)
	}
	want := []string{"root/a/a1", "root/a", "root/a/b", "root/c", "root"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("event paths = %v, want %v", got, want)
	}
}

func TestWriteTreeRendersPhasesAndCounters(t *testing.T) {
	tr := New("explain")
	p := tr.Start("prepare")
	tr.Start("execute-query").End()
	p.End()
	tr.Start("mcimr").End()
	tr.Add(CITests, 7)
	snap := tr.Close()

	var buf bytes.Buffer
	if err := snap.WriteTree(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"explain", "├─ prepare", "└─ execute-query", "└─ mcimr", "counters:", "ci_tests"} {
		if !strings.Contains(out, want) {
			t.Fatalf("tree output missing %q:\n%s", want, out)
		}
	}
}

func TestPrunedAndHopCounterNames(t *testing.T) {
	if got := PrunedCounter("offline", "high-entropy"); got != "pruned.offline.high-entropy" {
		t.Fatalf("PrunedCounter = %q", got)
	}
	if got := HopCounter(2); got != "kg_attrs_hop2" {
		t.Fatalf("HopCounter = %q", got)
	}
}

func TestSnapshotJSONRoundTrips(t *testing.T) {
	tr := New("root")
	tr.Start("phase").End()
	tr.Add(KGAttrs, 5)
	snap := tr.Close()
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != "root" || back.Counters[KGAttrs] != 5 || back.Root.Children[0].Name != "phase" {
		t.Fatalf("round-tripped snapshot = %+v", back)
	}
}

func TestOutOfOrderEndTolerated(t *testing.T) {
	tr := New("root")
	a := tr.Start("a")
	b := tr.Start("b")
	a.End() // parent ended before child
	b.End() // must not panic; current pointer stays sane
	c := tr.Start("c")
	c.End()
	snap := tr.Close()
	if len(snap.Root.Children) < 2 {
		t.Fatalf("children = %+v", snap.Root.Children)
	}
}
