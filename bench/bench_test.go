package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"nexus/internal/kg"
	"nexus/internal/workload"
)

func TestPercentileRule(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, ok := percentile(xs[:199], 0.95); ok {
		t.Error("p95 of 199 samples reported: only 9 samples lie beyond it")
	}
	if v, ok := percentile(xs, 0.95); !ok || v < 189 || v > 190 {
		t.Errorf("p95 of 0..199 = %v, %v; want about 189 and true", v, ok)
	}
	if _, ok := percentile(xs[:19], 0.5); ok {
		t.Error("p50 of 19 samples reported: only 9 samples lie beyond it")
	}
	if _, ok := percentile(xs[:20], 0.5); !ok {
		t.Error("p50 of 20 samples withheld: 10 samples lie beyond it")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Span: 1, Parent: 0, StartNS: 0, EndNS: 100},
		// Two overlapping children cover 10..60 once, not twice.
		{Span: 2, Parent: 1, StartNS: 10, EndNS: 50},
		{Span: 3, Parent: 1, StartNS: 40, EndNS: 60},
		// A child running past its parent is clipped to it.
		{Span: 4, Parent: 1, StartNS: 90, EndNS: 120},
		// Nested: the grandchild takes from span 2, not from the root.
		{Span: 5, Parent: 2, StartNS: 20, EndNS: 30},
		// A child wholly inside an earlier sibling adds nothing.
		{Span: 6, Parent: 1, StartNS: 45, EndNS: 55},
	}
	got := selfTimes(spans)
	want := map[int]int64{1: 100 - 50 - 10, 2: 40 - 10, 3: 20, 4: 30, 5: 10, 6: 10}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

// TestSlotMedians: a slot's value is the median over the rounds, so one slow
// round moves nothing, and the round's wall and CPU time are sums over slots.
func TestSlotMedians(t *testing.T) {
	ms := func(d int) time.Duration { return time.Duration(d) * time.Millisecond }
	w := &window{round: 2, isTrace: make([]bool, 6)}
	// Three rounds of (10 ms, 30 ms); the second round ran at a third of the speed.
	for _, d := range []int{10, 30, 30, 90, 10, 30} {
		w.results = append(w.results, opResult{latency: ms(d)})
		w.wall = append(w.wall, ms(d))
		w.cpu = append(w.cpu, 2*ms(d))
	}
	if got := w.slotMedians(false, w.latencyMS); !reflect.DeepEqual(got, []float64{10, 30}) {
		t.Errorf("latency per slot = %v, want [10 30]", got)
	}
	if got := sum(w.slotMedians(false, w.wallS)); math.Abs(got-0.040) > 1e-12 {
		t.Errorf("round wall = %v s, want 0.040", got)
	}
	if got := sum(w.slotMedians(false, w.cpuS)); math.Abs(got-0.080) > 1e-12 {
		t.Errorf("round CPU = %v s, want 0.080", got)
	}
	// A failed op is left out of its slot.
	w.results[4].err = fmt.Errorf("boom")
	if got := w.slotMedians(false, w.latencyMS)[0]; got != 20 {
		t.Errorf("slot 0 without its third op = %v, want 20 (the median of 10 and 30)", got)
	}
	if got := w.slotMedians(true, w.latencyMS); !reflect.DeepEqual(got, []float64{0, 0}) {
		t.Errorf("staged slots of an untraced window = %v, want zeros", got)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{3, 1, 4, 2, 5, 10, 9, 8, 7, 6}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestServeCycleDeterministic(t *testing.T) {
	sqls := []query{{SQL: "a"}, {SQL: "b"}, {SQL: "c"}, {SQL: "d"}, {SQL: "e"}, {SQL: "f"}, {SQL: "g"}}
	a, b := serveCycle(sqls, 5), serveCycle(sqls, 5)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different request cycles")
	}
	if reflect.DeepEqual(a, serveCycle(sqls, 6)) {
		t.Error("two seeds gave the same request cycle")
	}
	fresh := len(sqls) * len(serveKs)
	repeats, seen, order := 0, map[string]int{}, 0
	for i, r := range a {
		if !r.repeat {
			if _, dup := seen[r.Key]; dup {
				t.Errorf("slot %d: fresh key %q sent twice in one cycle", i, r.Key)
			}
			seen[r.Key] = order
			order++
			continue
		}
		repeats++
		at, ok := seen[r.Key]
		if !ok {
			t.Fatalf("slot %d repeats %q before it was sent", i, r.Key)
		}
		if back := order - 1 - at; back >= repeatWindow(fresh) {
			t.Errorf("slot %d reaches %d fresh keys back, window is %d", i, back, repeatWindow(fresh))
		}
	}
	// hits + shared per cycle is the number of repeat slots: fixed by the
	// schedule, so it repeats exactly from run to run.
	if want := int(float64(fresh)*repeatShare/(1-repeatShare) + 0.5); repeats != want || len(seen) != fresh {
		t.Errorf("cycle has %d repeats over %d fresh keys, want %d over %d", repeats, len(seen), want, fresh)
	}
	if cacheEntries(fresh) <= repeatWindow(fresh) || 2*cacheEntries(fresh) >= fresh {
		t.Errorf("report cache of %d entries does not sit between the repeat window %d and half the %d keys",
			cacheEntries(fresh), repeatWindow(fresh), fresh)
	}
}

func TestDigestSensitivity(t *testing.T) {
	base := func() answer {
		return answer{
			Attrs:  []answerAttr{{"GDP", "kg", 0.75}, {"Gini", "kg", 0.25}},
			Groups: []answerGroup{{"Continent == Europe", 3767}},
		}
	}
	want := base().digest()
	if base().digest() != want {
		t.Fatal("digest is not a function of the answer")
	}
	for name, change := range map[string]func(*answer){
		"attribute name":        func(a *answer) { a.Attrs[1].Name = "HDI" },
		"attribute origin":      func(a *answer) { a.Attrs[0].Origin = "input" },
		"responsibility by ulp": func(a *answer) { a.Attrs[0].Responsibility = math.Nextafter(0.75, 1) },
		"attribute order":       func(a *answer) { a.Attrs[0], a.Attrs[1] = a.Attrs[1], a.Attrs[0] },
		"dropped attribute":     func(a *answer) { a.Attrs = a.Attrs[:1] },
		"subgroup condition":    func(a *answer) { a.Groups[0].Conditions = "Continent == Asia" },
		"subgroup size":         func(a *answer) { a.Groups[0].Size++ },
	} {
		a := base()
		change(&a)
		if a.digest() == want {
			t.Errorf("digest unchanged after changing the %s", name)
		}
	}
}

// TestSmokeTiny runs all four workloads traced at toy sizes: a traced run
// alternates one-call and staged rounds, so it exercises both op forms, the
// output check and every per-layer metric.
func TestSmokeTiny(t *testing.T) {
	out := t.TempDir()
	for _, name := range workloadOrder {
		cfg := config{workload: name, seed: 3, seconds: 0.05, trace: true, scaleName: "tiny", scale: scales["tiny"], outDir: out, setupReps: 1}
		res, err := runWorkload(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d: %v", name, res.Correct, res.Attempted, res.Failed, res.failures)
		}
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics reported, want %d", name, len(res.Metrics), len(perLayer))
		}
		value := func(metric string) float64 { return res.Metrics[metric].Value }
		if c := value("trace.coverage_ratio"); c < 0.9 {
			t.Errorf("%s: top-level spans cover %.2f of a traced op, want ≥ 0.9", name, c)
		}
		if value("obs.trace_overhead_ratio") <= 0 || value("core.explain_ms") <= 0 {
			t.Errorf("%s: no trace overhead or core.explain time reported", name)
		}
		// A layer's metrics are non-zero on the workload that stresses it
		// and nowhere else.
		for metric, only := range map[string]string{
			"colstore.ingest_ms":     "flights_rows",
			"reportcache.hit_ratio":  "serve_mix",
			"server.run_ms":          "serve_mix",
			"kgremote.http_requests": "flights_dist",
			"distremote.units":       "flights_dist",
			"baseline.local_op_ms":   "flights_dist",
		} {
			if got := value(metric) != 0; got != (only == name) {
				t.Errorf("%s: %s = %v", name, metric, value(metric))
			}
		}
		data, err := os.ReadFile(filepath.Join(out, "trace-"+name+".jsonl"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var first span
		line, _, _ := strings.Cut(string(data), "\n")
		if err := json.Unmarshal([]byte(line), &first); err != nil || first.Workload != name || first.Name != "op" {
			t.Errorf("%s: first trace line %q: %v", name, line, err)
		}
	}
}

// commas writes n with a comma between thousands, as the manifest does.
func commas(n int) string {
	s := strconv.Itoa(n)
	for i := len(s) - 3; i > 0; i -= 3 {
		s = s[:i] + "," + s[i:]
	}
	return s
}

// TestManifestMatchesTables holds BENCHMARK.json to the metric and workload
// tables the program reports from.
func TestManifestMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type manifestMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var m struct {
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []manifestMetric `json:"end_to_end"`
		PerLayer []manifestMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	// The reasons quote the full-scale sizes: hold them to the tables the
	// program runs from, and the key count to the cycle it builds.
	full := scales["full"]
	world := kg.NewWorld(kg.WorldConfig{Seed: worldSeed})
	sqls := len(serveQueries(workload.StackOverflow(world, workload.Config{Rows: full.soRows, Seed: 11}), full.serveSQL))
	sizes := map[string][]string{
		"flights_rows": {fmt.Sprintf("%d generated %s-row", full.flightsInputs, commas(full.flightsRows))},
		"small_wide":   {fmt.Sprintf("%d generated inputs", full.wideInputs)},
		"serve_mix": {
			"1 closed-loop client,",
			commas(full.soRows) + " rows",
			fmt.Sprintf("%d request keys (%d SQL x %d subgroup counts)", sqls*len(serveKs), sqls, len(serveKs)),
			fmt.Sprintf("%.0f%% repeats", 100*repeatShare),
		},
		"flights_dist": {
			fmt.Sprintf("%d Flights inputs of %s rows", full.distInputs, commas(full.distRows)),
			fmt.Sprintf("%d scoring workers", distWorkers),
		},
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		for _, size := range sizes[w.Name] {
			if !strings.Contains(w.Why, size) {
				t.Errorf("workload %s: why does not say %q, which is what the program runs", w.Name, size)
			}
		}
	}
	if !reflect.DeepEqual(names, workloadOrder) {
		t.Errorf("manifest workloads %v, program runs %v", names, workloadOrder)
	}
	check := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: manifest lists %d metrics, program reports %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s[%d]: manifest %+v, program %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.Bound) {
				t.Errorf("%s %s: bound in manifest does not match the program's %v", kind, d.Name, d.Bound)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
}
