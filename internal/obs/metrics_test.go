package obs

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestRenderLabelsAndEscaping(t *testing.T) {
	if got := renderLabels(nil); got != "" {
		t.Fatalf("renderLabels(nil) = %q", got)
	}
	got := renderLabels([]string{"route", "explain", "outcome", `a"b\c`})
	want := `route="explain",outcome="a\"b\\c"`
	if got != want {
		t.Fatalf("renderLabels = %q, want %q", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("odd labelPairs must panic")
		}
	}()
	renderLabels([]string{"orphan"})
}

func TestSanitizeMetricName(t *testing.T) {
	for in, want := range map[string]string{
		"pruned.offline.high-entropy": "pruned_offline_high_entropy",
		"Jobs Accepted":               "jobs_accepted",
		"already_snake_0":             "already_snake_0",
	} {
		if got := SanitizeMetricName(in); got != want {
			t.Fatalf("SanitizeMetricName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWritePrometheusExposition(t *testing.T) {
	r := NewRegistry(nil)
	r.Counters().Add("jobs.accepted", 3)
	r.Counters().Add("encode_errors_total", 1) // already suffixed: must not double
	r.Gauge("queue_depth").Add(4)
	r.SetGaugeFunc("jobs_retained", func() int64 { return 9 })
	h := r.Histogram("http_request_seconds", UnitSeconds, "route", "explain")
	h.Record(1e9) // 1s
	h.Record(1e9)
	h.Record(3e9) // 3s

	var b strings.Builder
	if err := r.WritePrometheus(&b, "nexusd"); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := b.String()

	for _, want := range []string{
		"# TYPE nexusd_jobs_accepted_total counter\nnexusd_jobs_accepted_total 3\n",
		"# TYPE nexusd_encode_errors_total counter\nnexusd_encode_errors_total 1\n",
		"# TYPE nexusd_queue_depth gauge\nnexusd_queue_depth 4\n",
		"nexusd_jobs_retained 9\n",
		"# TYPE nexusd_http_request_seconds histogram\n",
		`nexusd_http_request_seconds_count{route="explain"} 3`,
		"# TYPE go_goroutines gauge\n",
		"go_gc_cycles_total ",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "_total_total") {
		t.Fatalf("counter suffix doubled:\n%s", out)
	}

	// Histogram buckets must be cumulative, end with +Inf == count, and
	// expose bounds in seconds (all observed values <= 4s, so every le
	// value must parse below 5).
	var lastCum int64 = -1
	infSeen := false
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "nexusd_http_request_seconds_bucket") {
			continue
		}
		var cum int64
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("bad bucket line %q", line)
		}
		cum = mustParseInt(t, fields[1])
		if cum < lastCum {
			t.Fatalf("buckets not cumulative at %q", line)
		}
		lastCum = cum
		if strings.Contains(line, `le="+Inf"`) {
			infSeen = true
			if cum != 3 {
				t.Fatalf("+Inf bucket = %d, want 3", cum)
			}
		}
	}
	if !infSeen {
		t.Fatal("no +Inf bucket emitted")
	}
	if !strings.Contains(out, `nexusd_http_request_seconds_sum{route="explain"} 5`) {
		t.Fatalf("sum not converted to seconds:\n%s", out)
	}

	// A nil registry still renders runtime metrics and returns no error.
	b.Reset()
	if err := (*Registry)(nil).WritePrometheus(&b, "x"); err != nil {
		t.Fatalf("nil registry WritePrometheus: %v", err)
	}
	if !strings.Contains(b.String(), "go_goroutines") {
		t.Fatal("nil registry exposition missing runtime metrics")
	}
}

func mustParseInt(t *testing.T, s string) int64 {
	t.Helper()
	var v int64
	for _, c := range s {
		if c < '0' || c > '9' {
			t.Fatalf("not an integer: %q", s)
		}
		v = v*10 + int64(c-'0')
	}
	return v
}

func TestStageSinkProjectsKnownStages(t *testing.T) {
	r := NewRegistry(nil)
	sink := NewStageSink(r)
	sink.Emit(Event{Type: "span", Name: "ned Country", DurNS: 5e6})
	sink.Emit(Event{Type: "span", Name: "mcimr", DurNS: 2e6})
	sink.Emit(Event{Type: "span", Name: "iteration 3", DurNS: 1e6})
	sink.Emit(Event{Type: "span", Name: "consider smoker=yes", DurNS: 9e6}) // not a stage
	sink.Emit(Event{Type: "counters", Name: "mcimr", DurNS: 7e6})           // not a span

	byStage := map[string]int64{}
	for _, s := range r.histSnapshots() {
		if s.Name == "pipeline_stage_seconds" {
			byStage[s.Labels] = s.Count
		}
	}
	for label, want := range map[string]int64{
		`stage="ned"`:       1,
		`stage="mcimr"`:     1,
		`stage="iteration"`: 1,
	} {
		if byStage[label] != want {
			t.Fatalf("stage %s count = %d, want %d (all: %v)", label, byStage[label], want, byStage)
		}
	}
	var total int64
	for _, c := range byStage {
		total += c
	}
	if total != 3 {
		t.Fatalf("unexpected stage records: %v", byStage)
	}
}

func TestSlowLogRetention(t *testing.T) {
	if NewSlowLog(0, 5) != nil {
		t.Fatal("threshold<=0 must disable the slow log")
	}
	var nilLog *SlowLog
	if nilLog.Record(SlowEntry{DurNS: 1e12}, nil) || nilLog.Seen() != 0 || nilLog.Snapshot() != nil || nilLog.Threshold() != 0 {
		t.Fatal("nil SlowLog must no-op")
	}

	l := NewSlowLog(10*time.Millisecond, 3)
	if l.Record(SlowEntry{ID: "fast", DurNS: int64(5 * time.Millisecond)}, nil) {
		t.Fatal("under-threshold entry retained")
	}
	for _, d := range []int64{20, 40, 30, 15, 50} { // ms
		l.Record(SlowEntry{ID: "job", DurNS: d * 1e6}, nil)
	}
	if l.Seen() != 5 {
		t.Fatalf("seen = %d, want 5", l.Seen())
	}
	snap := l.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("retained %d entries, want 3", len(snap))
	}
	// Slowest first, keeping only the 3 slowest of {20,40,30,15,50}.
	want := []int64{50e6, 40e6, 30e6}
	for i, e := range snap {
		if e.DurNS != want[i] {
			t.Fatalf("snapshot[%d].DurNS = %d, want %d", i, e.DurNS, want[i])
		}
	}

	var b strings.Builder
	if err := l.WriteJSONL(&b); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 || !strings.Contains(lines[0], `"dur_ns":50000000`) {
		t.Fatalf("unexpected JSONL dump:\n%s", b.String())
	}
}

// A retained slow entry carries its closed trace's span events in end order
// and no counters event: a server's counter set is cumulative across
// requests and would mislead inside one request's capture.
func TestSlowLogKeepsSpanEventsOnly(t *testing.T) {
	tr := NewWithCounters("explain j1", NewCounters())
	tr.Start("prepare").End()
	tr.Add(CITests, 5)
	tr.Start("mcimr").End()
	tr.Close()
	l := NewSlowLog(time.Nanosecond, 1)
	if !l.Record(SlowEntry{ID: "j1", DurNS: 2}, tr) {
		t.Fatal("over-threshold entry not retained")
	}
	if l.Record(SlowEntry{ID: "j2", DurNS: 1}, tr) {
		t.Fatal("entry faster than the retained one kept past the bound")
	}
	ev := l.Snapshot()[0].Events
	if len(ev) != 3 || ev[0].Name != "prepare" || ev[1].Name != "mcimr" || ev[2].Path != "explain j1" {
		t.Fatalf("captured events = %+v", ev)
	}
	for _, e := range ev {
		if e.Type != "span" {
			t.Fatalf("captured non-span event %+v", e)
		}
	}
	first := tr.Events()
	first[0].Name = "mutated"
	if tr.Events()[0].Name != "prepare" {
		t.Fatal("Events must return a copy")
	}
}

func TestNewWithCountersSharesSet(t *testing.T) {
	shared := NewCounters()
	tr := NewWithCounters("req", shared)
	tr.Counters().Add("seen", 1)
	tr.Close()
	if shared.Get("seen") != 1 {
		t.Fatalf("shared counter = %d, want 1", shared.Get("seen"))
	}
	if NewWithCounters("req", nil).Counters() == nil {
		t.Fatal("nil counters must be allocated")
	}
}

func TestWithTraceRoundTrip(t *testing.T) {
	ctx := context.Background()
	if TraceFrom(ctx) != nil {
		t.Fatal("empty context must carry no trace")
	}
	if WithTrace(ctx, nil) != ctx {
		t.Fatal("WithTrace(nil) must return ctx unchanged")
	}
	tr := New("req")
	if got := TraceFrom(WithTrace(ctx, tr)); got != tr {
		t.Fatalf("TraceFrom = %p, want %p", got, tr)
	}
}
