package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"nexus/internal/obs"
)

// failingWriter is a ResponseWriter whose body writes fail after the
// header — the shape of a client that disconnected mid-response.
type failingWriter struct {
	header http.Header
	code   int
}

func (w *failingWriter) Header() http.Header {
	if w.header == nil {
		w.header = http.Header{}
	}
	return w.header
}
func (w *failingWriter) WriteHeader(code int)      { w.code = code }
func (w *failingWriter) Write([]byte) (int, error) { return 0, errors.New("client gone") }

// TestWriteJSONEncodeErrorCountedAndLogged is the regression test for the
// silently-dropped json.Encoder.Encode error: a failing writer must bump
// encode_errors and reach the error log, not vanish.
func TestWriteJSONEncodeErrorCountedAndLogged(t *testing.T) {
	var logBuf bytes.Buffer
	srv, metrics := newTestServer(t, Config{ErrorLog: log.New(&logBuf, "", 0)})
	srv.writeJSON(&failingWriter{}, http.StatusOK, map[string]string{"k": "v"})
	if got := metrics.Get(CtrEncodeErrors); got != 1 {
		t.Fatalf("%s = %d, want 1", CtrEncodeErrors, got)
	}
	if !strings.Contains(logBuf.String(), "client gone") {
		t.Fatalf("encode error not logged; log = %q", logBuf.String())
	}

	// The happy path neither counts nor logs.
	logBuf.Reset()
	srv.writeJSON(httptest.NewRecorder(), http.StatusOK, map[string]string{"k": "v"})
	if got := metrics.Get(CtrEncodeErrors); got != 1 {
		t.Fatalf("%s moved to %d on a successful write", CtrEncodeErrors, got)
	}
	if logBuf.Len() != 0 {
		t.Fatalf("successful write logged: %q", logBuf.String())
	}
}

// TestMetricsEndpoint drives a real explanation and checks the serving
// metrics land on GET /metrics: request latency by route/outcome, queue
// wait, run time, per-stage pipeline histograms and the live gauges.
func TestMetricsEndpoint(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code, body := postExplain(t, ts.URL, ExplainRequest{SQL: testSQL}); code != http.StatusOK {
		t.Fatalf("explain: status %d: %s", code, body)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(raw)

	for _, want := range []string{
		`nexusd_http_request_seconds_count{route="explain",outcome="ok"} 1`,
		"nexusd_job_queue_wait_seconds_count 1",
		"nexusd_job_run_seconds_count 1",
		`nexusd_pipeline_stage_seconds_count{stage="prepare"} 1`,
		`nexusd_pipeline_stage_seconds_count{stage="mcimr"} 1`,
		"nexusd_jobs_completed_total 1",
		"nexusd_workers_busy 0",
		"nexusd_job_queue_depth 0",
		"# TYPE nexusd_job_run_seconds histogram",
		"go_goroutines ",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, out)
		}
	}
}

// TestSlowCapture: with a zero-distance threshold every request qualifies,
// so /debug/slow must report the job with its span trace attached.
func TestSlowCapture(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 1, SlowThreshold: time.Nanosecond, SlowKeep: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code, body := postExplain(t, ts.URL, ExplainRequest{SQL: testSQL}); code != http.StatusOK {
		t.Fatalf("explain: status %d: %s", code, body)
	}

	resp, err := http.Get(ts.URL + "/debug/slow")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep struct {
		Enabled bool            `json:"enabled"`
		Seen    int64           `json:"seen"`
		Entries []obs.SlowEntry `json:"entries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatalf("decoding /debug/slow: %v", err)
	}
	if !rep.Enabled || rep.Seen != 1 || len(rep.Entries) != 1 {
		t.Fatalf("slow report = enabled=%v seen=%d entries=%d", rep.Enabled, rep.Seen, len(rep.Entries))
	}
	e := rep.Entries[0]
	if e.ID == "" || !strings.Contains(e.Detail, "SELECT") || e.DurNS <= 0 {
		t.Fatalf("slow entry = %+v", e)
	}
	if len(e.Events) == 0 {
		t.Fatal("slow entry has no captured span events")
	}
	names := map[string]bool{}
	for _, ev := range e.Events {
		if ev.Type != "span" {
			t.Fatalf("captured non-span event %+v", ev)
		}
		names[ev.Name] = true
	}
	if !names["prepare"] {
		t.Fatalf("capture missing pipeline spans; got %v", names)
	}
}

// TestSlowCaptureConcurrentRequests: two explanations running at once each
// close their own trace. Each slow entry holds only its own request's span
// events, every path under its own root, and each request records its
// stages once.
func TestSlowCaptureConcurrentRequests(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 2, SlowThreshold: time.Nanosecond, SlowKeep: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	const series = `nexusd_pipeline_stage_seconds_count{stage="core_explain"} `
	stageCount := func() int {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		for _, line := range strings.Split(string(raw), "\n") {
			if n, ok := strings.CutPrefix(line, series); ok {
				v, err := strconv.Atoi(n)
				if err != nil {
					t.Fatalf("%s%q: %v", series, n, err)
				}
				return v
			}
		}
		t.Fatalf("/metrics has no %s", series)
		return 0
	}
	before := stageCount()

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if code, body := postExplain(t, ts.URL, ExplainRequest{SQL: testSQL}); code != http.StatusOK {
				t.Errorf("explain: status %d: %s", code, body)
			}
		}()
	}
	wg.Wait()

	if got := stageCount() - before; got != 2 {
		t.Fatalf("core_explain stage count rose by %d, want 2", got)
	}
	entries := srv.SlowLog().Snapshot()
	if len(entries) != 2 || entries[0].ID == entries[1].ID {
		t.Fatalf("slow entries = %+v, want two requests", entries)
	}
	for _, e := range entries {
		root := "explain " + e.ID
		var roots, explains int
		for _, ev := range e.Events {
			if ev.Type != "span" || (ev.Path != root && !strings.HasPrefix(ev.Path, root+"/")) {
				t.Fatalf("entry %s holds event %+v", e.ID, ev)
			}
			if ev.Path == root {
				roots++
			}
			if ev.Name == "core-explain" {
				explains++
			}
		}
		if roots != 1 || explains != 1 {
			t.Fatalf("entry %s: %d root and %d core-explain spans, want 1 each", e.ID, roots, explains)
		}
	}
}
