package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
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

// terminalJob builds a finished job for eviction tests.
func terminalJob(state JobState) *Job {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return &Job{ctx: ctx, cancel: func() {}, done: make(chan struct{}), state: state, enqueued: time.Now()}
}

// TestJobStoreEvictionKeepsRunning: when more jobs than the store keeps are
// retained, only terminal jobs are evicted (oldest first); running and
// queued jobs survive even beyond the bound, and the order index stays
// consistent with the map.
func TestJobStoreEvictionKeepsRunning(t *testing.T) {
	st := newJobStore(4)
	var runningIDs, terminalIDs []string
	for i := 0; i < 3; i++ {
		runningIDs = append(runningIDs, st.add(terminalJob(JobRunning)))
	}
	for i := 0; i < 4; i++ {
		terminalIDs = append(terminalIDs, st.add(terminalJob(JobDone)))
	}
	// 7 jobs, keep=4: the 3 oldest terminal jobs go, runners stay.
	for _, id := range runningIDs {
		if st.get(id) == nil {
			t.Fatalf("running job %s was evicted", id)
		}
	}
	for i, id := range terminalIDs {
		j := st.get(id)
		if i < 3 && j != nil {
			t.Fatalf("old terminal job %s survived eviction", id)
		}
		if i == 3 && j == nil {
			t.Fatalf("newest terminal job %s was evicted", id)
		}
	}
	if got := st.len(); got != 4 {
		t.Fatalf("store len = %d, want 4", got)
	}

	// order must only reference live jobs and cover all of them.
	st.mu.Lock()
	if len(st.order) != len(st.m) {
		st.mu.Unlock()
		t.Fatalf("order has %d ids, map has %d", len(st.order), len(st.m))
	}
	for _, id := range st.order {
		if st.m[id] == nil {
			st.mu.Unlock()
			t.Fatalf("order references evicted job %s", id)
		}
	}
	st.mu.Unlock()

	// With every job non-terminal, nothing is evictable: the store may
	// exceed keep rather than drop live work.
	st2 := newJobStore(2)
	var ids []string
	for i := 0; i < 5; i++ {
		ids = append(ids, st2.add(terminalJob(JobQueued)))
	}
	for _, id := range ids {
		if st2.get(id) == nil {
			t.Fatalf("non-terminal job %s was evicted", id)
		}
	}
	if st2.len() != 5 {
		t.Fatalf("store len = %d, want 5 (nothing evictable)", st2.len())
	}
}

// TestMetricsEndpoint drives a real explanation and checks the serving
// metrics land on GET /metrics: request latency by route/outcome, queue
// wait, run time, per-stage pipeline histograms and the live gauges.
func TestMetricsEndpoint(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 2})
	srv.Start()
	defer srv.shutdownWorkers(context.Background())
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
		"nexusd_jobs_retained 1",
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
	srv.Start()
	defer srv.shutdownWorkers(context.Background())
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

// TestJobStatusDurations: queue_wait_ms and run_ms appear once their
// intervals close and are consistent with the timestamps.
func TestJobStatusDurations(t *testing.T) {
	j := &Job{enqueued: time.Now().Add(-100 * time.Millisecond), state: JobQueued}
	if st := j.snapshot(); st.QueueWaitMS != nil || st.RunMS != nil {
		t.Fatalf("queued job reported durations: %+v", st)
	}
	j.started = j.enqueued.Add(40 * time.Millisecond)
	j.state = JobRunning
	st := j.snapshot()
	if st.QueueWaitMS == nil || *st.QueueWaitMS != 40 {
		t.Fatalf("queue_wait_ms = %v, want 40", st.QueueWaitMS)
	}
	if st.RunMS != nil {
		t.Fatalf("running job reported run_ms: %v", *st.RunMS)
	}
	j.finished = j.started.Add(25 * time.Millisecond)
	j.state = JobDone
	st = j.snapshot()
	if st.RunMS == nil || *st.RunMS != 25 {
		t.Fatalf("run_ms = %v, want 25", st.RunMS)
	}
}
