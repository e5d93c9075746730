package nexus_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"nexus"
	"nexus/internal/kgremote"
	"nexus/internal/kgserve"
	"nexus/internal/obs"
	"nexus/internal/rpc"
	"nexus/internal/server"
	"nexus/internal/workload"
)

// TestMetricsExposition is the serving-metrics smoke test: boot the full
// two-daemon topology (nexusd explaining through a kgremote client against
// a kgd server), drive one real explanation, then scrape GET /metrics on
// both daemons and check (a) the exposition is well-formed Prometheus text
// format, (b) every metric name passes the naming lint, and (c) the
// headline series of this subsystem are present with traffic in them.
func TestMetricsExposition(t *testing.T) {
	world := integrationWorld()

	// kgd side: its own registry, slow capture on everything.
	kgSrv := kgserve.New(kgserve.Config{Source: world.Graph, ServerConfig: rpc.ServerConfig{SlowThreshold: time.Nanosecond}})
	kgTS := httptest.NewServer(kgSrv.Handler())
	defer kgTS.Close()

	// nexusd side: one registry shared by the kg client, the session and
	// the server, mirroring cmd/nexusd.
	registry := obs.NewRegistry(nil)
	src := kgremote.New(kgTS.URL, kgremote.Options{Counters: registry.Counters(), Registry: registry})
	sess := nexus.NewSessionFromSource(src, &nexus.Options{
		Hops:         1,
		Metrics:      registry.Counters(),
		ExtractCache: nexus.NewExtractionCache(registry.Counters()),
	})
	ds, err := workload.ByName(world, "forbes", 400, 11)
	if err != nil {
		t.Fatal(err)
	}
	sess.RegisterTable(ds.Name, ds.Table, ds.LinkColumns...)
	sess.ExcludeCandidates(ds.Name, ds.ExcludeCandidates...)

	srv := server.New(server.Config{
		Session:       sess,
		Workers:       2,
		Metrics:       registry.Counters(),
		Registry:      registry,
		SlowThreshold: time.Nanosecond,
	})
	nexusTS := httptest.NewServer(srv.Handler())
	defer nexusTS.Close()

	resp, err := http.Post(nexusTS.URL+"/v1/explain", "application/json",
		strings.NewReader(`{"sql": "SELECT Category, avg(Pay) FROM Forbes GROUP BY Category", "subgroups": 2}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain: status %d", resp.StatusCode)
	}

	nexusOut := scrape(t, nexusTS.URL+"/metrics")
	kgOut := scrape(t, kgTS.URL+"/metrics")
	validateExposition(t, "nexusd", nexusOut)
	validateExposition(t, "kgd", kgOut)

	// Headline series with real traffic: request latency by route/outcome,
	// queue/run split, per-stage pipeline timings and the kg client's
	// attempt histogram on nexusd; request latency and the in-flight gauge
	// on kgd.
	for _, want := range []string{
		`nexusd_http_request_seconds_count{route="explain",outcome="ok"} 1`,
		"nexusd_job_queue_wait_seconds_count 1",
		"nexusd_job_run_seconds_count 1",
		`nexusd_pipeline_stage_seconds_count{stage="kg_extract"} 1`,
		`nexusd_pipeline_stage_seconds_count{stage="mcimr"} 1`,
		`nexusd_pipeline_stage_seconds_count{stage="subgroup_search"} 1`,
	} {
		if !strings.Contains(nexusOut, want) {
			t.Errorf("nexusd /metrics missing %q", want)
		}
	}
	if !regexp.MustCompile(`nexusd_kg_http_attempt_seconds_count [1-9]`).MatchString(nexusOut) {
		t.Error("nexusd /metrics: kg_http_attempt_seconds saw no attempts")
	}
	if !regexp.MustCompile(`kgd_http_request_seconds_count\{route="resolve",outcome="ok"\} [1-9]`).MatchString(kgOut) {
		t.Error("kgd /metrics: no resolve traffic recorded")
	}
	// The scrape itself is in flight while the gauge is read, so it shows 1.
	if !strings.Contains(kgOut, "kgd_requests_in_flight 1") {
		t.Error("kgd /metrics missing requests_in_flight gauge")
	}
	if t.Failed() {
		t.Logf("nexusd exposition:\n%s", nexusOut)
		t.Logf("kgd exposition:\n%s", kgOut)
	}
}

func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("%s: Content-Type = %q", url, ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

var (
	// Prometheus metric and label name grammar, restricted to the
	// snake_case subset this repo's lint mandates.
	snakeName = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
	// One sample line: name, optional {labels}, one float value.
	sampleLine = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)(\{[^}]*\})? (\S+)$`)
	labelPair  = regexp.MustCompile(`^[a-z][a-z0-9_]*="(?:[^"\\]|\\.)*"$`)
)

// validateExposition checks Prometheus text-format well-formedness plus
// the repo's metric-naming lint:
//
//   - every line is a TYPE comment or a parseable sample;
//   - names and label keys are snake_case, prefixed with ns_ or go_;
//   - every sample belongs to a previously TYPE-declared family, declared
//     exactly once;
//   - counter families end in _total; histogram families carrying
//     fractional (seconds) buckets end in _seconds;
//   - histogram buckets are cumulative with a trailing +Inf equal to the
//     family's _count sample.
func validateExposition(t *testing.T, ns, body string) {
	t.Helper()
	types := map[string]string{} // family → counter|gauge|histogram
	type histState struct {
		lastCum  int64
		inf      int64
		count    int64
		sawInf   bool
		sawCount bool
		fracLE   bool
	}
	hists := map[string]*histState{} // family+labels(minus le)
	histFrac := map[string]bool{}    // family → any fractional le seen

	lines := strings.Split(strings.TrimSuffix(body, "\n"), "\n")
	if len(lines) == 0 {
		t.Fatalf("%s: empty exposition", ns)
	}
	for _, line := range lines {
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Errorf("%s: malformed TYPE line %q", ns, line)
				continue
			}
			name, typ := fields[2], fields[3]
			if typ != "counter" && typ != "gauge" && typ != "histogram" {
				t.Errorf("%s: unknown type %q in %q", ns, typ, line)
			}
			if _, dup := types[name]; dup {
				t.Errorf("%s: duplicate TYPE declaration for %s", ns, name)
			}
			types[name] = typ
			if !snakeName.MatchString(name) {
				t.Errorf("%s: metric name %q is not snake_case", ns, name)
			}
			if !strings.HasPrefix(name, ns+"_") && !strings.HasPrefix(name, "go_") {
				t.Errorf("%s: metric name %q lacks the %s_ namespace", ns, name, ns)
			}
			if typ == "counter" && !strings.HasSuffix(name, "_total") {
				t.Errorf("%s: counter %q does not end in _total", ns, name)
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // HELP or other comments are legal
		}
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("%s: unparseable sample line %q", ns, line)
			continue
		}
		name, labels, value := m[1], m[2], m[3]
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			t.Errorf("%s: sample %q has non-numeric value %q", ns, line, value)
		}
		// Resolve the family: histogram samples use _bucket/_sum/_count.
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suffix)
			if base != name && types[base] == "histogram" {
				family = base
				break
			}
		}
		typ, declared := types[family]
		if !declared {
			t.Errorf("%s: sample %q has no TYPE declaration", ns, line)
			continue
		}
		// Label well-formedness (and the le accounting for histograms).
		var le string
		if labels != "" {
			for _, p := range splitLabels(labels[1 : len(labels)-1]) {
				if !labelPair.MatchString(p) {
					t.Errorf("%s: malformed label %q in %q", ns, p, line)
					continue
				}
				if k, v, ok := strings.Cut(p, "="); ok && k == "le" {
					le = strings.Trim(v, `"`)
				}
			}
		}
		if typ != "histogram" {
			continue
		}
		key := family + "|" + stripLE(labels)
		st := hists[key]
		if st == nil {
			st = &histState{}
			hists[key] = st
		}
		v, _ := strconv.ParseInt(value, 10, 64)
		switch {
		case strings.HasSuffix(name, "_bucket"):
			if le == "" {
				t.Errorf("%s: bucket without le label: %q", ns, line)
			} else if le == "+Inf" {
				st.sawInf, st.inf = true, v
			} else {
				if f, err := strconv.ParseFloat(le, 64); err != nil {
					t.Errorf("%s: bad le %q in %q", ns, le, line)
				} else if f != float64(int64(f)) {
					histFrac[family] = true
				}
				if v < st.lastCum {
					t.Errorf("%s: non-cumulative buckets at %q", ns, line)
				}
				st.lastCum = v
			}
		case strings.HasSuffix(name, "_count"):
			st.sawCount, st.count = true, v
		}
	}
	for key, st := range hists {
		if !st.sawInf || !st.sawCount {
			t.Errorf("%s: histogram %s missing +Inf bucket or _count", ns, key)
			continue
		}
		if st.inf != st.count {
			t.Errorf("%s: histogram %s +Inf bucket %d != count %d", ns, key, st.inf, st.count)
		}
		if st.lastCum > st.inf {
			t.Errorf("%s: histogram %s has bucket beyond +Inf (%d > %d)", ns, key, st.lastCum, st.inf)
		}
	}
	// Timing histograms (fractional bucket bounds = seconds) must be named
	// *_seconds; count-valued histograms (retries) must not be.
	names := make([]string, 0, len(histFrac))
	for name := range histFrac {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !strings.HasSuffix(name, "_seconds") {
			t.Errorf("%s: timing histogram %q does not end in _seconds", ns, name)
		}
	}
}

// splitLabels splits `a="x",b="y"` on commas outside quotes.
func splitLabels(s string) []string {
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i == 0 || s[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}

// stripLE removes the le pair so all buckets of one series share a key.
func stripLE(labels string) string {
	if labels == "" {
		return ""
	}
	kept := make([]string, 0, 4)
	for _, p := range splitLabels(labels[1 : len(labels)-1]) {
		if !strings.HasPrefix(p, "le=") {
			kept = append(kept, p)
		}
	}
	return strings.Join(kept, ",")
}
