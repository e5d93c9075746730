package kgserve

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"nexus/internal/kg"
	"nexus/internal/kgwire"
)

func testGraph() *kg.Graph {
	g := kg.NewGraph()
	de := g.AddEntity("Germany", "Country")
	g.Set(de, "HDI", kg.Num(0.94))
	return g
}

func post(t *testing.T, hs *httptest.Server, path, body string) (int, string) {
	t.Helper()
	resp, err := hs.Client().Post(hs.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

// TestStatsEndpoint pins request counting and injected-fault reporting.
func TestStatsEndpoint(t *testing.T) {
	srv := New(Config{Source: testGraph()})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	for i := 0; i < 3; i++ {
		if code, body := post(t, hs, kgwire.PathResolve, `{"values":["Germany"]}`); code != 200 {
			t.Fatalf("resolve = %d %s", code, body)
		}
	}
	resp, err := hs.Client().Get(hs.URL + kgwire.PathStats)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats kgwire.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Requests[kgwire.PathResolve] != 3 || stats.Injected != 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestMalformedAndOversizedRequests pins the 400 (never retried) error
// class: bad JSON, oversized batches, unknown ids.
func TestMalformedAndOversizedRequests(t *testing.T) {
	srv := New(Config{Source: testGraph(), MaxBatch: 2})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	if code, _ := post(t, hs, kgwire.PathResolve, `{bad json`); code != 400 {
		t.Fatalf("malformed body = %d, want 400", code)
	}
	if code, body := post(t, hs, kgwire.PathEntities, `{"ids":[0,0,0]}`); code != 400 || !strings.Contains(body, "exceeds limit") {
		t.Fatalf("oversized batch = %d %s", code, body)
	}
	if code, _ := post(t, hs, kgwire.PathEntities, `{"ids":[42]}`); code != 400 {
		t.Fatalf("unknown id = %d, want 400", code)
	}
}
