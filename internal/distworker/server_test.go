package distworker

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nexus/internal/bins"
	"nexus/internal/core"
	"nexus/internal/distwire"
	"nexus/internal/infotheory"
	"nexus/internal/rpc"
	"nexus/internal/stats"
)

// testContext builds a synthetic MCIMR scoring context: T drives O through
// a hidden confounder that candidate 0 tracks closely, candidate 1 weakly,
// and candidate 2 not at all (pure noise). One candidate is weighted.
func testContext(tb testing.TB, n int) *core.ScoreContext {
	tb.Helper()
	rng := stats.NewRNG(42)
	mk := func(name string, card int) *bins.Encoded {
		return &bins.Encoded{Name: name, Card: card, Codes: make([]int32, n)}
	}
	conf := make([]int32, n)
	sc := &core.ScoreContext{
		T: mk("T", 3), O: mk("O", 3),
		Cands:   []*bins.Encoded{mk("tracker", 4), mk("weak", 4), mk("noise", 4)},
		Weights: make([][]float64, 3),
	}
	w := make([]float64, n)
	for i := 0; i < n; i++ {
		conf[i] = int32(rng.Intn(3))
		sc.T.Codes[i] = (conf[i] + int32(rng.Intn(2))) % 3
		sc.O.Codes[i] = (conf[i] + int32(rng.Intn(2))) % 3
		sc.Cands[0].Codes[i] = conf[i]
		if rng.Intn(4) == 0 {
			sc.Cands[1].Codes[i] = int32(rng.Intn(4))
		} else {
			sc.Cands[1].Codes[i] = conf[i]
		}
		sc.Cands[2].Codes[i] = int32(rng.Intn(4))
		w[i] = 0.25 + rng.Float64()
	}
	sc.Weights[1] = w
	return sc
}

func postJSON(tb testing.TB, client *http.Client, url string, in, out any) *http.Response {
	tb.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		tb.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			tb.Fatal(err)
		}
	}
	return resp
}

func register(tb testing.TB, client *http.Client, base string, d distwire.Dataset) {
	tb.Helper()
	var reg distwire.RegisterResponse
	if resp := postJSON(tb, client, base+distwire.PathDataset, distwire.RegisterRequest{Dataset: d}, &reg); resp.StatusCode != http.StatusOK {
		tb.Fatalf("register: HTTP %d", resp.StatusCode)
	}
	if reg.Rows != d.Rows() || reg.Cols != len(d.Cols) {
		tb.Fatalf("register ack %+v, want %d rows × %d cols", reg, d.Rows(), len(d.Cols))
	}
}

func score(tb testing.TB, client *http.Client, base, fp string, units ...distwire.Unit) []distwire.UnitResult {
	tb.Helper()
	var out distwire.ScoreResponse
	if resp := postJSON(tb, client, base+distwire.PathScore, distwire.ScoreRequest{Fingerprint: fp, Units: units}, &out); resp.StatusCode != http.StatusOK {
		tb.Fatalf("score: HTTP %d", resp.StatusCode)
	}
	if len(out.Results) != len(units) {
		tb.Fatalf("score: %d results for %d units", len(out.Results), len(units))
	}
	return out.Results
}

// TestWorkerDifferential is the oracle test: every unit kind executed over
// HTTP must return bit-identical values to core.Local on the same inputs.
func TestWorkerDifferential(t *testing.T) {
	sc := testContext(t, 512)
	local := core.Local{Parallelism: 1}
	hs := httptest.NewServer(New(Config{}).Handler())
	defer hs.Close()
	register(t, hs.Client(), hs.URL, distwire.FromScoreContext(sc))

	t.Run("relevance", func(t *testing.T) {
		want, err := local.Relevance(context.Background(), sc, []int{0, 1, 2})
		if err != nil {
			t.Fatal(err)
		}
		got := score(t, hs.Client(), hs.URL, sc.Fingerprint(),
			distwire.Unit{Kind: distwire.KindRelevance, Cands: []int{0, 1, 2}})[0]
		for i := range want {
			if math.Float64bits(got.Values[i]) != math.Float64bits(want[i]) {
				t.Errorf("cand %d: remote %v != local %v", i, got.Values[i], want[i])
			}
		}
	})

	t.Run("perm", func(t *testing.T) {
		for _, op := range []core.PermOp{core.PermResp, core.PermGain} {
			seeds := make([]uint64, 64)
			for i := range seeds {
				seeds[i] = 0xdeadbeef + uint64(i)*0x45d9f3b
			}
			var observed float64
			if op == core.PermResp {
				observed = infotheory.CondMutualInfo(sc.O, sc.Cands[0], nil, infotheory.Weights{})
			} else {
				observed = infotheory.CondMutualInfo(sc.O, sc.T, []infotheory.Var{sc.Cands[0]}, infotheory.Weights{})
			}
			spec := core.PermSpec{Cand: 0, Op: op, Observed: observed, Seeds: seeds, Allow: len(seeds)}
			wantEx, wantRan, err := local.PermBlock(context.Background(), sc, spec)
			if err != nil {
				t.Fatal(err)
			}
			got := score(t, hs.Client(), hs.URL, sc.Fingerprint(), distwire.Unit{
				Kind: distwire.KindPerm, Cand: 0, Op: string(op),
				Observed: observed, Seeds: seeds, Allow: len(seeds),
			})[0]
			if got.Ran != wantRan {
				t.Errorf("op %s: remote ran %d, local %d", op, got.Ran, wantRan)
			}
			for i := range wantEx {
				if got.Exceed[i] != wantEx[i] {
					t.Errorf("op %s seed %d: remote exceed %v != local %v", op, i, got.Exceed[i], wantEx[i])
				}
			}
		}
	})
}

// TestWorkerUnknownDataset pins the statelessness contract: scoring against
// an unregistered fingerprint answers 404 with "unknown dataset" in the
// body (the marker distremote keys its re-register-and-retry on).
func TestWorkerUnknownDataset(t *testing.T) {
	hs := httptest.NewServer(New(Config{}).Handler())
	defer hs.Close()
	body, _ := json.Marshal(distwire.ScoreRequest{Fingerprint: "mcimr:feedface", Units: []distwire.Unit{{Kind: distwire.KindRelevance}}})
	resp, err := hs.Client().Post(hs.URL+distwire.PathScore, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("HTTP %d, want 404", resp.StatusCode)
	}
	if !strings.Contains(buf.String(), "unknown dataset") {
		t.Fatalf("404 body %q lacks the %q marker", buf.String(), "unknown dataset")
	}
}

// TestWorkerRejects400 covers the permanent-error surface: malformed JSON,
// invalid datasets, oversized batches and out-of-bounds units.
func TestWorkerRejects400(t *testing.T) {
	sc := testContext(t, 64)
	hs := httptest.NewServer(New(Config{}).Handler())
	defer hs.Close()
	register(t, hs.Client(), hs.URL, distwire.FromScoreContext(sc))

	post := func(path string, body []byte) int {
		resp, err := hs.Client().Post(hs.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(distwire.PathDataset, []byte("{not json")); code != http.StatusBadRequest {
		t.Errorf("malformed register: HTTP %d, want 400", code)
	}
	badDS, _ := json.Marshal(distwire.RegisterRequest{Dataset: distwire.Dataset{Fingerprint: "x"}})
	if code := post(distwire.PathDataset, badDS); code != http.StatusBadRequest {
		t.Errorf("invalid dataset: HTTP %d, want 400", code)
	}
	over, _ := json.Marshal(distwire.ScoreRequest{Fingerprint: sc.Fingerprint(),
		Units: make([]distwire.Unit, maxBatch+1)})
	if code := post(distwire.PathScore, over); code != http.StatusBadRequest {
		t.Errorf("oversized batch: HTTP %d, want 400", code)
	}
	oob, _ := json.Marshal(distwire.ScoreRequest{Fingerprint: sc.Fingerprint(),
		Units: []distwire.Unit{{Kind: distwire.KindRelevance, Cands: []int{99}}}})
	if code := post(distwire.PathScore, oob); code != http.StatusBadRequest {
		t.Errorf("out-of-bounds unit: HTTP %d, want 400", code)
	}
}

// TestWorkerLRUEviction pins the bounded dataset store: the oldest dataset
// falls out and scoring it answers 404, while the retained ones still work.
func TestWorkerLRUEviction(t *testing.T) {
	srv := New(Config{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	var fps []string
	for i := 0; i <= maxDatasets; i++ {
		sc := testContext(t, 32+i) // distinct shapes → distinct fingerprints
		d := distwire.FromScoreContext(sc)
		register(t, hs.Client(), hs.URL, d)
		fps = append(fps, d.Fingerprint)
	}
	if n := srv.Stats().Datasets; n != maxDatasets {
		t.Fatalf("store holds %d datasets, want %d", n, maxDatasets)
	}
	body, _ := json.Marshal(distwire.ScoreRequest{Fingerprint: fps[0],
		Units: []distwire.Unit{{Kind: distwire.KindRelevance, Cands: []int{0}}}})
	resp, err := hs.Client().Post(hs.URL+distwire.PathScore, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("evicted dataset: HTTP %d, want 404", resp.StatusCode)
	}
	score(t, hs.Client(), hs.URL, fps[maxDatasets], distwire.Unit{Kind: distwire.KindRelevance, Cands: []int{0}})
}

// TestWorkerFaultInjection checks that injected faults hit /dist/v1/ with
// roughly the configured rate, are counted, and never touch /healthz.
func TestWorkerFaultInjection(t *testing.T) {
	srv := New(Config{ServerConfig: rpc.ServerConfig{FailRate: 0.5, Seed: 7}})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	sc := testContext(t, 32)
	d := distwire.FromScoreContext(sc)
	blob, _ := json.Marshal(distwire.RegisterRequest{Dataset: d})
	fails := 0
	for i := 0; i < 40; i++ {
		resp, err := hs.Client().Post(hs.URL+distwire.PathDataset, "application/json", bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusInternalServerError {
			fails++
		}
	}
	if fails == 0 || fails == 40 {
		t.Errorf("50%% fail rate produced %d/40 failures", fails)
	}
	if got := srv.Stats().Injected; got != int64(fails) {
		t.Errorf("Stats().Injected = %d, observed %d", got, fails)
	}
	for i := 0; i < 20; i++ {
		resp, err := hs.Client().Get(hs.URL + distwire.PathHealthz)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz faulted with HTTP %d", resp.StatusCode)
		}
	}
}

// TestWorkerStatsAndMetrics checks the observability surface: request
// counts by path, executed units, and the Prometheus exposition.
func TestWorkerStatsAndMetrics(t *testing.T) {
	srv := New(Config{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	sc := testContext(t, 64)
	d := distwire.FromScoreContext(sc)
	register(t, hs.Client(), hs.URL, d)
	score(t, hs.Client(), hs.URL, d.Fingerprint,
		distwire.Unit{Kind: distwire.KindRelevance, Cands: []int{0}},
		distwire.Unit{Kind: distwire.KindRelevance, Cands: []int{1, 2}})

	var st distwire.StatsResponse
	resp, err := hs.Client().Get(hs.URL + distwire.PathStats)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Requests[distwire.PathDataset] != 1 || st.Requests[distwire.PathScore] != 1 {
		t.Errorf("request counts %v, want 1 dataset + 1 score", st.Requests)
	}
	if st.Units != 2 || st.Datasets != 1 {
		t.Errorf("units %d datasets %d, want 2 and 1", st.Units, st.Datasets)
	}

	mresp, err := hs.Client().Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(buf.String(), "nexusw_") {
		t.Errorf("/metrics exposition lacks the nexusw_ prefix:\n%s", buf.String())
	}
}

// TestWorkerServeDrains checks the graceful-drain path at the edge of a
// zero drain timeout: a request still in flight when
// the context is cancelled must be answered before Serve returns nil (a
// zero timeout selects the default, it does not abandon the request).
func TestWorkerServeDrains(t *testing.T) {
	srv := New(Config{ServerConfig: rpc.ServerConfig{Latency: 150 * time.Millisecond}})
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	ln := newLocalListener(t)
	go func() { errc <- srv.Serve(ctx, ln, 0) }()
	body, _ := json.Marshal(distwire.RegisterRequest{Dataset: distwire.FromScoreContext(testContext(t, 16))})
	codec := make(chan int, 1)
	go func() {
		resp, err := http.Post(fmt.Sprintf("http://%s%s", ln.Addr(), distwire.PathDataset), "application/json", bytes.NewReader(body))
		if err != nil {
			t.Errorf("in-flight request: %v", err)
			codec <- 0
			return
		}
		resp.Body.Close()
		codec <- resp.StatusCode
	}()
	for deadline := time.Now().Add(2 * time.Second); srv.Requests(distwire.PathDataset) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("request never reached the server")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Serve did not drain after cancel")
	}
	if code := <-codec; code != http.StatusOK {
		t.Fatalf("in-flight request answered %d, want 200", code)
	}
}

func newLocalListener(tb testing.TB) net.Listener {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	return ln
}
