package nexus_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nexus"
	"nexus/internal/server"
	"nexus/internal/workload"
)

// TestMeaninglessAndDegenerateQueries drives queries through both entry
// points, Session.Explain and POST /v1/explain. A query that is valid SQL but
// poses no explanation problem — an average of strings, an outcome that is
// its own exposure — is an error naming the column (400 over HTTP), while
// Session.Query keeps answering it. The degenerate inputs that have a defined
// result today keep it: "no explanation" at zero bits for an empty result
// set, a single-valued exposure, an all-null outcome and a header-only CSV; a
// clean error for a ragged one.
func TestMeaninglessAndDegenerateQueries(t *testing.T) {
	dir := t.TempDir()
	csv := func(name, body string) nexus.Setup {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return nexus.Setup{CSV: path, Table: "t", Links: []string{"Country"}, Seed: 7}
	}
	so := workload.StackOverflow(integrationWorld(), workload.Config{Rows: 2000, Seed: 5})
	soSession := func() (*nexus.Session, error) {
		sess := nexus.NewSession(integrationWorld().Graph, nil)
		sess.RegisterTable(so.Name, so.Table, so.LinkColumns...)
		return sess, nil
	}
	open := func(su nexus.Setup) func() (*nexus.Session, error) {
		return func() (*nexus.Session, error) {
			sess, _, err := nexus.Open(su, nexus.Options{})
			return sess, err
		}
	}
	const csvQuery = "SELECT Country, avg(Pay) FROM t GROUP BY Country"
	cases := []struct {
		name string
		sess func() (*nexus.Session, error)
		sql  string
		// wantErr is a substring of the error ("" = a defined result: zero
		// bits, no explanation). openErr marks an error of the load itself.
		wantErr string
		openErr bool
	}{
		{name: "average of a string column that is also the exposure", sess: soSession,
			sql: "SELECT Country, avg(Country) FROM SO GROUP BY Country", wantErr: `column "Country" is not numeric`},
		{name: "average of a string column", sess: soSession,
			sql: "SELECT Country, avg(Continent) FROM SO GROUP BY Country", wantErr: `column "Continent" is not numeric`},
		{name: "outcome is the exposure", sess: soSession,
			sql: "SELECT Salary, avg(Salary) FROM SO GROUP BY Salary", wantErr: `outcome column "Salary" is also a grouping attribute`},
		{name: "outcome among several exposures", sess: soSession,
			sql: "SELECT Country, Age, sum(Age) FROM SO GROUP BY Country, Age", wantErr: `outcome column "Age" is also a grouping attribute`},
		{name: "count(*) counts the exposure", sess: soSession,
			sql: "SELECT Country, count(*) FROM SO GROUP BY Country", wantErr: `outcome column "Country" is also a grouping attribute`},

		{name: "empty result set", sess: soSession,
			sql: "SELECT Country, avg(Salary) FROM SO WHERE Continent = 'Atlantis' GROUP BY Country"},
		{name: "single-valued exposure", sess: soSession,
			sql: "SELECT Continent, avg(Salary) FROM SO WHERE Continent = 'Europe' GROUP BY Continent"},
		{name: "all-null outcome", sess: open(csv("nullo.csv", "Country,Pay,Age\nFrance,,30\nGermany,,41\nFrance,,25\nItaly,,33\n")),
			sql: csvQuery},
		{name: "header-only CSV", sess: open(csv("header.csv", "Country,Pay,Age\n")), sql: csvQuery},
		{name: "ragged CSV", sess: open(csv("ragged.csv", "Country,Pay,Age\nFrance,1,2\nGermany,3\n")), sql: csvQuery,
			wantErr: "wrong number of fields", openErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sess, err := tc.sess()
			if tc.openErr {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("load: %v, want an error containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sess.Query(tc.sql); err != nil {
				t.Fatalf("Session.Query must keep executing valid SQL: %v", err)
			}

			rep, err := sess.Explain(tc.sql)
			code, body := postExplainSQL(t, sess, tc.sql)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("Session.Explain: %v, want an error containing %q", err, tc.wantErr)
				}
				if code != http.StatusBadRequest || !strings.Contains(body.Error, tc.wantErr) || body.Kind != "bad_request" {
					t.Fatalf("POST /v1/explain: %d %+v, want 400 bad_request containing %q", code, body, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("Session.Explain: %v, want a defined result", err)
			}
			if ex := rep.Explanation; ex.BaseScore != 0 || len(ex.Attrs) != 0 {
				t.Fatalf("Session.Explain: %.4f bits explained by %v, want 0 bits and no explanation", ex.BaseScore, ex.Names())
			}
			if _, _, err := rep.Subgroups(2, 0); err != nil {
				t.Fatalf("Subgroups: %v", err)
			}
			if code != http.StatusOK || body.BaseScore != 0 || len(body.Attributes) != 0 || len(body.Subgroups) != 0 {
				t.Fatalf("POST /v1/explain: %d %+v, want 200 with 0 bits and no explanation", code, body)
			}
		})
	}
}

// explainBody is the union of POST /v1/explain's result and error bodies.
type explainBody struct {
	server.ExplainResponse
	Error string `json:"error"`
	Kind  string `json:"kind"`
}

// postExplainSQL serves sess from an in-process nexusd on a loopback port and
// posts one synchronous explain request (with 2 subgroups) to it.
func postExplainSQL(t *testing.T, sess *nexus.Session, sql string) (int, explainBody) {
	t.Helper()
	srv := server.New(server.Config{Session: sess, Workers: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln, 10*time.Second) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("server shutdown: %v", err)
		}
	}()
	req, err := json.Marshal(server.ExplainRequest{SQL: sql, Subgroups: 2})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+ln.Addr().String()+"/v1/explain", "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body explainBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}
