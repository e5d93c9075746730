package nexus_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"nexus"
	"nexus/internal/counting"
	"nexus/internal/server"
	"nexus/internal/sqlx"
	"nexus/internal/workload"
)

// TestMeaninglessAndDegenerateQueries drives queries through both entry
// points, Session.ExplainCtx and POST /v1/explain. A query that is valid SQL but
// poses no explanation problem — an average of strings, an outcome that is
// its own exposure — is an error naming the column (400 over HTTP), while
// sqlx.Execute keeps answering it. The degenerate inputs that have a defined
// result today keep it: "no explanation" at zero bits for an empty result
// set, a single-valued exposure, an all-null outcome and a header-only CSV; a
// clean error for a ragged one; and the pinned non-zero results of one row
// per group (every tally of the conditional test is 1, its statistic exactly
// zero) and of a joint domain past counting.MaxDense (the screen has no dense
// tally and the prune falls back to the unfused estimators).
func TestMeaninglessAndDegenerateQueries(t *testing.T) {
	dir := t.TempDir()
	csv := func(name, body string, links ...string) nexus.Setup {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return nexus.Setup{CSV: path, Table: "t", Links: links, Seed: 7}
	}
	// One row per country: pay falls with the country's place in the roster.
	var oneRowGroups strings.Builder
	oneRowGroups.WriteString("Country,Pay,Age\n")
	for i, c := range []string{"United States", "Germany", "France", "Italy", "Spain", "Portugal", "Netherlands", "Belgium",
		"Austria", "Greece", "Ireland", "Finland", "United Kingdom", "Switzerland", "Norway", "Sweden"} {
		fmt.Fprintf(&oneRowGroups, "%s,%d,%d\n", c, 9000-500*i+37*(i%3), 25+(7*i)%30)
	}
	// 3,000 exposure groups × 8 outcome bins × a 300-valued column beside them.
	const wideRows, wideGroups, wideZones = 30000, 3000, 300
	if wideGroups*8*wideZones <= counting.MaxDense {
		t.Fatal("the wide fixture no longer leaves the dense bound")
	}
	var wide strings.Builder
	wide.WriteString("Grp,Pay,Zone\n")
	for i := 0; i < wideRows; i++ {
		g := (i * 7) % wideGroups
		fmt.Fprintf(&wide, "g%d,%d,z%d\n", g, (g%17)*10+(i*13)%29, (g+i/wideGroups)%wideZones)
	}
	so := workload.StackOverflow(integrationWorld(), workload.Config{Rows: 2000, Seed: 5})
	soSession := func() (*nexus.Session, error) {
		sess := nexus.NewSession(integrationWorld().Graph, nil)
		sess.RegisterTable(so.Name, so.Table, so.LinkColumns...)
		return sess, nil
	}
	open := func(su nexus.Setup) func() (*nexus.Session, error) {
		return func() (*nexus.Session, error) {
			sess, _, err := nexus.Open(context.Background(), su, nexus.Options{})
			return sess, err
		}
	}
	const csvQuery = "SELECT Country, avg(Pay) FROM t GROUP BY Country"
	type result struct {
		bits      float64
		attrs     []string
		subgroups int
	}
	cases := []struct {
		name string
		sess func() (*nexus.Session, error)
		sql  string
		// wantErr is a substring of the error ("" = a defined result, see
		// want). openErr marks an error of the load itself.
		wantErr string
		openErr bool
		// want is the defined result: the unexplained correlation in bits (to
		// two decimals), the explanation, and how many of the 2 subgroups
		// asked for exist. Zero: 0 bits, no explanation, no subgroups.
		want result
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
		{name: "all-null outcome", sess: open(csv("nullo.csv", "Country,Pay,Age\nFrance,,30\nGermany,,41\nFrance,,25\nItaly,,33\n", "Country")),
			sql: csvQuery},
		{name: "header-only CSV", sess: open(csv("header.csv", "Country,Pay,Age\n", "Country")), sql: csvQuery},
		{name: "ragged CSV", sess: open(csv("ragged.csv", "Country,Pay,Age\nFrance,1,2\nGermany,3\n", "Country")), sql: csvQuery,
			wantErr: "wrong number of fields", openErr: true},
		{name: "one row per group", sess: open(csv("onerow.csv", oneRowGroups.String(), "Country")), sql: csvQuery,
			want: result{bits: 1.98, attrs: []string{"Population Estimate"}}},
		{name: "joint domain past MaxDense", sess: open(csv("wide.csv", wide.String())),
			sql: "SELECT Grp, avg(Pay) FROM t GROUP BY Grp", want: result{bits: 2.17}},
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
			q, err := sqlx.Parse(tc.sql)
			if err == nil {
				_, err = sqlx.Execute(q, nexus.Catalog(sess))
			}
			if err != nil {
				t.Fatalf("valid SQL must keep executing: %v", err)
			}

			rep, err := sess.ExplainCtx(context.Background(), tc.sql)
			code, body := postExplainSQL(t, sess, tc.sql)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("Session.ExplainCtx: %v, want an error containing %q", err, tc.wantErr)
				}
				if code != http.StatusBadRequest || !strings.Contains(body.Error, tc.wantErr) || body.Kind != "bad_request" {
					t.Fatalf("POST /v1/explain: %d %+v, want 400 bad_request containing %q", code, body, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("Session.ExplainCtx: %v, want a defined result", err)
			}
			ex, want := rep.Explanation, tc.want
			if math.Abs(ex.BaseScore-want.bits) >= 0.005 || !slices.Equal(ex.Names(), want.attrs) {
				t.Fatalf("Session.ExplainCtx: %.4f bits explained by %v, want %.2f bits and %v", ex.BaseScore, ex.Names(), want.bits, want.attrs)
			}
			groups, _, err := rep.SubgroupsCtx(context.Background(), 2, 0)
			if err != nil || len(groups) != want.subgroups {
				t.Fatalf("Subgroups: %d groups, %v; want %d", len(groups), err, want.subgroups)
			}
			var served []string
			for _, a := range body.Attributes {
				served = append(served, a.Name)
			}
			if code != http.StatusOK || body.BaseScore != ex.BaseScore || !slices.Equal(served, want.attrs) || len(body.Subgroups) != want.subgroups {
				t.Fatalf("POST /v1/explain: %d %+v, want 200 with Session.ExplainCtx's %.4f bits, %v and %d subgroups",
					code, body, ex.BaseScore, want.attrs, want.subgroups)
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
