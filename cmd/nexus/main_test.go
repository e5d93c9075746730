package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nexus/internal/obs"
)

// Regression: every failure path must surface as a non-nil error from run
// (→ non-zero exit), not a success. Earlier versions exited 0 on some
// dataset-load errors.
func TestRunErrorPaths(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.csv")
	if err := os.WriteFile(bad, []byte("a,b\n1,2,3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"no sql", []string{"-dataset", "so"}, "-sql is required"},
		{"no dataset or csv", []string{"-sql", "SELECT x, avg(y) FROM t GROUP BY x"}, "provide -dataset or -csv"},
		{"unknown dataset", []string{"-dataset", "nope", "-sql", "SELECT x, avg(y) FROM t GROUP BY x"}, "unknown dataset"},
		{"missing csv", []string{"-csv", "/does/not/exist.csv", "-sql", "SELECT x, avg(y) FROM t GROUP BY x"}, "no such file"},
		{"malformed csv", []string{"-csv", bad, "-sql", "SELECT x, avg(y) FROM t GROUP BY x"}, "bad.csv"},
		{"unknown flag", []string{"-nonsense"}, "not defined"},
		{"bad query", []string{"-dataset", "forbes", "-rows", "200", "-sql", "this is not sql"}, ""},
		{"unknown link column", []string{"-csv", "testdata/tiny.csv", "-table", "t", "-links", "Nope",
			"-sql", "SELECT City, avg(V) FROM t GROUP BY City"}, `link column "Nope"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errw strings.Builder
			err := run(tc.args, &out, &errw)
			if err == nil {
				t.Fatalf("run(%v) = nil error; stdout:\n%s", tc.args, out.String())
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%v) error %q does not contain %q", tc.args, err, tc.want)
			}
		})
	}
}

// -links is split on commas, trimmed, and empty fields dropped — the one
// parse nexus and nexusd share (nexus.SplitList). A trailing comma or blanks
// around a name used to fail link-column validation in one binary or both.
func TestLinksFlagParsing(t *testing.T) {
	for _, links := range []string{"City,", " City ", ","} {
		var out, errw strings.Builder
		err := run([]string{"-csv", "testdata/tiny.csv", "-table", "t", "-links", links,
			"-sql", "SELECT City, avg(V) FROM t GROUP BY City"}, &out, &errw)
		if err != nil {
			t.Fatalf("-links %q: %v", links, err)
		}
	}
	var out, errw strings.Builder
	err := run([]string{"-csv", "testdata/tiny.csv", "-table", "t", "-links", "City, Nope",
		"-sql", "SELECT City, avg(V) FROM t GROUP BY City"}, &out, &errw)
	if err == nil || !strings.Contains(err.Error(), `link column "Nope"`) {
		t.Fatalf(`-links "City, Nope": error %v, want the trimmed name reported`, err)
	}
}

func TestRunSuccessTinyDataset(t *testing.T) {
	if testing.Short() {
		t.Skip("explains a small dataset end to end")
	}
	traceJSON := filepath.Join(t.TempDir(), "trace.jsonl")
	var out, errw strings.Builder
	err := run([]string{
		"-dataset", "forbes", "-rows", "300",
		"-sql", "SELECT Category, avg(Pay) FROM Forbes GROUP BY Category",
		"-subgroups", "2", "-trace-json", traceJSON,
	}, &out, &errw)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errw.String())
	}
	if !strings.Contains(out.String(), "query:") {
		t.Fatalf("summary missing from output:\n%s", out.String())
	}
	// Every stage reaches the one trace the CLI puts on its context.
	raw, err := os.ReadFile(traceJSON)
	if err != nil {
		t.Fatal(err)
	}
	spans := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var ev obs.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		if ev.Type == "span" {
			spans[ev.Name] = true
		}
	}
	for _, want := range []string{"world-gen", "load-dataset", "parse", "prepare", "core-explain", "subgroup-search"} {
		if !spans[want] {
			t.Errorf("no %q span in the trace", want)
		}
	}
}

// A failing run still writes its trace: the spans up to the failure, the
// root span and the final counters line in the JSONL file, and the tree on
// stderr with -trace.
func TestFailedRunWritesTrace(t *testing.T) {
	traceJSON := filepath.Join(t.TempDir(), "trace.jsonl")
	var out, errw strings.Builder
	err := run([]string{
		"-dataset", "covid", "-sql", "SELECT Country, avg(Nope) FROM `Covid-19` GROUP BY Country",
		"-trace", "-trace-json", traceJSON,
	}, &out, &errw)
	if err == nil {
		t.Fatalf("run with an unknown outcome column succeeded; stdout:\n%s", out.String())
	}
	raw, rerr := os.ReadFile(traceJSON)
	if rerr != nil {
		t.Fatal(rerr)
	}
	paths := map[string]bool{}
	var last obs.Event
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		last = obs.Event{}
		if err := json.Unmarshal([]byte(line), &last); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		paths[last.Path] = true
	}
	if !paths["nexus/parse"] || !paths["nexus"] {
		t.Fatalf("trace of the failed run lacks the parse or the root span: %v", paths)
	}
	if last.Type != "counters" {
		t.Fatalf("last trace line = %+v, want the counters event", last)
	}
	if !strings.Contains(errw.String(), "└─ prepare") {
		t.Fatalf("-trace printed no tree for the failed run; stderr:\n%s", errw.String())
	}
}
