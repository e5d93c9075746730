package nexus

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSplitList(t *testing.T) {
	for in, want := range map[string][]string{
		"":                      nil,
		",":                     nil,
		" , ":                   nil,
		"Country":               {"Country"},
		"Country,":              {"Country"},
		",Country":              {"Country"},
		" Country , Continent ": {"Country", "Continent"},
		"http://a:1,http://b:2": {"http://a:1", "http://b:2"},
		"Origin city,Dest city": {"Origin city", "Dest city"},
	} {
		if got := SplitList(in); fmt.Sprint(got) != fmt.Sprint(want) || len(got) != len(want) {
			t.Errorf("SplitList(%q) = %q, want %q", in, got, want)
		}
	}
}

// Open is the dataset bootstrap cmd/nexus and cmd/nexusd share: a CSV is
// ingested, its link and excluded columns validated and the table registered
// under the given name; a Setup naming no dataset is ErrNoDataset.
func TestOpenCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.csv")
	if err := os.WriteFile(path, []byte("Country,V\nFrance,1\nGermany,2\nFrance,3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	sess, ld, err := Open(context.Background(), Setup{CSV: path, Table: "d", Links: SplitList("Country,"), Seed: 11}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ld.Name != "d" || fmt.Sprint(ld.LinkColumns) != "[Country]" || ld.Ingest.Rows != 3 {
		t.Fatalf("loaded %q links %v rows %d, want d [Country] 3", ld.Name, ld.LinkColumns, ld.Ingest.Rows)
	}
	if sess.catalog["d"] != ld.Table || fmt.Sprint(sess.links["d"]) != "[Country]" {
		t.Fatalf("table d not registered with its link column (links %v)", sess.links["d"])
	}

	_, _, err = Open(context.Background(), Setup{CSV: path, Table: "d", Links: []string{"Nope"}, Seed: 11}, Options{})
	if err == nil || !strings.Contains(err.Error(), `link column "Nope" not in `+path+" (columns: Country, V)") {
		t.Fatalf("unknown link column: %v", err)
	}
	_, _, err = Open(context.Background(), Setup{CSV: path, Table: "d", Links: []string{"Country"}, Exclude: SplitList("V, Nope"), Seed: 11}, Options{})
	if err == nil || !strings.Contains(err.Error(), `excluded column "Nope" not in `+path+" (columns: Country, V)") {
		t.Fatalf("unknown excluded column: %v", err)
	}
	_, ld, err = Open(context.Background(), Setup{CSV: path, Table: "d", Exclude: []string{"V"}, Seed: 11}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ld.ExcludeCandidates) != "[V]" {
		t.Fatalf("-exclude V: exclusions %v", ld.ExcludeCandidates)
	}
	if _, _, err := Open(context.Background(), Setup{Seed: 11}, Options{}); !errors.Is(err, ErrNoDataset) {
		t.Fatalf("empty setup: %v, want ErrNoDataset", err)
	}
}
