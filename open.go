package nexus

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"

	"nexus/internal/colstore"
	"nexus/internal/kg"
	"nexus/internal/kgremote"
	"nexus/internal/obs"
	"nexus/internal/workload"
)

// Setup is the part of the command line that cmd/nexus and cmd/nexusd share,
// field for flag: which dataset to register (a CSV file, or a synthetic paper
// dataset sampled from the generated world), which knowledge graph to extract
// from.
type Setup struct {
	Dataset string   // -dataset: so|covid|flights|forbes
	Rows    int      // -rows: synthetic row count (0 = the dataset's default)
	CSV     string   // -csv: load this file instead of a synthetic dataset
	Table   string   // -table: table name for CSV
	Links   []string // -links: link columns of CSV (SplitList of the flag)
	// -exclude: columns of CSV ruled out as candidate confounders, such as a
	// sibling measurement of the outcome (SplitList of the flag)
	Exclude []string
	Seed    uint64 // -seed: world seed

	KG string // -kg: kgd URL ("" = the in-process graph)
	// Registry, when non-nil, receives the remote-KG request histograms.
	Registry *obs.Registry
}

// Loaded describes the dataset Open registered, for the caller's status line.
type Loaded struct {
	// Dataset is the registered table with its link columns and candidate
	// exclusions. For a CSV its Name is Setup.Table and they are Setup.Links
	// and Setup.Exclude.
	*workload.Dataset
	// Ingest is the columnar ingest summary of a CSV (zero otherwise).
	Ingest colstore.Stats
}

// ErrNoDataset is Open's error for a Setup that names neither a CSV nor a
// synthetic dataset (the binaries print their usage on it).
var ErrNoDataset = errors.New("provide -dataset or -csv")

// SplitList parses a comma-separated flag value: split on commas, trim
// blanks, drop empty fields. The -links and -exclude flags of both binaries
// go through it, so "Country," or "a, b" mean the same in each.
func SplitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// Open builds the session a Setup describes — world generation, the KG
// backend, the dataset registered with its link columns — on top of the
// caller's own opts (caches, depth, scorer). Its spans and its backend and
// ingest counters go where the pipeline's do: to ctx's trace, else to
// opts.Metrics.
//
// The local world is always generated, because the synthetic datasets sample
// its entities; with Setup.KG the extraction backend is the remote server
// (which must run with the same seed for identical results).
func Open(ctx context.Context, su Setup, opts Options) (*Session, *Loaded, error) {
	if su.CSV == "" && su.Dataset == "" {
		return nil, nil, ErrNoDataset
	}
	tr := obs.TraceFrom(opts.traced(ctx, "open"))

	wsp := tr.Start("world-gen")
	world := kg.NewWorld(kg.WorldConfig{Seed: su.Seed})
	wsp.End()
	var src kg.Source = world.Graph
	if su.KG != "" {
		src = kgremote.New(su.KG, kgremote.Options{Counters: tr.Counters(), Registry: su.Registry})
	}
	sess := NewSessionFromSource(src, &opts)

	lsp := tr.Start("load-dataset")
	defer lsp.End()
	ld := &Loaded{}
	if su.CSV == "" {
		ds, err := workload.ByName(world, su.Dataset, su.Rows, su.Seed)
		if err != nil {
			return nil, nil, err
		}
		ld.Dataset = ds
	} else {
		f, err := os.Open(su.CSV)
		if err != nil {
			return nil, nil, err
		}
		// Stream the records straight into the table's columns: past the
		// inference sample no raw record is kept.
		st, err := colstore.FromCSV(f, colstore.Options{Counters: tr.Counters()})
		f.Close()
		if err != nil {
			return nil, nil, fmt.Errorf("reading %s: %w", su.CSV, err)
		}
		ld.Ingest = st.Stats()
		tbl, err := st.Drain()
		if err != nil {
			return nil, nil, fmt.Errorf("reading %s: %w", su.CSV, err)
		}
		for _, named := range []struct {
			what string
			cols []string
		}{{"link", su.Links}, {"excluded", su.Exclude}} {
			for _, c := range named.cols {
				if !tbl.HasColumn(c) {
					return nil, nil, fmt.Errorf("%s column %q not in %s (columns: %s)",
						named.what, c, su.CSV, strings.Join(tbl.ColumnNames(), ", "))
				}
			}
		}
		ld.Dataset = &workload.Dataset{Name: su.Table, Table: tbl, LinkColumns: su.Links, ExcludeCandidates: su.Exclude}
	}
	sess.RegisterTable(ld.Name, ld.Table, ld.LinkColumns...)
	sess.ExcludeCandidates(ld.Name, ld.ExcludeCandidates...)
	return sess, ld, nil
}
