// Command nexus is the interactive front end of the library: it loads a CSV
// dataset (or generates one of the paper's synthetic datasets), runs an
// aggregate SQL query, and prints the confounding-bias explanation with
// responsibilities, selection-bias statistics and unexplained subgroups.
//
// Usage:
//
//	nexus -dataset so -sql "SELECT Country, avg(Salary) FROM SO GROUP BY Country"
//	nexus -dataset covid -sql "..." -subgroups 5
//	nexus -csv data.csv -table mydata -links Country -sql "..."
//
// With -csv the knowledge graph is still the synthetic world, so only link
// values matching its entities (countries, US cities/states, airlines,
// celebrities) resolve.
//
// For the long-running HTTP service over the same pipeline, see cmd/nexusd.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"nexus"
	"nexus/internal/obs"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err == flag.ErrHelp {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "nexus:", err)
		os.Exit(1)
	}
}

// run is the whole program behind an error return, so every failure path —
// flag misuse, unreadable CSV, unknown dataset, bad query, trace file I/O —
// reaches main and exits non-zero. Tests drive it directly.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("nexus", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dataset   = fs.String("dataset", "", "synthetic dataset: so|covid|flights|forbes")
		rows      = fs.Int("rows", 0, "row count for the synthetic dataset (0 = paper size; flights defaults to 200000)")
		csvPath   = fs.String("csv", "", "load this CSV instead of a synthetic dataset")
		tableName = fs.String("table", "data", "table name for -csv")
		links     = fs.String("links", "", "comma-separated link columns for -csv")
		exclude   = fs.String("exclude", "", "comma-separated columns of -csv ruled out as candidate confounders (e.g. a sibling measurement of the outcome)")
		sql       = fs.String("sql", "", "aggregate query to explain (required)")
		seed      = fs.Uint64("seed", 11, "world seed")
		kgURL     = fs.String("kg", "", "remote knowledge-graph server URL (cmd/kgd), e.g. http://localhost:7070; default in-process graph")
		hops      = fs.Int("hops", 1, "KG extraction depth")
		subgroups = fs.Int("subgroups", 0, "also report the top-k unexplained subgroups")
		par       = fs.Int("parallelism", 0, "worker goroutines for MCIMR and the subgroup lattice search (0 = GOMAXPROCS, 1 = serial; results are identical at any setting)")
		noIPW     = fs.Bool("no-ipw", false, "disable selection-bias detection and IPW")
		trace     = fs.Bool("trace", false, "print the phase trace tree (spans + counters) to stderr")
		traceJSON = fs.String("trace-json", "", "write the trace's events as JSON lines to this file, when the run ends")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *sql == "" {
		fs.Usage()
		return fmt.Errorf("-sql is required")
	}

	var jsonOut *os.File
	if *traceJSON != "" {
		f, err := os.Create(*traceJSON)
		if err != nil {
			return err
		}
		jsonOut = f
	}

	su := nexus.Setup{
		Dataset: *dataset, Rows: *rows, CSV: *csvPath, Table: *tableName, Links: nexus.SplitList(*links),
		Exclude: nexus.SplitList(*exclude), Seed: *seed, KG: *kgURL,
	}
	opts := nexus.Options{Hops: *hops, DisableIPW: *noIPW}
	opts.Core.Parallelism = *par
	// Every phase runs inside the trace, so the reported total is the root
	// span — the printed tree sums to it by construction. The trace is
	// written however the run ends, a failed one included.
	tr := obs.New("nexus")
	err := explain(obs.WithTrace(context.Background(), tr), fs, stdout, su, opts, *sql, *subgroups)
	snap := tr.Close()
	if *trace {
		fmt.Fprintln(stderr)
		err = errors.Join(err, snap.WriteTree(stderr))
	}
	if jsonOut != nil {
		if werr := errors.Join(tr.WriteJSONL(jsonOut), jsonOut.Close()); werr != nil {
			err = errors.Join(err, fmt.Errorf("writing %s: %w", *traceJSON, werr))
		}
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\ntotal %v\n", time.Duration(snap.TotalNS).Round(time.Millisecond))
	return nil
}

// explain opens the dataset, explains the query and, with subgroups > 0,
// searches for the unexplained subgroups, all under the trace on ctx.
func explain(ctx context.Context, fs *flag.FlagSet, stdout io.Writer, su nexus.Setup, opts nexus.Options, sql string, subgroups int) error {
	fmt.Fprintln(stdout, "generating knowledge graph...")
	if su.KG != "" {
		fmt.Fprintf(stdout, "using remote knowledge graph at %s\n", su.KG)
	}
	sess, ds, err := nexus.Open(ctx, su, opts)
	if errors.Is(err, nexus.ErrNoDataset) {
		fs.Usage()
	}
	if err != nil {
		return err
	}
	if su.CSV != "" {
		fmt.Fprintf(stdout, "loaded %s: %d rows × %d columns (%d dict entries)\n",
			su.CSV, ds.Table.NumRows(), ds.Table.NumCols(), ds.Ingest.DictEntries)
	} else {
		fmt.Fprintf(stdout, "generated %s: %d rows, link columns %v\n", ds.Name, ds.Table.NumRows(), ds.LinkColumns)
	}

	rep, err := sess.ExplainCtx(ctx, sql)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, rep.Summary())

	if subgroups > 0 {
		groups, stats, err := rep.SubgroupsCtx(ctx, subgroups, 0)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\ntop-%d unexplained subgroups (explored %d nodes):\n", subgroups, stats.Explored)
		if len(groups) == 0 {
			if stats.Exhausted {
				fmt.Fprintln(stdout, "  none — the explanation holds everywhere at the chosen threshold")
			} else {
				fmt.Fprintf(stdout, "  none found within %d nodes (search budget reached)\n", stats.Explored)
			}
		}
		for i, g := range groups {
			fmt.Fprintf(stdout, "  %d. size=%-8d score=%.3f  %s\n", i+1, g.Size, g.Score, g.String())
		}
	}
	return nil
}
