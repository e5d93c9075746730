// Command experiments regenerates every table and figure of the paper's
// evaluation (§5) over the synthetic world. Each experiment prints the same
// rows/series the paper reports; EXPERIMENTS.md records paper-vs-measured.
//
// Usage:
//
//	experiments -exp all                    # everything (default scale)
//	experiments -exp table2,table3,fig2     # quality experiments
//	experiments -exp fig4 -dataset SO       # one runtime sweep
//	experiments -exp headline -rows 5819079 # §5.3 at the paper's full size
//	experiments -scale test                 # small sizes for a quick pass
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"syscall"
	"time"

	"nexus/internal/core"
	"nexus/internal/harness"
	"nexus/internal/obs"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "comma-separated experiments: table1,table2,table3,fig2,fig3,fig4,fig5,fig6,table4,randomq,missingstats,multihop,pruning,ablations,headline,all")
		seed      = flag.Uint64("seed", 11, "world/workload seed")
		scale     = flag.String("scale", "default", "dataset scale: default|test")
		dataset   = flag.String("dataset", "", "restrict runtime sweeps to one dataset (default: the paper's set)")
		rows      = flag.Int("rows", 0, "row count for -exp headline (default 1000000; paper 5819079)")
		trace     = flag.Bool("trace", false, "print the phase trace tree (spans + counters) to stderr")
		traceJSON = flag.String("trace-json", "", "write the trace's events as JSON lines to this file, when the run ends")
	)
	flag.Parse()

	var jsonOut *os.File
	if *traceJSON != "" {
		f, err := os.Create(*traceJSON)
		if err != nil {
			fail(err)
		}
		jsonOut = f
	}
	// Every phase — suite build and each experiment — runs under one trace,
	// so the reported totals are span durations, not ad-hoc stopwatches.
	// closeTrace writes it however the run ends, a failed experiment's
	// included.
	tr := obs.New("experiments")
	closeTrace := func() obs.Snapshot {
		snap := tr.Close()
		if *trace {
			fmt.Fprintln(os.Stderr)
			if err := snap.WriteTree(os.Stderr); err != nil {
				fail(err)
			}
		}
		if jsonOut != nil {
			if err := errors.Join(tr.WriteJSONL(jsonOut), jsonOut.Close()); err != nil {
				fail(err)
			}
		}
		return snap
	}

	sc := harness.DefaultScale()
	if *scale == "test" {
		sc = harness.TestScale()
	}
	fmt.Printf("building world + datasets (seed %d, scale %s)...\n", *seed, *scale)
	bsp := tr.Start("build-suite")
	suite := harness.NewSuite(*seed, sc)
	bsp.End()
	fmt.Printf("ready in %v\n\n", bsp.Duration().Round(time.Millisecond))

	opts := core.DefaultOptions()
	opts.Seed = *seed
	opts.Trace = tr

	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]
	run := func(name string, fn func() error) {
		if !all && !want[name] {
			return
		}
		sp := tr.Start("exp " + name)
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			closeTrace()
			os.Exit(1)
		}
		sp.End()
		fmt.Printf("[%s done in %v]\n\n", name, sp.Duration().Round(time.Millisecond))
	}

	run("table1", func() error {
		rows, err := suite.Table1()
		if err != nil {
			return err
		}
		fmt.Print(harness.FormatTable1(rows))
		return nil
	})

	var table2 []*harness.QueryResult
	runTable2 := func() error {
		if table2 != nil {
			return nil
		}
		var err error
		table2, err = suite.Table2(nil, opts)
		return err
	}
	run("table2", func() error {
		if err := runTable2(); err != nil {
			return err
		}
		fmt.Print(harness.FormatTable2(table2))
		return nil
	})
	run("table3", func() error {
		if err := runTable2(); err != nil {
			return err
		}
		fmt.Print(harness.FormatTable3(suite.Table3(table2)))
		return nil
	})
	run("fig2", func() error {
		if err := runTable2(); err != nil {
			return err
		}
		fmt.Print(harness.FormatFig2(harness.Fig2(table2)))
		return nil
	})

	run("fig3", func() error {
		fractions := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7}
		for _, ds := range datasetsOr(*dataset, "SO", "Covid-19") {
			points, err := suite.Fig3(ds, fractions, opts)
			if err != nil {
				return err
			}
			fmt.Print(harness.FormatFig3(points))
			fmt.Println()
		}
		return nil
	})

	run("fig4", func() error {
		for _, ds := range datasetsOr(*dataset, "SO", "Flights", "Forbes") {
			sizes := []int{50, 100, 200, 300, 400}
			points, err := suite.Fig4(ds, sizes, opts)
			if err != nil {
				return err
			}
			fmt.Print(harness.FormatPerf("Figure 4: Running time vs #candidate attributes — "+ds, "|A|", points))
			fmt.Println()
		}
		return nil
	})

	run("fig5", func() error {
		sweeps := map[string][]int{
			"SO":      {5000, 10000, 20000, 47623},
			"Flights": {25000, 50000, 100000, 200000},
			"Forbes":  {400, 800, 1200, 1647},
		}
		for _, ds := range datasetsOr(*dataset, "SO", "Flights", "Forbes") {
			points, err := suite.Fig5(ds, sweeps[ds], opts)
			if err != nil {
				return err
			}
			fmt.Print(harness.FormatPerf("Figure 5: Running time vs #rows — "+ds, "rows", points))
			fmt.Println()
		}
		return nil
	})

	run("fig6", func() error {
		for _, ds := range datasetsOr(*dataset, "SO", "Flights", "Forbes") {
			points, err := suite.Fig6(ds, []int{1, 2, 3, 4, 5, 6, 7}, opts)
			if err != nil {
				return err
			}
			fmt.Print(harness.FormatPerf("Figure 6: Running time vs explanation-size bound k — "+ds, "k", points))
			fmt.Println()
		}
		return nil
	})

	run("table4", func() error {
		res, err := suite.Table4(opts)
		if err != nil {
			return err
		}
		fmt.Print(harness.FormatTable4(res))
		return nil
	})

	run("randomq", func() error {
		rep, err := suite.RandomQueries(10, opts)
		if err != nil {
			return err
		}
		fmt.Print(harness.FormatRandomQueries(rep))
		return nil
	})

	run("missingstats", func() error {
		rows, err := suite.MissingStats()
		if err != nil {
			return err
		}
		fmt.Print(harness.FormatMissingStats(rows))
		return nil
	})

	run("multihop", func() error {
		var specs []harness.QuerySpec
		for _, q := range harness.Queries() {
			if q.ID == "Q1" && (q.Dataset == "Covid-19" || q.Dataset == "Forbes") {
				specs = append(specs, q)
			}
		}
		rows, err := suite.MultiHop(specs, opts)
		if err != nil {
			return err
		}
		fmt.Print(harness.FormatMultiHop(rows))
		return nil
	})

	run("pruning", func() error {
		rows, err := suite.PruningImpact(opts)
		if err != nil {
			return err
		}
		fmt.Print(harness.FormatPruning(rows))
		return nil
	})

	run("ablations", func() error {
		var specs []harness.QuerySpec
		for _, q := range harness.Queries() {
			if q.ID == "Q1" && (q.Dataset == "SO" || q.Dataset == "Covid-19") {
				specs = append(specs, q)
			}
		}
		rows, err := suite.Ablations(specs, opts)
		if err != nil {
			return err
		}
		fmt.Print(harness.FormatAblations(rows))
		return nil
	})

	run("headline", func() error {
		n := *rows
		if n == 0 {
			n = 1000000
		}
		fmt.Printf("§5.3 headline: explaining Flights Q1 at %d rows...\n", n)
		ex, allocated, err := suite.Headline(n, opts)
		if err != nil {
			return err
		}
		fmt.Printf("MCIMR explained Flights (%d rows) in %v (|E| = %d; paper: <10 s at 5.8M rows)\n",
			n, ex.Elapsed.Round(time.Millisecond), len(ex.Attrs))
		fmt.Printf("explanation: %s\n", strings.Join(ex.Names(), ", "))
		// Peak RSS as the benchmark reads peak_rss_mb: getrusage's maxrss, KiB
		// on Linux, for the whole process so far (world and dataset included).
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return err
		}
		fmt.Printf("explain allocated %.2f GiB; process peak RSS %.0f MB\n",
			float64(allocated)/(1<<30), float64(ru.Maxrss)/1024)
		return nil
	})

	fmt.Printf("total %v\n", time.Duration(closeTrace().TotalNS).Round(time.Millisecond))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}

func datasetsOr(override string, defaults ...string) []string {
	if override != "" {
		return []string{override}
	}
	return defaults
}
