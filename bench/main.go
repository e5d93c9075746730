// Command bench is the repository's benchmark: four workloads over the
// explanation pipeline (row-bound, candidate-bound, served, distributed),
// end-to-end metrics measured with tracing off and per-layer metrics from a
// separate traced run. See README.md for the metric glossary and for why
// each workload exists.
//
// With -workload it runs that one workload once and prints, as the last
// line of standard output, one JSON object with the run's metrics — the
// form BENCHMARK.json's driver calls. Without it, it runs every workload
// untraced and then traced, each in a child process of its own, and prints
// one table and one JSON document; -aa runs the untraced half twice over ten
// seeds and compares the two sets of runs.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload, in this process (default: all, one child process each)")
		seed     = flag.Uint64("seed", 11, "seed of the generated dataset rows and the request schedule")
		seconds  = flag.Float64("seconds", 20, "how long one run measures")
		trace    = flag.Int("trace", 0, "with -workload: 1 runs traced and reports the per-layer metrics, 0 untraced and the end-to-end ones")
		scaleArg = flag.String("scale", "full", "input sizes: full or tiny")
		rows     = flag.Int("rows", 0, "flights_rows row count (default 50000 at full scale; the paper's is 5819079)")
		aa       = flag.Bool("aa", false, "run every workload ten times on each of two sides, each run with another seed, and compare the two sets")
	)
	flag.Parse()
	sc, ok := scales[*scaleArg]
	if !ok || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: -scale must be full or tiny, and there are no positional arguments\n")
		os.Exit(2)
	}
	if *rows > 0 {
		sc.flightsRows = *rows
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0, scaleName: *scaleArg, scale: sc, outDir: traceDir, setupReps: 3}

	var err error
	switch {
	case *workload != "":
		err = child(cfg)
	case *aa:
		err = compareAA(cfg)
	default:
		err = runAll(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// child runs one workload in this process and prints its result: every
// metric by name with its unit, the answer digests (so that runs of two
// commits can be compared by eye), and the result object as the last line.
func child(cfg config) error {
	out, err := runWorkload(context.Background(), cfg)
	if err != nil {
		return err
	}
	keys := make([]string, 0, len(out.digests))
	for k := range out.digests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "digest %s  %3d ops, mean %9.2f ms  %s\n", out.digests[k], len(out.latencies[k]), mean(out.latencies[k]), k)
	}
	for _, f := range out.failures {
		fmt.Fprintln(os.Stderr, "FAILED", f)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Printf("%-36s %14.4f %s\n", d.Name, out.Metrics[d.Name].Value, d.Unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !out.Correct {
		return fmt.Errorf("%s: %d of %d ops failed the output check", cfg.workload, out.Failed, out.Attempted)
	}
	return nil
}
