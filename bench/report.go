package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// spawn runs one workload in a child process of its own — so that peak RSS,
// heap and GC state are the workload's, not the previous one's — and parses
// the result object off the last line of its output.
func spawn(cfg config) (*outcome, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	cmd := exec.Command(self,
		"-workload", cfg.workload,
		"-seed", strconv.FormatUint(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-trace", trace,
		"-scale", cfg.scaleName,
		"-rows", strconv.Itoa(cfg.scale.flightsRows),
	)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var out outcome
	if err := json.Unmarshal(lines[len(lines)-1], &out); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", cfg.workload, runErr)
		}
		return nil, fmt.Errorf("%s: no result on the last line of output: %w", cfg.workload, err)
	}
	if runErr != nil || !out.Correct {
		return &out, fmt.Errorf("%s: %d of %d ops failed the output check", cfg.workload, out.Failed, out.Attempted)
	}
	return &out, nil
}

// runAll runs every workload untraced and then traced, and prints one table
// and one JSON document.
func runAll(cfg config) error {
	type both struct {
		EndToEnd *outcome `json:"end_to_end"`
		PerLayer *outcome `json:"per_layer"`
	}
	results := map[string]both{}
	var failed []string
	for _, name := range workloadOrder {
		cfg.workload = name
		var b both
		var err error
		cfg.trace = false
		if b.EndToEnd, err = spawn(cfg); err != nil {
			failed = append(failed, err.Error())
		}
		cfg.trace = true
		if b.PerLayer, err = spawn(cfg); err != nil {
			failed = append(failed, err.Error())
		}
		results[name] = b
	}

	table := func(title string, defs []metricDef, get func(both) *outcome) {
		fmt.Printf("\n%-36s %-8s", title, "unit")
		for _, name := range workloadOrder {
			fmt.Printf(" %14s", name)
		}
		fmt.Println()
		for _, d := range defs {
			fmt.Printf("%-36s %-8s", d.Name, d.Unit)
			for _, name := range workloadOrder {
				if out := get(results[name]); out != nil {
					fmt.Printf(" %14.4f", out.Metrics[d.Name].Value)
				} else {
					fmt.Printf(" %14s", "-")
				}
			}
			fmt.Println()
		}
		fmt.Printf("%-36s %-8s", "ops attempted / failed", "count")
		for _, name := range workloadOrder {
			if out := get(results[name]); out != nil {
				fmt.Printf(" %14s", fmt.Sprintf("%d / %d", out.Attempted, out.Failed))
			} else {
				fmt.Printf(" %14s", "-")
			}
		}
		fmt.Println()
	}
	table("end-to-end (tracing off)", endToEnd, func(b both) *outcome { return b.EndToEnd })
	table("per-layer (traced run)", perLayer, func(b both) *outcome { return b.PerLayer })

	doc, err := json.Marshal(map[string]any{"seed": cfg.seed, "seconds": cfg.seconds, "scale": cfg.scaleName, "workloads": results})
	if err != nil {
		return err
	}
	fmt.Printf("\n%s\n", doc)
	if len(failed) > 0 {
		return fmt.Errorf("%s", strings.Join(failed, "; "))
	}
	return nil
}

// aaRuns is the number of runs per side of an A/A comparison: the ten pairs
// the measuring rules ask for.
const aaRuns = 10

// compareAA runs every workload untraced aaRuns times on each of two sides of
// the same tree: pair i gives both sides seed cfg.seed+i, and the side that
// runs first alternates from pair to pair. The workloads take turns inside a
// pair rather than running their ten pairs back to back: the reference box has
// slow spells of minutes, and a spell then costs every workload a run or two,
// which the quartiles shrug off, where back to back it would land on most runs
// of one workload. Per end-to-end metric × workload it prints both medians,
// their relative difference against the metric's bound, and each side's
// spread — the distance between the first and third quartile as a share of
// the median. A metric whose spread exceeds its bound is unresolved: the
// benchmark cannot tell a regression of that size from noise.
func compareAA(cfg config) error {
	samples := map[string]*[2]map[string][]float64{}
	for _, name := range workloadOrder {
		samples[name] = &[2]map[string][]float64{{}, {}}
	}
	for i := 0; i < aaRuns; i++ {
		for _, side := range []int{i % 2, 1 - i%2} {
			for _, name := range workloadOrder {
				c := cfg
				c.workload, c.seed = name, cfg.seed+uint64(i)
				out, err := spawn(c)
				if err != nil {
					return err
				}
				for _, d := range endToEnd {
					samples[name][side][d.Name] = append(samples[name][side][d.Name], out.Metrics[d.Name].Value)
				}
			}
		}
	}

	fmt.Printf("%-13s %-13s %12s %12s %8s %8s %8s %7s  %s\n",
		"workload", "metric", "median A", "median B", "diff", "spread A", "spread B", "bound", "verdict")
	bad := 0
	for _, name := range workloadOrder {
		for _, d := range endToEnd {
			a, b := samples[name][0][d.Name], samples[name][1][d.Name]
			ma, mb := median(a), median(b)
			worse := ratio(mb-ma, ma)
			if d.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(a), spread(b)
			verdict := "ok"
			switch {
			case max(sa, sb) > d.Bound:
				verdict = "UNRESOLVED"
				bad++
			case worse > d.Bound:
				verdict = "WORSE"
				bad++
			}
			fmt.Printf("%-13s %-13s %12.4f %12.4f %+7.1f%% %7.1f%% %7.1f%% %6.0f%%  %s\n",
				name, d.Name, ma, mb, 100*worse, 100*sa, 100*sb, 100*d.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metric × workload pairs do not hold their bound", bad)
	}
	return nil
}

// spread is the distance between the first and third quartile of xs as a
// share of their median, with the quartiles of Python's
// statistics.quantiles(xs, n=4) (the exclusive method).
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1
		lo := min(max(int(pos), 0), len(s)-2)
		return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
	}
	return ratio(q(0.75)-q(0.25), median(s))
}
