// Command perfbench is RouLette's repository benchmark: four named
// workloads driven through the public roulette API, every answer checked
// against the tuple-at-a-time reference engine, end-to-end metrics from an
// untraced run and a per-layer breakdown from a separate traced run.
//
//	go run . --workload tpcds-shared --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end ones; with --trace 1 they are the per-layer ones. See
// README.md for the workloads and what each metric is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's machine-readable result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	duration time.Duration
	traced   bool
	outDir   string // where the traced run writes its spans
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "seed for every generated input")
		seconds = flag.Int("seconds", 10, "measured seconds per phase")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		outDir  = flag.String("out", ".bench_build/traces", "directory for the traced run's span file")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	cfg := config{workload: *name, seed: *seed, duration: time.Duration(*seconds) * time.Second, traced: *trace == 1, outDir: *outDir}

	rep, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	printHuman(os.Stdout, *name, rep)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// printHuman writes every metric by name with its unit, one per line.
func printHuman(f *os.File, name string, rep *report) {
	frac := 0.0
	if rep.Attempted > 0 {
		frac = float64(rep.Failed) / float64(rep.Attempted)
	}
	fmt.Fprintf(f, "# %s: correct=%v attempted=%d failed=%d failed_frac=%.4f\n",
		name, rep.Correct, rep.Attempted, rep.Failed, frac)
	keys := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := rep.Metrics[k]
		fmt.Fprintf(f, "%-36s %16.6g %s\n", k, m.Value, m.Unit)
	}
}
