// Command perfbench is the repository's benchmark: it runs one named
// workload end to end, checks every output against a serial in-process
// campaign, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics) as the last line of standard output, one JSON object.
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload trace-k8 --seed 1 --seconds 15 --trace 0
//
// See perfbench/README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

// runBudget bounds one run, well inside the three minutes a run may take.
const runBudget = 150 * time.Second

func main() {
	var opts options
	var traceFlag int
	flag.StringVar(&opts.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&opts.seed, "seed", 1, "workload seed")
	flag.Float64Var(&opts.seconds, "seconds", 15, "measure whole rounds until this many seconds have passed")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()
	opts.trace = traceFlag == 1
	if flag.NArg() > 0 || opts.workload == "" || (traceFlag != 0 && traceFlag != 1) || opts.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := newBench(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	err = b.run(ctx)
	cancel()
	b.close()
	if err != nil {
		b.chk.check(false, "run aborted: %v", err)
	}
	out := report{
		Correct:   !b.chk.bad,
		Attempted: b.chk.attempted,
		Failed:    b.chk.failed,
		Metrics:   b.metrics(),
	}
	b.printSummary()
	for _, m := range b.chk.msgs {
		fmt.Fprintln(os.Stderr, "check failed:", m)
	}
	line, jerr := json.Marshal(out)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", jerr)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// report is the final line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
