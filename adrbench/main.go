// Command adrbench is the repository's end-to-end benchmark. It runs one
// named workload against the duplicate-detection service, checks the
// service's outputs against an independent oracle, and prints a ledger
// record line followed by one JSON result line:
//
//	bash adrbench/run.sh --workload ingest-stream --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// nothing traced. With --trace 1 the run is repeated and its inputs are
// then replayed through the layers' public functions with a span around
// each call; the result carries the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// result is the last line a run prints.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// Exit codes: a failed gate prints a result saying so and exits 1; a run
// whose generator fell behind prints no result and exits 3.
const (
	exitFailed  = 1
	exitUsage   = 2
	exitInvalid = 3
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("adrbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: bulk-tga, ingest-stream or ingest-singles")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 25, "how long the measured phase runs")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced replay and per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "adrbench: need --workload (bulk-tga, ingest-stream, ingest-singles), --seconds >= 1, --trace 0|1\n")
		return exitUsage
	}
	p := params{
		workload: w.name,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		sizes:    fullSizes,
		spanDir:  filepath.Join(".bench_build", "spans"),
		log:      stderr,
	}
	return execute(w, p, stdout, stderr)
}

// execute runs w and prints its record and result.
func execute(w *workload, p params, stdout, stderr io.Writer) int {
	rep, err := w.run(p)
	if err != nil {
		fmt.Fprintf(stderr, "adrbench: %s: %v\n", w.name, err)
		return exitFailed
	}
	rep.Workload, rep.Why, rep.Host = w.name, w.why, describeHost()
	record, err := json.Marshal(map[string]*report{"record": rep})
	if err != nil {
		fmt.Fprintf(stderr, "adrbench: %v\n", err)
		return exitFailed
	}
	fmt.Fprintln(stdout, string(record))
	if !rep.Valid {
		fmt.Fprintf(stderr, "adrbench: invalid run: %s\n", rep.Invalid)
		return exitInvalid
	}
	res := result{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: rep.Metrics}
	if !rep.Correct {
		fmt.Fprintf(stderr, "adrbench: correctness gate failed: %s\n", rep.Gate)
		res.Metrics = metricSet{}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "adrbench: %v\n", err)
		return exitFailed
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return exitFailed
	}
	return 0
}
