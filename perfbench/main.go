// Command perfbench is the repository's benchmark: four workloads
// (ingest-encode, train-decode, archive-requantize, serve-mix) timed
// against an interleaved stdlib image/jpeg yardstick. See README.md.
//
//	go run . --workload ingest-encode --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is the JSON result. --trace 1 runs
// the per-layer replay instead of the end-to-end measurement; --repeat n
// runs the workload n times (seeds seed..seed+n-1) as child processes
// and prints each metric's median, quartiles and spreads.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"repro/perfbench/e2e"
	"repro/perfbench/traced"
)

// result is the line the benchmark contract reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// spansDir is where the traced run writes its spans.
var spansDir string

func main() {
	workload := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 15, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the per-layer traced replay")
	repeat := flag.Int("repeat", 0, "run the workload this many times (seeds seed, seed+1, …) and summarize")
	spans := flag.String("spans-dir", ".bench_build/spans", "where the traced run writes its spans")
	flag.Parse()
	spansDir = *spans
	if err := run(*workload, *seed, *seconds, *trace, *repeat); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, trace, repeat int) error {
	if seconds <= 0 || math.IsNaN(seconds) {
		return fmt.Errorf("--seconds must be positive")
	}
	if repeat > 0 {
		return repeatRuns(workload, seed, seconds, trace, repeat)
	}
	ctx := context.Background()
	total := time.Duration(seconds * float64(time.Second))
	var (
		metrics          map[string]float64
		attempted, fails int64
		units            = e2e.Units
	)
	if trace == 1 {
		units = traced.Units
		r, err := traced.Run(ctx, workload, seed, total, spansDir, os.Stdout)
		if err != nil {
			return err
		}
		metrics, attempted, fails = r.Metrics, r.Attempted, r.Failed
	} else {
		m, a, f, err := endToEnd(ctx, workload, seed, total)
		if err != nil {
			return err
		}
		metrics, attempted, fails = m, a, f
	}
	out := result{Correct: fails == 0, Attempted: attempted, Failed: fails, Metrics: map[string]metric{}}
	for k, v := range metrics {
		out.Metrics[k] = metric{Value: v, Unit: units[k]}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// endToEnd runs one untraced measurement and prints its context lines.
func endToEnd(ctx context.Context, workload string, seed int64, total time.Duration) (map[string]float64, int64, int64, error) {
	b, err := e2e.Prepare(ctx, workload, seed, e2e.SetupRepeats)
	if err != nil {
		return nil, 0, 0, err
	}
	defer b.Close()
	fmt.Printf("workload %s seed %d input digest %s\n", workload, seed, b.In.Digest)
	if err := b.DropSetupData(); err != nil {
		fmt.Println("note:", err)
	}
	m, err := b.Measure(total)
	if err != nil {
		return nil, 0, 0, err
	}
	for _, n := range m.Notes {
		fmt.Println(n)
	}
	fmt.Printf("setup raw s %v, yardstick Mpx/s %v, rescaled s %v\n", b.SetupRaw, b.SetupYard, b.SetupScaled)
	for _, k := range e2e.SortedKeys(m.Raw) {
		fmt.Printf("%s %.6g\n", k, m.Raw[k])
	}
	fmt.Printf("fail_frac %d/%d\n", b.Failed(), b.Attempted())
	for _, f := range b.Failures() {
		fmt.Println("failure:", f)
	}
	return m.Metrics, b.Attempted(), b.Failed(), nil
}
