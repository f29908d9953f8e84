package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"

	"repro/perfbench/e2e"
	"repro/perfbench/stats"
)

// repeatRuns is the steadiness check: it runs this binary n times as
// child processes, one seed each, and prints for every metric the
// median, the quartiles (as Python's statistics.quantiles gives them),
// the quartile spread and the (max − min) spread, both as shares of the
// median. BENCHMARK.json's bounds are set from this output.
func repeatRuns(workload string, seed int64, seconds float64, trace, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("run with seed %d: %w", s, err)
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			return fmt.Errorf("run with seed %d: result line: %w", s, err)
		}
		if !r.Correct || r.Failed != 0 {
			return fmt.Errorf("run with seed %d: %d of %d operations failed", s, r.Failed, r.Attempted)
		}
		fmt.Printf("seed %d:", s)
		for _, k := range e2e.SortedKeys(r.Metrics) {
			values[k] = append(values[k], r.Metrics[k].Value)
			fmt.Printf(" %s=%.6g", k, r.Metrics[k].Value)
		}
		fmt.Println()
	}
	fmt.Printf("%-32s %12s %12s %12s %9s %9s\n", "metric", "median", "q1", "q3", "iqr/med", "range/med")
	for _, k := range e2e.SortedKeys(values) {
		s := stats.Summarize(values[k])
		fmt.Printf("%-32s %12.6g %12.6g %12.6g %9.4f %9.4f\n", k, s.Median, s.Q1, s.Q3, s.IQRShare, s.MaxMinShare)
	}
	return nil
}
