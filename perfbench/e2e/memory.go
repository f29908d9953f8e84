package e2e

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// ReleaseSetupMemory returns the heap that set-up alone needed to the
// OS and restarts the kernel's peak-RSS counter, so that PeakRSSMB read
// after the timed phase reports that phase alone. It returns the peak
// RSS reached before the reset. Writing 5 to /proc/self/clear_refs
// resets VmHWM to the current RSS (Linux ≥ 4.0); where that is not
// possible the error says so and the later reading includes set-up.
func ReleaseSetupMemory() (setupPeakMB float64, err error) {
	setupPeakMB, err = PeakRSSMB()
	if err != nil {
		return 0, err
	}
	runtime.GC()
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return setupPeakMB, fmt.Errorf("resetting peak RSS: %w", err)
	}
	return setupPeakMB, nil
}

// PeakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func PeakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line[len("VmHWM:"):])
		if len(fields) < 1 {
			break
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM %q: %w", line, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	return 0, fmt.Errorf("reading peak RSS: no VmHWM line in /proc/self/status")
}
