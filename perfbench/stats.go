package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// procStatusKB reads one "Name:  N kB" field of /proc/<pid>/status.
func procStatusKB(pid, field string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %s of /proc/%s/status: %w", field, pid, err)
			}
			return kb, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%s/status", field, pid)
}

// peakRSSMiB is the VmHWM (peak resident set) of a process in MiB.
func peakRSSMiB(pid string) (float64, error) {
	kb, err := procStatusKB(pid, "VmHWM")
	return kb / 1024, err
}

// resetPeakRSS makes this process's VmHWM restart from its current RSS, so
// a later peakRSSMiB("self") covers only what ran in between.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
