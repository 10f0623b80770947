package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// percentile returns the exact nearest-rank p-quantile (0 < p ≤ 1) of
// the raw samples: the smallest sample with at least a p share of the
// samples at or below it. Failed operations enter as +Inf, so they
// count as missing every limit. NaN for no samples.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the benchmark's result line: whether every output was
// correct, how many operations the timed window attempted and how many
// of them failed, and the metrics by name.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// problems lists every wrong output found; non-empty means Correct
	// is false.
	problems []string
}

func newOutcome() *outcome { return &outcome{Metrics: map[string]metric{}} }

func (o *outcome) set(name string, v float64, unit string) {
	o.Metrics[name] = metric{Value: v, Unit: unit}
}

// wrong records an incorrect output.
func (o *outcome) wrong(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// check records err as an incorrect output when non-nil.
func (o *outcome) check(err error) {
	if err != nil {
		o.problems = append(o.problems, err.Error())
	}
}

// endToEnd fills the end-to-end metrics every workload reports. lat
// holds one latency per attempted operation in ms (+Inf for a failed
// one); window is the measured time. A percentile that lands on a failed
// operation is charged the whole window, the longest any operation in
// it could have waited.
func (o *outcome) endToEnd(setup []time.Duration, lat []float64, window time.Duration, throughput float64) error {
	setupS := make([]float64, len(setup))
	for i, d := range setup {
		setupS[i] = d.Seconds()
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	charge := func(v float64) float64 {
		if math.IsInf(v, 1) {
			return ms(window)
		}
		return v
	}
	o.set("setup_s", percentile(setupS, 0.5), "s")
	o.set("p50_ms", charge(percentile(lat, 0.50)), "ms")
	o.set("p99_ms", charge(percentile(lat, 0.99)), "ms")
	o.set("throughput_per_s", throughput, "1/s")
	o.set("peak_rss_mb", rss, "MB")
	return nil
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("peak rss: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/self/status")
}

// setups is how many times a run builds its set-up; setup_s is the
// median.
const setups = 5

// repeatSetup builds a workload's set-up `setups` times, releasing all
// but the last, and returns the last with every build's duration.
func repeatSetup[T any](build func() (T, error), release func(T)) (T, []time.Duration, error) {
	var cur T
	times := make([]time.Duration, 0, setups)
	for i := 0; i < setups; i++ {
		if i > 0 {
			release(cur)
		}
		t0 := time.Now()
		v, err := build()
		if err != nil {
			var zero T
			return zero, nil, err
		}
		times = append(times, time.Since(t0))
		cur = v
	}
	return cur, times, nil
}
