package main

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"flopt/internal/obs"
)

// stalledSchedule sends ten requests 1 ms apart; the first one stalls for
// 50 ms in the "server".
func stalledSchedule(t *testing.T, conns int) *loopResult {
	t.Helper()
	due := make([]time.Duration, 10)
	for i := range due {
		due[i] = time.Duration(i) * time.Millisecond
	}
	return openLoop(context.Background(), due, conns, 0, func(_ context.Context, i int) error {
		if i == 0 {
			time.Sleep(50 * time.Millisecond)
		}
		return nil
	})
}

func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	r := stalledSchedule(t, 1)
	// With one connection every later request waits for the stall, and
	// its latency runs from when it was due, not from when it was sent.
	for i := 1; i < 10; i++ {
		if min := float64(50-i) - 1; r.lat[i] < min || r.lag[i] < min {
			t.Errorf("request %d: latency %.2f ms, lag %.2f ms; want both ≥ %.0f ms", i, r.lat[i], r.lag[i], min)
		}
	}
	if r.failed != 0 || len(r.sentLat()) != 10 {
		t.Errorf("failed %d, sent %d", r.failed, len(r.sentLat()))
	}

	// A second connection keeps serving the schedule around the stall.
	r = stalledSchedule(t, 2)
	if r.lat[0] < 49 {
		t.Errorf("stalled request latency %.2f ms, want ≥ 49", r.lat[0])
	}
	for i := 1; i < 10; i++ {
		if r.lat[i] > 25 {
			t.Errorf("request %d waited %.2f ms behind a stall on the other connection", i, r.lat[i])
		}
	}
}

func TestOpenLoopAbortsWhenFarBehind(t *testing.T) {
	due := make([]time.Duration, 100)
	r := openLoop(context.Background(), due, 1, 20*time.Millisecond, func(context.Context, int) error {
		time.Sleep(10 * time.Millisecond)
		return nil
	})
	if !r.aborted || len(r.sentLat()) >= 10 {
		t.Fatalf("aborted %v after %d requests; want an abort within 3", r.aborted, len(r.sentLat()))
	}
}

func TestPercentilesComeFromRawSamples(t *testing.T) {
	// 1000 latencies from 1.001 to 2.000 ms: the exact p99 is 1.990 ms.
	// floptd's histogram buckets (… 1000, 2500 µs …) would put it at the
	// 2500 µs bucket bound.
	var samples []float64
	h := obs.NewHistogram(1000, 2500, 5000)
	for us := 1001; us <= 2000; us++ {
		samples = append(samples, float64(us)/1000)
		h.Observe(int64(us))
	}
	rand.New(rand.NewSource(1)).Shuffle(len(samples), func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })
	if got := percentile(samples, 0.99); got != 1.990 {
		t.Errorf("p99 = %v, want exactly 1.990", got)
	}
	if got := percentile(samples, 0.5); got != 1.500 {
		t.Errorf("p50 = %v, want exactly 1.500", got)
	}
	if bucket := float64(h.Quantile(0.99)) / 1000; bucket == 1.990 {
		t.Errorf("histogram quantile %v equals the exact value; the test no longer tells them apart", bucket)
	}
}

func TestPoissonDueIsSeededAndOnRate(t *testing.T) {
	a := poissonDue(rand.New(rand.NewSource(3)), 1000, 10*time.Second)
	b := poissonDue(rand.New(rand.NewSource(3)), 1000, 10*time.Second)
	if len(a) != len(b) || a[len(a)-1] != b[len(b)-1] {
		t.Fatal("same seed gave different schedules")
	}
	if len(a) < 9500 || len(a) > 10500 {
		t.Errorf("%d arrivals in 10 s at 1000/s", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 10*time.Second {
			t.Fatalf("arrival %d at %v out of order or past the end", i, a[i])
		}
	}
}
