package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"flopt/internal/workload"
)

// TestClosedLoopHammer drives the hammer mode: 4 closed-loop workers
// for about 300 ms against one daemon reachable under six URLs. Worker
// w sends to target w, so the first four URLs serve the measured
// traffic and the last two see only their warm-up probe.
func TestClosedLoopHammer(t *testing.T) {
	s, _ := newTestServer(t, nil)
	const targets, workers = 6, 4
	var offsets [targets]atomic.Int64
	urls := make([]string, targets)
	for i := range urls {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/offsets") {
				offsets[i].Add(1)
			}
			s.Handler().ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}

	res, err := RunSpecLoad(context.Background(), SpecLoadOptions{
		BaseURL:     strings.Join(urls, ","),
		Events:      []workload.Event{{Kind: workload.KindOffsets, Program: "cc-ver-1"}},
		Concurrency: workers,
		Duration:    300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 || res.Events == 0 {
		t.Fatalf("hammer: %d events, %d errors", res.Events, res.Errors)
	}
	if res.Kinds[workload.KindOffsets] != res.Events || len(res.Classes) != 0 {
		t.Errorf("hammer issued kinds %v, classes %v; want offsets only, no class", res.Kinds, res.Classes)
	}
	if res.RPS <= 0 || res.P50US <= 0 || res.P99US < res.P50US || res.Targets != targets {
		t.Errorf("result = %+v", res)
	}
	var served int64
	for i := range offsets {
		n := offsets[i].Load()
		served += n
		switch {
		case i < workers && n < 2:
			t.Errorf("target %d served %d offsets requests, want its warm-up and its worker's traffic", i, n)
		case i >= workers && n != 1:
			t.Errorf("target %d served %d offsets requests, want only the warm-up probe", i, n)
		}
	}
	if served != res.Events+targets {
		t.Errorf("targets served %d offsets requests, want %d events + %d probes", served, res.Events, targets)
	}
}
