package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"flopt/internal/cluster"
	"flopt/internal/service/api"
)

func TestBreakerStateMachine(t *testing.T) {
	met := newMetrics()
	b := newAdmissionBreaker(3, time.Minute, met)
	now := time.Unix(1000, 0)
	b.SetClock(func() time.Time { return now })

	if !b.Allow() {
		t.Fatal("closed breaker rejected")
	}
	b.Record(false)
	b.Record(false)
	if !b.Allow() {
		t.Fatal("breaker opened below threshold")
	}
	b.Record(false) // third consecutive failure: opens
	if b.Allow() {
		t.Fatal("open breaker admitted")
	}
	if got := met.counter(mBreakerOpens); got != 1 {
		t.Errorf("breaker opens = %d, want 1", got)
	}
	if got := met.snapshot().Gauges[mBreakerState]; got != float64(cluster.BreakerOpen) {
		t.Errorf("breaker_state gauge = %g, want %d", got, cluster.BreakerOpen)
	}

	// Cooldown elapses: exactly one probe is admitted.
	now = now.Add(time.Minute)
	if !b.Allow() {
		t.Fatal("half-open breaker rejected the probe")
	}
	if got := met.snapshot().Gauges[mBreakerState]; got != float64(cluster.BreakerHalfOpen) {
		t.Errorf("breaker_state gauge = %g, want %d", got, cluster.BreakerHalfOpen)
	}
	if b.Allow() {
		t.Fatal("half-open breaker admitted a second probe")
	}
	b.Record(true) // probe succeeds: closed
	if !b.Allow() || met.snapshot().Gauges[mBreakerState] != float64(cluster.BreakerClosed) {
		t.Fatal("successful probe did not close the breaker")
	}

	// A failed probe re-opens immediately and restarts the cooldown.
	b.Record(false)
	b.Record(false)
	b.Record(false)
	now = now.Add(time.Minute)
	if !b.Allow() {
		t.Fatal("second probe rejected")
	}
	b.Record(false)
	if b.Allow() {
		t.Fatal("breaker admitted right after a failed probe")
	}
	if got := met.counter(mBreakerOpens); got != 3 {
		t.Errorf("breaker opens = %d, want 3 (threshold, then failed probe)", got)
	}
}

// TestBreakerProbeWithoutJobDoesNotWedge drives the half-open breaker
// with a probe that never becomes a job: the submission is admitted as
// the probe, then answers 404 for an unknown layout, so no job outcome
// ever reports back. The probe's lease must run out after one more
// cooldown and let the next submission probe; a breaker that waits for
// the lost outcome sheds /v1/simulate forever.
func TestBreakerProbeWithoutJobDoesNotWedge(t *testing.T) {
	s, ts := newTestServer(t, nil)
	comp := compileTestProg(t, ts)
	var clock atomic.Int64 // read on handler goroutines
	clock.Store(time.Unix(1000, 0).UnixNano())
	s.breaker.SetClock(func() time.Time { return time.Unix(0, clock.Load()) })
	advance := func() { clock.Add(int64(s.cfg.BreakerCooldown)) }
	simulate := func(layoutID string) (int, api.JobResponse) {
		var sub api.JobResponse
		code, _ := postJSON(t, ts.URL+"/v1/simulate", api.SimulateRequest{LayoutID: layoutID}, &sub)
		return code, sub
	}

	for i := 0; i < s.cfg.BreakerThreshold; i++ {
		s.breaker.Record(false)
	}
	if code, _ := simulate(comp.LayoutID); code != http.StatusServiceUnavailable {
		t.Fatalf("open breaker: status %d, want 503", code)
	}
	advance()
	if code, _ := simulate("ly0000000000000000"); code != http.StatusNotFound {
		t.Fatalf("probe for an unknown layout: status %d, want 404", code)
	}
	if code, _ := simulate(comp.LayoutID); code != http.StatusServiceUnavailable {
		t.Fatalf("within the probe's lease: status %d, want 503", code)
	}
	advance()
	code, sub := simulate(comp.LayoutID)
	if code != http.StatusAccepted {
		t.Fatalf("after the probe's lease ran out: status %d, want 202", code)
	}
	waitJob(t, ts, sub.JobID)
	for deadline := time.Now().Add(10 * time.Second); s.breaker.Open(); {
		if time.Now().After(deadline) {
			t.Fatal("successful probe job did not close the breaker")
		}
		time.Sleep(time.Millisecond)
	}
	if got := s.Metrics().snapshot().Gauges[mBreakerState]; got != float64(cluster.BreakerClosed) {
		t.Errorf("breaker_state gauge = %g, want %d", got, cluster.BreakerClosed)
	}
}

func TestBreakerShedsSimulateNotOffsets(t *testing.T) {
	s, ts := newTestServer(t, nil)
	comp := compileTestProg(t, ts)

	// Trip the breaker the way real traffic would: consecutive job
	// failures reported through the pool's onResult hook.
	for i := 0; i < s.cfg.BreakerThreshold; i++ {
		s.breaker.Record(false)
	}
	resp, err := http.Post(ts.URL+"/v1/simulate", "application/json",
		strings.NewReader(`{"layout_id":"`+comp.LayoutID+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("simulate with open breaker: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	if got := s.Metrics().counter(mShedRequests); got != 1 {
		t.Errorf("shed requests = %d, want 1", got)
	}
	// The cheap path keeps flowing while the expensive one is shed.
	code, body := postJSON(t, ts.URL+"/v1/layouts/"+comp.LayoutID+"/offsets",
		api.OffsetsRequest{Array: "A", Queries: []api.OffsetQuery{{Start: []int64{0, 0}}}}, nil)
	if code != http.StatusOK {
		t.Errorf("offsets with open breaker: %d: %s", code, body)
	}
	if got := s.Metrics().snapshot().Gauges[mBreakerState]; got != float64(cluster.BreakerOpen) {
		t.Errorf("breaker_state gauge = %g, want %d", got, cluster.BreakerOpen)
	}
	// A success (probe or otherwise) closes it; simulate flows again.
	s.breaker.Record(true)
	var sub api.JobResponse
	if code, body := postJSON(t, ts.URL+"/v1/simulate", api.SimulateRequest{LayoutID: comp.LayoutID}, &sub); code != http.StatusAccepted {
		t.Errorf("simulate after close: %d: %s", code, body)
	} else {
		waitJob(t, ts, sub.JobID)
	}
}

func TestRetryBudgetSheds(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) { c.RetryBudget = 2 })

	doRetry := func() *http.Response {
		req, err := http.NewRequest("GET", ts.URL+"/v1/jobs/absent", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Retry-Attempt", "1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	// Two tokens: two declared retries pass through (404 from the mux),
	// the third is shed with 429 before reaching any handler.
	for i := 0; i < 2; i++ {
		if resp := doRetry(); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("retry %d: status %d, want 404", i, resp.StatusCode)
		}
	}
	resp := doRetry()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("exhausted budget: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed retry missing Retry-After")
	}
	if got := s.Metrics().counter(mRetryShed); got != 1 {
		t.Errorf("retry shed counter = %d, want 1", got)
	}
	// First-attempt traffic refills the bucket at the deposit ratio
	// (twelve deposits of 0.1 — not ten, since the float sum creeps up
	// just shy of 1.0 — buy one more retry).
	for i := 0; i < 12; i++ {
		r, err := http.Get(ts.URL + "/v1/jobs/absent")
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
	}
	if resp := doRetry(); resp.StatusCode != http.StatusNotFound {
		t.Errorf("retry after refill: status %d, want 404", resp.StatusCode)
	}
}

func TestRecoverWareConvertsPanics(t *testing.T) {
	s, _ := newTestServer(t, nil)
	h := s.recoverWare(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/x", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("panicking handler: status %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "internal error") {
		t.Errorf("panic body = %q", rec.Body.String())
	}
	if got := s.Metrics().counter(mPanics); got != 1 {
		t.Errorf("panics recovered = %d, want 1", got)
	}

	// http.ErrAbortHandler must propagate: net/http uses it to abort the
	// connection, and the chaos drop fault depends on that.
	aborting := s.recoverWare(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	defer func() {
		if r := recover(); r != http.ErrAbortHandler { //nolint:errorlint // sentinel, compared by identity
			t.Errorf("recovered %v, want http.ErrAbortHandler to propagate", r)
		}
	}()
	aborting.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/v1/jobs/x", nil))
}

func TestRequestDeadlineAbortsOffsets(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) { c.RequestTimeout = time.Nanosecond })
	// Compile out of band: the deadline middleware would expire any HTTP
	// compile before it could answer, and the test targets the offsets
	// mid-batch abort specifically.
	ent, _, err := s.compileCached(context.Background(), testProg, s.cfg.Platform, mCompileBuilds)
	if err != nil {
		t.Fatal(err)
	}
	code, body := postJSON(t, ts.URL+"/v1/layouts/"+ent.ID+"/offsets",
		api.OffsetsRequest{Array: "A", Queries: []api.OffsetQuery{{Start: []int64{0, 0}, Dir: []int64{0, 1}, Count: 8}}}, nil)
	if code != http.StatusServiceUnavailable {
		t.Errorf("expired deadline: status %d, want 503 (%s)", code, body)
	}
	if !strings.Contains(body, "deadline exceeded") {
		t.Errorf("expired deadline body = %q", body)
	}
}

func TestRetryAfterScalesWithBacklog(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{}, 8)
	p := stubbedPool(1, 8, func(ctx context.Context, j *job) (*api.SimReport, error) {
		started <- struct{}{}
		<-block
		return &api.SimReport{}, nil
	})
	p.mu.Lock()
	p.ewmaUS = 2e6 // 2 s per job
	p.mu.Unlock()

	if got := p.retryAfterSeconds(); got != 1 {
		t.Errorf("idle Retry-After = %d, want floor 1", got)
	}
	if _, err := p.submit(nil, api.SimulateRequest{}); err != nil {
		t.Fatal(err)
	}
	<-started // worker holds job 1: backlog 1
	if got := p.retryAfterSeconds(); got != 2 {
		t.Errorf("backlog 1 Retry-After = %d, want 2", got)
	}
	for i := 0; i < 4; i++ {
		if _, err := p.submit(nil, api.SimulateRequest{}); err != nil {
			t.Fatal(err)
		}
	}
	// Backlog 5 × 2 s / 1 worker: tell clients to stay away ~10 s.
	if got := p.retryAfterSeconds(); got != 10 {
		t.Errorf("backlog 5 Retry-After = %d, want 10", got)
	}
	p.mu.Lock()
	p.ewmaUS = 120e6
	p.mu.Unlock()
	if got := p.retryAfterSeconds(); got != 60 {
		t.Errorf("slow-job Retry-After = %d, want 60 (clamped)", got)
	}
	close(block)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.drain(ctx); err != nil {
		t.Fatal(err)
	}
}
