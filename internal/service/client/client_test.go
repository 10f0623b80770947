package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"flopt/internal/service/api"
)

func TestTypedErrors(t *testing.T) {
	cases := []struct {
		status int
		env    api.Error
		want   error
	}{
		{400, api.Error{Message: "bad", Code: api.CodeBadRequest}, ErrBadRequest},
		{404, api.Error{Message: "gone", Code: api.CodeNotFound}, ErrNotFound},
		{422, api.Error{Message: "nope", Code: api.CodeUnprocessable}, ErrUnprocessable},
		{429, api.Error{Message: "slow down", Code: api.CodeOverload, RetryAfterS: 7}, ErrThrottled},
		{503, api.Error{Message: "draining", Code: api.CodeUnavailable}, ErrUnavailable},
		{500, api.Error{Message: "boom", Code: api.CodeInternal}, ErrInternal},
	}
	for _, tc := range cases {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(tc.status)
			json.NewEncoder(w).Encode(tc.env)
		}))
		c := New(srv.URL)
		_, err := c.JobStatus(context.Background(), "job-1")
		srv.Close()
		if !errors.Is(err, tc.want) {
			t.Errorf("status %d: errors.Is(%v, %v) = false", tc.status, err, tc.want)
		}
		var ae *APIError
		if !errors.As(err, &ae) {
			t.Fatalf("status %d: error %T is not *APIError", tc.status, err)
		}
		if ae.Message != tc.env.Message || ae.Status != tc.status {
			t.Errorf("status %d: APIError = %+v", tc.status, ae)
		}
		if tc.status == 429 && ae.RetryAfterS != 7 {
			t.Errorf("RetryAfterS = %d, want 7", ae.RetryAfterS)
		}
	}
}

func TestNonJSONErrorBody(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "plain text panic", http.StatusInternalServerError)
	}))
	defer srv.Close()
	_, err := New(srv.URL).JobStatus(context.Background(), "j")
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("errors.Is(ErrInternal) = false for %v", err)
	}
	var ae *APIError
	if !errors.As(err, &ae) || ae.Message != "plain text panic" {
		t.Fatalf("APIError = %+v", ae)
	}
}

// TestShedResponseIsSentOnce: the client never retries on its own. A
// 503 or 429 comes back after one request, as a typed error carrying the
// server's Retry-After hint, and no request is stamped as a retry.
func TestShedResponseIsSentOnce(t *testing.T) {
	for _, tc := range []struct {
		status int
		code   string
		want   error
	}{
		{http.StatusServiceUnavailable, api.CodeUnavailable, ErrUnavailable},
		{http.StatusTooManyRequests, api.CodeOverload, ErrThrottled},
	} {
		var calls int32
		var retryHeaders int32
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			atomic.AddInt32(&calls, 1)
			if r.Header.Get("X-Retry-Attempt") != "" {
				atomic.AddInt32(&retryHeaders, 1)
			}
			w.WriteHeader(tc.status)
			json.NewEncoder(w).Encode(api.Error{Message: "shed", Code: tc.code, RetryAfterS: 2})
		}))
		_, err := New(srv.URL).JobStatus(context.Background(), "j")
		srv.Close()
		if !errors.Is(err, tc.want) {
			t.Fatalf("status %d: err = %v, want %v", tc.status, err, tc.want)
		}
		var ae *APIError
		if !errors.As(err, &ae) || ae.RetryAfterS != 2 {
			t.Errorf("status %d: APIError = %+v, want RetryAfterS 2", tc.status, ae)
		}
		if n := atomic.LoadInt32(&calls); n != 1 {
			t.Errorf("status %d: %d requests sent, want 1", tc.status, n)
		}
		if n := atomic.LoadInt32(&retryHeaders); n != 0 {
			t.Errorf("status %d: %d requests carried X-Retry-Attempt", tc.status, n)
		}
	}
}

func TestStaticHeaderAndRoutes(t *testing.T) {
	type seen struct {
		method, path, peer string
	}
	var got []seen
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = append(got, seen{r.Method, r.URL.Path, r.Header.Get("X-Floptd-Peer")})
		switch {
		case r.URL.Path == "/v1/compile":
			json.NewEncoder(w).Encode(api.CompileResponse{LayoutID: "ly0"})
		case r.URL.Path == "/v1/layouts/ly0/offsets":
			json.NewEncoder(w).Encode(api.OffsetsResponse{LayoutID: "ly0"})
		case r.URL.Path == "/v1/layouts/ly0":
			json.NewEncoder(w).Encode(api.LayoutRecord{ID: "ly0"})
		case r.URL.Path == "/v1/simulate":
			json.NewEncoder(w).Encode(api.JobResponse{JobID: "job-1"})
		case r.URL.Path == "/v1/cluster/status":
			json.NewEncoder(w).Encode(api.ClusterStatusResponse{Self: "a"})
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()

	c := New(srv.URL, WithHeader("X-Floptd-Peer", "b"))
	ctx := context.Background()
	if _, err := c.Compile(ctx, &api.CompileRequest{Source: "x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Offsets(ctx, "ly0", &api.OffsetsRequest{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.LayoutRecord(ctx, "ly0"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Simulate(ctx, &api.SimulateRequest{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ClusterStatus(ctx); err != nil {
		t.Fatal(err)
	}
	want := []seen{
		{"POST", "/v1/compile", "b"},
		{"POST", "/v1/layouts/ly0/offsets", "b"},
		{"GET", "/v1/layouts/ly0", "b"},
		{"POST", "/v1/simulate", "b"},
		{"GET", "/v1/cluster/status", "b"},
	}
	if len(got) != len(want) {
		t.Fatalf("saw %d requests, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("request %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestContextCancellationAbortsRequest: a request to a server that never
// answers returns once the caller's context expires.
func TestContextCancellationAbortsRequest(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer srv.Close()
	defer close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := New(srv.URL).JobStatus(ctx, "j")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("request ignored context: ran %v", elapsed)
	}
}
