package service

import (
	"context"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"flopt/internal/cluster"
)

// Admission control and graceful degradation: the middleware chain and
// the two stateful admission primitives that keep floptd answering cheap
// traffic while expensive traffic is shed — a circuit breaker over the
// simulate pipeline (a cluster.Breaker, the same type that tracks peer
// health; see newAdmissionBreaker) and a token-style retry budget.
//
// Middleware order (outermost first): panic recovery, chaos injection,
// retry budget, per-request deadline, then the route mux. Recovery is
// outermost so a panic anywhere — including one injected by chaos —
// becomes a 500 and a counter instead of a dead connection.

// newAdmissionBreaker builds the breaker over simulate job outcomes.
// admissionBreakerThreshold consecutive failures open it for
// breakerCooldown; while open, /v1/simulate is shed with 503 (offset and
// compile traffic is never gated — the breaker protects the expensive
// pipeline, not the cheap one). Its transitions drive the breaker_state
// gauge and breaker_opens_total.
func newAdmissionBreaker(met *metrics) *cluster.Breaker {
	met.gauge(mBreakerState, float64(cluster.BreakerClosed))
	return cluster.NewBreaker(admissionBreakerThreshold, breakerCooldown, func(st cluster.BreakerState) {
		if st == cluster.BreakerOpen {
			met.inc(mBreakerOpens)
		}
		met.gauge(mBreakerState, float64(st))
	})
}

// retryBudget is a token bucket that bounds how much service capacity
// retried requests may consume: every first-attempt request deposits
// ratio tokens (capped at retryBudgetTokens), and a request declaring
// itself a retry (X-Retry-Attempt ≥ 1) withdraws one whole token or is
// shed with 429. Under healthy traffic the bucket stays full and retries
// are free; during an outage the deposit stream dries up and retry
// storms are capped at ratio × the surviving request rate, which is what
// keeps a recovering daemon from being re-flattened by its own backlog.
type retryBudget struct {
	mu     sync.Mutex
	tokens float64
	ratio  float64
}

func newRetryBudget() *retryBudget {
	return &retryBudget{tokens: retryBudgetTokens, ratio: 0.1}
}

// onFirstAttempt deposits for a non-retry request.
func (rb *retryBudget) onFirstAttempt() {
	rb.mu.Lock()
	if rb.tokens += rb.ratio; rb.tokens > retryBudgetTokens {
		rb.tokens = retryBudgetTokens
	}
	rb.mu.Unlock()
}

// allowRetry withdraws one token, reporting whether the retry may run.
func (rb *retryBudget) allowRetry() bool {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	if rb.tokens < 1 {
		return false
	}
	rb.tokens--
	return true
}

// ---- middleware ----

// withMiddleware wraps the route mux in the service-wide middleware
// chain: recover(chaos(retryBudget(deadline(mux)))).
func (s *Server) withMiddleware(h http.Handler) http.Handler {
	h = s.deadlineWare(h)
	h = s.retryWare(h)
	if s.chaos != nil {
		h = s.chaos.middleware(h)
	}
	return s.recoverWare(h)
}

// recoverWare converts handler panics into 500s and a counter. The
// sentinel http.ErrAbortHandler is re-panicked so net/http aborts the
// connection silently (the chaos middleware's dropped-request fault and
// deliberate aborts depend on this).
func (s *Server) recoverWare(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler { //nolint:errorlint // sentinel, compared by identity
				panic(rec)
			}
			s.met.inc(mPanics)
			s.failErr(w, errf(kindInternal, "internal error: %v", rec))
		}()
		next.ServeHTTP(w, r)
	})
}

// retryWare enforces the retry budget on /v1/ routes: requests declaring
// a retry attempt must withdraw a token; first attempts deposit.
func (s *Server) retryWare(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/") {
			if attempt, _ := strconv.Atoi(r.Header.Get("X-Retry-Attempt")); attempt > 0 {
				if !s.retry.allowRetry() {
					s.met.inc(mRetryShed)
					s.failErr(w, overloadf(s.jobs.retryAfterSeconds(), "retry budget exhausted, back off"))
					return
				}
			} else {
				s.retry.onFirstAttempt()
			}
		}
		next.ServeHTTP(w, r)
	})
}

// deadlineWare plumbs the per-request deadline as a context timeout.
// Handlers observe it through r.Context(): compile waits are cut short,
// offset batches abort between queries, and the HTTP server's timeouts
// bound what the context cannot (header and body reads).
func (s *Server) deadlineWare(next http.Handler) http.Handler {
	if s.cfg.RequestTimeout <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}
