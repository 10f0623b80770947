package cluster

import (
	"sync"
	"time"
)

// BreakerState is a circuit breaker's state; the values are what the
// service's breaker_state gauge exports.
type BreakerState int

const (
	BreakerClosed   BreakerState = 0 // every call is allowed
	BreakerHalfOpen BreakerState = 1 // one probe is out; its outcome decides
	BreakerOpen     BreakerState = 2 // calls are refused until the cooldown passes
)

// Breaker is a consecutive-failure circuit breaker, the one type the
// service uses for per-peer health and for shedding /v1/simulate.
// Threshold failures in a row open it: Allow refuses for cooldown, then
// half-opens and admits one probe, whose failure re-opens it for another
// cooldown. A success in any state closes it. The probe holds a lease,
// not the breaker: a probe that never reports (its caller gave up before
// any outcome existed) stops blocking after one more cooldown, when
// Allow admits the next probe. Record only outcomes that say something
// about the protected resource — a peer answering 404 is healthy.
type Breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	now       func() time.Time
	onChange  func(BreakerState)

	state    BreakerState
	failures int
	since    time.Time // when the breaker opened, or when the probe was admitted
}

// NewBreaker builds a closed breaker; threshold ≤ 0 defaults to 3 and
// cooldown ≤ 0 to 5 s. onChange, when non-nil, receives the new state at
// every transition. It runs with the breaker locked, so a gauge it sets
// sees the transitions in order; it must not call back into the breaker.
func NewBreaker(threshold int, cooldown time.Duration, onChange func(BreakerState)) *Breaker {
	if threshold <= 0 {
		threshold = 3
	}
	if cooldown <= 0 {
		cooldown = 5 * time.Second
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, now: time.Now, onChange: onChange}
}

// SetClock replaces the breaker's clock (tests drive cooldowns with it).
func (b *Breaker) SetClock(now func() time.Time) {
	b.mu.Lock()
	b.now = now
	b.mu.Unlock()
}

// Allow reports whether a call may proceed: always when closed, else
// only as a probe once a cooldown has passed since the breaker opened
// or admitted the last probe.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerClosed {
		return true
	}
	now := b.now()
	if now.Sub(b.since) < b.cooldown {
		return false
	}
	b.since = now
	b.setLocked(BreakerHalfOpen)
	return true
}

// Record feeds a call outcome: success closes the breaker; a failure
// opens a closed breaker at threshold and re-opens a half-open one.
func (b *Breaker) Record(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok {
		b.failures = 0
		b.setLocked(BreakerClosed)
		return
	}
	b.failures++
	if b.state == BreakerHalfOpen || (b.state == BreakerClosed && b.failures >= b.threshold) {
		b.since = b.now()
		b.setLocked(BreakerOpen)
	}
}

// setLocked moves to state s, notifying the callback on a change.
func (b *Breaker) setLocked(s BreakerState) {
	if b.state == s {
		return
	}
	b.state = s
	if b.onChange != nil {
		b.onChange(s)
	}
}

// Open reports whether the breaker is not closed (for
// /v1/cluster/status and the per-peer up gauge).
func (b *Breaker) Open() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state != BreakerClosed
}
