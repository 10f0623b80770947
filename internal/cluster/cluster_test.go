package cluster

import (
	"fmt"
	"math"
	"testing"
	"time"
)

func TestParseRoster(t *testing.T) {
	nodes, err := ParseRoster("a=http://10.0.0.1:8080, b=http://10.0.0.2:8080 ,c=https://h3/")
	if err != nil {
		t.Fatalf("ParseRoster: %v", err)
	}
	want := []Node{
		{ID: "a", URL: "http://10.0.0.1:8080"},
		{ID: "b", URL: "http://10.0.0.2:8080"},
		{ID: "c", URL: "https://h3"},
	}
	if len(nodes) != len(want) {
		t.Fatalf("got %d nodes, want %d", len(nodes), len(want))
	}
	for i, n := range nodes {
		if n != want[i] {
			t.Errorf("node %d = %+v, want %+v", i, n, want[i])
		}
	}

	bad := []string{
		"",
		"a=http://x,a=http://y", // duplicate ID
		"a http://x",            // no '='
		"no-dash=http://x",      // '-' reserved by job IDs
		"a=ftp://x",             // non-http scheme
		"a=http://",             // no host
		"=http://x",             // empty ID
	}
	for _, spec := range bad {
		if _, err := ParseRoster(spec); err == nil {
			t.Errorf("ParseRoster(%q) accepted, want error", spec)
		}
	}
}

// TestRingGoldenOwnership pins the ring's ownership function for a
// fixed three-node roster at the default vnode count. The assignments
// below were captured from the implementation and must never drift:
// every cluster member routes by this table, so a change here is a
// routing-compatibility break, not a refactor.
func TestRingGoldenOwnership(t *testing.T) {
	r := NewRing([]string{"a", "b", "c"})
	golden := map[string]string{
		"ly0000000000000000": "c",
		"ly1111111111111111": "b",
		"ly2222222222222222": "c",
		"ly3333333333333333": "a",
		"ly4444444444444444": "a",
		"ly5555555555555555": "a",
		"ly6666666666666666": "a",
		"ly7777777777777777": "b",
		"ly8888888888888888": "c",
		"ly9999999999999999": "c",
		"lyaaaaaaaaaaaaaaaa": "b",
		"lybbbbbbbbbbbbbbbb": "c",
		"lycccccccccccccccc": "a",
		"lydddddddddddddddd": "c",
		"lyeeeeeeeeeeeeeeee": "a",
		"lyffffffffffffffff": "c",
	}
	for key, want := range golden {
		if got := r.Owner(key); got != want {
			t.Errorf("Owner(%q) = %q, want %q", key, got, want)
		}
	}
}

func TestRingDeterministicAcrossConstruction(t *testing.T) {
	// Roster order must not matter: every permutation yields the same
	// ownership function.
	r1 := NewRing([]string{"a", "b", "c"})
	r2 := NewRing([]string{"c", "a", "b"})
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("ly%016x", i*2654435761)
		if r1.Owner(key) != r2.Owner(key) {
			t.Fatalf("owner of %q differs across roster orderings", key)
		}
	}
}

func TestRingSharesBalancedAndSumToOne(t *testing.T) {
	r := NewRing([]string{"a", "b", "c"})
	var sum float64
	for _, id := range r.Nodes() {
		s := r.Share(id)
		sum += s
		// With 64 vnodes each share should be within ~0.15 of 1/3.
		if math.Abs(s-1.0/3.0) > 0.15 {
			t.Errorf("Share(%q) = %.3f, want within 0.15 of 1/3", id, s)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %.9f, want 1", sum)
	}
}

func TestRingSingleNodeOwnsEverything(t *testing.T) {
	r := NewRing([]string{"solo"})
	for i := 0; i < 50; i++ {
		if got := r.Owner(fmt.Sprintf("key%d", i)); got != "solo" {
			t.Fatalf("Owner = %q, want solo", got)
		}
	}
	if s := r.Share("solo"); math.Abs(s-1) > 1e-9 {
		t.Errorf("Share(solo) = %v, want 1", s)
	}
	if empty := NewRing(nil); empty.Owner("x") != "" {
		t.Errorf("empty ring Owner = %q, want \"\"", empty.Owner("x"))
	}
}

func TestRingRemovalMovesOnlyVictimKeys(t *testing.T) {
	// Consistent hashing's contract: dropping a node must not reassign
	// keys between the survivors.
	full := NewRing([]string{"a", "b", "c"})
	reduced := NewRing([]string{"a", "b"})
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("ly%016x", i*7919)
		before := full.Owner(key)
		after := reduced.Owner(key)
		if before != "c" && after != before {
			t.Fatalf("key %q moved %s→%s though its owner survived", key, before, after)
		}
	}
}

func TestLeastLoaded(t *testing.T) {
	loads := map[string]Load{
		"a": {QueueDepth: 3, Running: 1},
		"b": {QueueDepth: 0, Running: 1},
		"c": {QueueDepth: 2, Running: 0},
	}
	if got := LeastLoaded("a", loads); got != "b" {
		t.Errorf("LeastLoaded = %q, want b", got)
	}
	// Tie between self and a peer → self (no pointless forwarding).
	loads["a"] = Load{QueueDepth: 1, Running: 0}
	if got := LeastLoaded("a", loads); got != "a" {
		t.Errorf("tie with self: LeastLoaded = %q, want a", got)
	}
	// Tie between two peers → lexicographically smallest, on every node.
	loads = map[string]Load{
		"a": {QueueDepth: 9},
		"b": {QueueDepth: 1},
		"c": {QueueDepth: 1},
	}
	if got := LeastLoaded("a", loads); got != "b" {
		t.Errorf("peer tie: LeastLoaded = %q, want b", got)
	}
	// Empty table → self.
	if got := LeastLoaded("a", nil); got != "a" {
		t.Errorf("empty table: LeastLoaded = %q, want a", got)
	}
}

func TestTable(t *testing.T) {
	tb := NewTable()
	tb.Update("a", Load{QueueDepth: 2, UpdatedAt: time.Unix(100, 0)})
	if l, ok := tb.Get("a"); !ok || l.QueueDepth != 2 {
		t.Fatalf("Get(a) = %+v, %v", l, ok)
	}
	tb.Update("b", Load{Running: 1})
	snap := tb.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("Snapshot has %d entries, want 2", len(snap))
	}
	tb.Forget("a")
	if _, ok := tb.Get("a"); ok {
		t.Error("Get(a) after Forget still present")
	}
}

func TestBreaker(t *testing.T) {
	clock := time.Unix(1000, 0)
	b := NewBreaker(3, 5*time.Second, nil)
	b.now = func() time.Time { return clock }

	for i := 0; i < 2; i++ {
		b.Record(false)
	}
	if !b.Allow() || b.Open() {
		t.Fatal("breaker opened before threshold")
	}
	b.Record(false) // third consecutive failure
	if b.Allow() || !b.Open() {
		t.Fatal("breaker not open at threshold")
	}

	clock = clock.Add(4 * time.Second)
	if b.Allow() {
		t.Fatal("breaker admitted a call before cooldown")
	}
	clock = clock.Add(2 * time.Second)
	if !b.Allow() {
		t.Fatal("breaker refused the half-open probe")
	}
	if b.Allow() {
		t.Fatal("breaker admitted a second call during half-open")
	}
	// The probe never reports: its lease runs out after one more
	// cooldown, and the next caller probes.
	clock = clock.Add(5 * time.Second)
	if !b.Allow() {
		t.Fatal("unreported probe's lease never ran out")
	}
	b.Record(true)
	if !b.Allow() || b.Open() {
		t.Fatal("breaker not closed after successful probe")
	}

	// Success resets the consecutive count: two failures, a success,
	// then two more failures must not open.
	b.Record(false)
	b.Record(false)
	b.Record(true)
	b.Record(false)
	b.Record(false)
	if b.Open() {
		t.Fatal("breaker opened though failures were not consecutive")
	}
}

// TestBreakerStateChanges pins the callback: one call per transition,
// in order, and a failed probe re-opens at once.
func TestBreakerStateChanges(t *testing.T) {
	clock := time.Unix(1000, 0)
	var got []BreakerState
	b := NewBreaker(2, time.Second, func(s BreakerState) { got = append(got, s) })
	b.SetClock(func() time.Time { return clock })

	b.Record(false)
	b.Record(false) // opens
	b.Record(false) // already open: no transition
	clock = clock.Add(time.Second)
	b.Allow()       // half-open probe
	b.Record(false) // failed probe: open again
	clock = clock.Add(time.Second)
	b.Allow()
	b.Record(true)
	b.Record(true) // already closed: no transition
	want := []BreakerState{BreakerOpen, BreakerHalfOpen, BreakerOpen, BreakerHalfOpen, BreakerClosed}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("transitions = %v, want %v", got, want)
	}
}
