package service

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"flopt/internal/obs"
)

// Metric names registered by the service. Counters and gauges are flat;
// request-latency histograms are per route (latency_us_<route>).
const (
	mCompileRequests  = "compile_requests_total"
	mCompileBuilds    = "compile_builds_total"
	mCompileCacheHits = "compile_cache_hits_total"
	mCompileJoined    = "compile_singleflight_joined_total"
	mCompileEvictions = "compile_evictions_total"
	mCompileErrors    = "compile_errors_total"
	mOffsetsRequests  = "offsets_requests_total"
	mOffsetsQueries   = "offsets_queries_total"
	mOffsetsSegments  = "offsets_segments_total"
	mOffsetsStrided   = "offsets_strided_total"
	mOffsetsWalked    = "offsets_walked_elems_total"
	mOffsetsErrors    = "offsets_errors_total"
	mJobsSubmitted    = "jobs_submitted_total"
	mJobsRejected     = "jobs_rejected_total"
	mJobsCompleted    = "jobs_completed_total"
	mJobsFailed       = "jobs_failed_total"
	mQueueDepth       = "queue_depth"
	mJobsRunning      = "jobs_running"
	mLayoutsResident  = "layouts_resident"
	mHTTPRequests     = "http_requests_total"
	mHTTPErrors       = "http_errors_total"

	// Durability: journal traffic and crash recovery.
	mJournalRecords   = "journal_records_total"
	mJournalErrors    = "journal_errors_total"
	mJournalSnapshots = "journal_snapshots_total"
	mLayoutsRecovered = "layouts_recovered_total"
	mJobsRecovered    = "jobs_recovered_total"
	mRecoverySkipped  = "recovery_skipped_total"

	// Admission control and degradation.
	mPanics       = "panics_recovered_total"
	mShedRequests = "shed_requests_total"
	mRetryShed    = "retry_budget_exhausted_total"
	mBreakerState = "breaker_state"
	mBreakerOpens = "breaker_opens_total"

	// Workload trace recording (-record).
	mTraceRecords = "trace_records_total"
	mTraceSkipped = "trace_skipped_total"
	mTraceErrors  = "trace_errors_total"

	// Chaos injection.
	mChaosDelays     = "chaos_delays_total"
	mChaosErrors     = "chaos_errors_total"
	mChaosDrops      = "chaos_drops_total"
	mChaosDiskFaults = "chaos_disk_faults_total"

	// Cluster mode. Per-peer counters and gauges additionally exist as
	// cluster_peer_requests_total_<id>, cluster_peer_errors_total_<id>,
	// cluster_peer_up_<id> and cluster_ring_share_<id> — flat names with
	// the peer ID suffixed, built at runtime from the roster.
	mClusterForwardCompile = "cluster_compile_forwarded_total"
	mClusterJobsPlaced     = "cluster_jobs_placed_remote_total"
	mClusterJobsProxied    = "cluster_jobs_proxied_total"
	mClusterFills          = "cluster_peer_fills_total"
	mClusterFillBuilds     = "cluster_fill_builds_total"
	mClusterFillMismatch   = "cluster_fill_mismatch_total"
	mClusterLocalFallback  = "cluster_peer_fallback_local_total"
)

// Per-peer metric names (the flat-name convention above).
func mPeerRequests(id string) string { return "cluster_peer_requests_total_" + id }
func mPeerErrors(id string) string   { return "cluster_peer_errors_total_" + id }
func mPeerUp(id string) string       { return "cluster_peer_up_" + id }
func mRingShare(id string) string    { return "cluster_ring_share_" + id }

// latencyBucketsUS are the request-latency buckets of the service's
// histograms: loopback API calls sit in the tens-to-hundreds of
// microseconds, simulate submissions in the low milliseconds, and the
// overflow bucket catches anything past one second.
func latencyBucketsUS() []int64 {
	return []int64{50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000, 250000, 1000000}
}

// metrics is the service-wide metric set: an obs.Registry behind a mutex.
// The obs package is deliberately single-owner (the simulator drives it
// from one goroutine); the service shares one registry across every
// request goroutine, so all access funnels through these locked helpers.
type metrics struct {
	mu  sync.Mutex
	reg *obs.Registry
}

func newMetrics() *metrics {
	return &metrics{reg: obs.NewRegistry()}
}

func (m *metrics) inc(name string) { m.add(name, 1) }

func (m *metrics) add(name string, d int64) {
	m.mu.Lock()
	m.reg.Counter(name).Add(d)
	m.mu.Unlock()
}

func (m *metrics) gauge(name string, v float64) {
	m.mu.Lock()
	m.reg.Gauge(name).Set(v)
	m.mu.Unlock()
}

// observe records one request latency (µs) for the given route.
func (m *metrics) observe(route string, us int64) {
	m.mu.Lock()
	m.reg.Histogram("latency_us_"+route, latencyBucketsUS()...).Observe(us)
	m.mu.Unlock()
}

// sloHistPrefix namespaces the per-SLO-class latency histograms; the
// exposition renders them as floptd_slo_latency_us_* series with an
// slo_class label instead of the per-route family.
const sloHistPrefix = "latency_us_slo_"

// observeSLO records one request latency (µs) for an SLO class.
func (m *metrics) observeSLO(class string, us int64) {
	m.mu.Lock()
	m.reg.Histogram(sloHistPrefix+class, latencyBucketsUS()...).Observe(us)
	m.mu.Unlock()
}

// counter reads one counter value (tests and /healthz).
func (m *metrics) counter(name string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.reg.Counter(name).Value()
}

func (m *metrics) snapshot() obs.RegistrySnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.reg.Snapshot()
}

// writeExposition renders the registry in the Prometheus text format:
// counters and gauges as flat floptd_-prefixed samples, histograms as
// cumulative le-labelled bucket series plus _sum and _count. Keys are
// emitted in sorted order so the output is deterministic.
func (m *metrics) writeExposition(w io.Writer) {
	s := m.snapshot()
	names := make([]string, 0, len(s.Counters)+len(s.Gauges))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "floptd_%s %d\n", name, s.Counters[name])
	}
	names = names[:0]
	for name := range s.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "floptd_%s %g\n", name, s.Gauges[name])
	}
	names = names[:0]
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := s.Histograms[name]
		// Per-SLO-class histograms render as their own family with an
		// slo_class label; everything else is the per-route family.
		family, label, key := "latency_us", "route", strings.TrimPrefix(name, "latency_us_")
		if class, ok := strings.CutPrefix(name, sloHistPrefix); ok {
			family, label, key = "slo_latency_us", "slo_class", class
		}
		var cum int64
		for _, b := range h.Buckets {
			cum += b.N
			le := "+Inf"
			if b.Le >= 0 {
				le = fmt.Sprint(b.Le)
			}
			fmt.Fprintf(w, "floptd_%s_bucket{%s=%q,le=%q} %d\n", family, label, key, le, cum)
		}
		if len(h.Buckets) == 0 || h.Buckets[len(h.Buckets)-1].Le >= 0 {
			fmt.Fprintf(w, "floptd_%s_bucket{%s=%q,le=\"+Inf\"} %d\n", family, label, key, h.Count)
		}
		fmt.Fprintf(w, "floptd_%s_sum{%s=%q} %d\n", family, label, key, h.Sum)
		fmt.Fprintf(w, "floptd_%s_count{%s=%q} %d\n", family, label, key, h.Count)
	}
}
