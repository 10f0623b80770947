package service

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestMetricsExpositionGolden pins the Prometheus text exposition format
// byte for byte: dashboards and the chaos drill scrape these exact
// sample names, so a rename or format drift must be a deliberate,
// reviewed change. Regenerate with:
//
//	UPDATE_GOLDEN=1 go test ./internal/service/ -run Golden
func TestMetricsExpositionGolden(t *testing.T) {
	m := newMetrics()
	counters := []string{
		mCompileRequests, mCompileBuilds, mCompileCacheHits, mCompileJoined,
		mCompileEvictions, mCompileErrors,
		mOffsetsRequests, mOffsetsQueries, mOffsetsSegments, mOffsetsStrided,
		mOffsetsWalked, mOffsetsErrors,
		mJobsSubmitted, mJobsRejected, mJobsCompleted, mJobsFailed,
		mHTTPRequests, mHTTPErrors,
		mJournalRecords, mJournalErrors, mJournalSnapshots,
		mLayoutsRecovered, mJobsRecovered, mRecoverySkipped,
		mPanics, mShedRequests, mRetryShed, mBreakerOpens,
		mChaosDelays, mChaosErrors, mChaosDrops, mChaosDiskFaults,
		mClusterForwardCompile, mClusterJobsPlaced, mClusterJobsProxied,
		mClusterFills, mClusterFillBuilds, mClusterFillMismatch,
		mClusterLocalFallback,
		mPeerRequests("nb"), mPeerErrors("nb"),
	}
	for i, name := range counters {
		m.add(name, int64(i+1))
	}
	m.gauge(mQueueDepth, 3)
	m.gauge(mJobsRunning, 2)
	m.gauge(mLayoutsResident, 5)
	m.gauge(mBreakerState, breakerOpen)
	m.gauge(mPeerUp("nb"), 1)
	m.gauge(mRingShare("nb"), 0.34)
	for _, us := range []int64{30, 75, 800, 30000, 2000000} {
		m.observe("compile", us)
	}
	for _, us := range []int64{40, 90} {
		m.observe("offsets", us)
	}

	var buf bytes.Buffer
	m.writeExposition(&buf)

	golden := filepath.Join("testdata", "metrics.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition format drifted from %s:\n--- got ---\n%s--- want ---\n%s",
			golden, buf.String(), want)
	}
}
