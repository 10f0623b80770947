package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"flopt/internal/service/api"
)

// startDurable builds a server rooted at dir without the automatic
// cleanup newTestServer registers — restart tests manage the lifecycle
// explicitly so they can stop and reopen the same data directory.
func startDurable(t *testing.T, dir string, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := DefaultServerConfig()
	cfg.Workers = 2
	cfg.DataDir = dir
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s, httptest.NewServer(s.Handler())
}

// stopDurable is the graceful-shutdown sequence floptd runs on SIGTERM:
// stop accepting, drain accepted jobs, compact and close the journals.
func stopDurable(t *testing.T, s *Server, ts *httptest.Server) {
	t.Helper()
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func TestLayoutRecoveryAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	a, tsA := startDurable(t, dir, nil)
	first := compileTestProg(t, tsA)
	var swim api.CompileResponse
	if code, body := postJSON(t, tsA.URL+"/v1/compile", api.CompileRequest{Workload: "swim"}, &swim); code != http.StatusOK {
		t.Fatalf("compile swim: %d: %s", code, body)
	}
	stopDurable(t, a, tsA)

	b, tsB := startDurable(t, dir, nil)
	defer stopDurable(t, b, tsB)
	if got := b.Metrics().counter(mLayoutsRecovered); got != 2 {
		t.Errorf("layouts recovered = %d, want 2", got)
	}
	if got := b.Metrics().counter(mRecoverySkipped); got != 0 {
		t.Errorf("recovery skipped = %d, want 0", got)
	}
	if got := b.cache.Len(); got != 2 {
		t.Errorf("resident after restart = %d, want 2", got)
	}
	// Identical resubmission hits the recovered catalog: same ID, cached.
	again := compileTestProg(t, tsB)
	if !again.Cached || again.LayoutID != first.LayoutID {
		t.Errorf("post-restart compile: cached=%v id=%q (want cached id %q)",
			again.Cached, again.LayoutID, first.LayoutID)
	}
	// The recovered layout answers offset queries without recompiling.
	var off api.OffsetsResponse
	code, body := postJSON(t, tsB.URL+"/v1/layouts/"+first.LayoutID+"/offsets",
		api.OffsetsRequest{Array: "A", Queries: []api.OffsetQuery{{Start: []int64{0, 0}, Dir: []int64{0, 1}, Count: 8}}}, &off)
	if code != http.StatusOK {
		t.Fatalf("offsets against recovered layout: %d: %s", code, body)
	}
	if got := b.Metrics().counter(mCompileBuilds); got != 2 {
		t.Errorf("builds on restarted server = %d, want 2 (replay only)", got)
	}
}

func TestUnfinishedJobRerunsAfterRestart(t *testing.T) {
	dir := t.TempDir()
	a, tsA := startDurable(t, dir, nil)
	comp := compileTestProg(t, tsA)
	var sub api.JobResponse
	if code, body := postJSON(t, tsA.URL+"/v1/simulate", api.SimulateRequest{LayoutID: comp.LayoutID}, &sub); code != http.StatusAccepted {
		t.Fatalf("simulate: %d: %s", code, body)
	}
	if j := waitJob(t, tsA, sub.JobID); j.State != api.JobDone {
		t.Fatalf("job = %+v", j)
	}
	stopDurable(t, a, tsA)

	// Simulate a crash between accept and completion: strip the terminal
	// records from the job journal, leaving an accept with no done — the
	// exact on-disk state a kill -9 mid-job leaves behind.
	path := filepath.Join(dir, jobWALFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var kept [][]byte
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var rec jobRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		if rec.Op != jobOpDone {
			kept = append(kept, line)
		}
	}
	if err := os.WriteFile(path, append(bytes.Join(kept, []byte("\n")), '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	b, tsB := startDurable(t, dir, nil)
	defer stopDurable(t, b, tsB)
	if got := b.Metrics().counter(mJobsRecovered); got != 1 {
		t.Errorf("jobs recovered = %d, want 1", got)
	}
	j := waitJob(t, tsB, sub.JobID)
	if j.State != api.JobDone || j.Report == nil {
		t.Fatalf("re-run job = %+v", j)
	}
}

func TestJournalWriteFailureRejects(t *testing.T) {
	dir := t.TempDir()
	s, ts := startDurable(t, dir, nil)
	defer stopDurable(t, s, ts)
	comp := compileTestProg(t, ts)

	s.persist.setFailWrite(func() error { return fmt.Errorf("disk on fire") })

	// A compile whose record cannot be journaled is rejected and NOT
	// cached: clients must never hold an ID a crash could lose.
	code, body := postJSON(t, ts.URL+"/v1/compile", api.CompileRequest{Workload: "mgrid"}, nil)
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "not durable") {
		t.Errorf("compile under journal failure: %d %s", code, body)
	}
	if got := s.cache.Len(); got != 1 {
		t.Errorf("resident after rejected compile = %d, want 1", got)
	}
	// A simulate whose accept record cannot be journaled is not accepted.
	code, body = postJSON(t, ts.URL+"/v1/simulate", api.SimulateRequest{LayoutID: comp.LayoutID}, nil)
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "not durable") {
		t.Errorf("simulate under journal failure: %d %s", code, body)
	}
	if got := s.Metrics().counter(mJobsSubmitted); got != 0 {
		t.Errorf("jobs submitted under journal failure = %d, want 0", got)
	}
	if got := s.Metrics().counter(mJournalErrors); got < 2 {
		t.Errorf("journal errors = %d, want ≥ 2", got)
	}

	// Journal heals: both paths flow again.
	s.persist.setFailWrite(nil)
	if code, body := postJSON(t, ts.URL+"/v1/compile", api.CompileRequest{Workload: "mgrid"}, nil); code != http.StatusOK {
		t.Errorf("compile after heal: %d %s", code, body)
	}
	var sub api.JobResponse
	if code, body := postJSON(t, ts.URL+"/v1/simulate", api.SimulateRequest{LayoutID: comp.LayoutID}, &sub); code != http.StatusAccepted {
		t.Errorf("simulate after heal: %d %s", code, body)
	} else {
		waitJob(t, ts, sub.JobID)
	}
}

// TestDrainThenRestartReachesTerminalStates is the SIGTERM story end to
// end: accept a batch of jobs, drain (floptd's signal handler), restart
// on the same data dir, and require every accepted job ID to answer a
// terminal status on the new process — zero accepted-job loss across the
// restart boundary.
func TestDrainThenRestartReachesTerminalStates(t *testing.T) {
	dir := t.TempDir()
	a, tsA := startDurable(t, dir, nil)
	comp := compileTestProg(t, tsA)
	var ids []string
	for i := 0; i < 6; i++ {
		var sub api.JobResponse
		code, body := postJSON(t, tsA.URL+"/v1/simulate", api.SimulateRequest{LayoutID: comp.LayoutID}, &sub)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: %d: %s", i, code, body)
		}
		ids = append(ids, sub.JobID)
	}
	// Drain with jobs still in flight; every accepted job must finish.
	stopDurable(t, a, tsA)

	b, tsB := startDurable(t, dir, nil)
	defer stopDurable(t, b, tsB)
	for _, id := range ids {
		resp, err := http.Get(tsB.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var jr api.JobResponse
		err = json.NewDecoder(resp.Body).Decode(&jr)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || jr.State != api.JobDone {
			t.Errorf("job %s after restart: status %d state %q, want done", id, resp.StatusCode, jr.State)
		}
	}
	if got := b.Metrics().counter(mJobsRecovered); got != 0 {
		t.Errorf("jobs re-run after clean drain = %d, want 0", got)
	}
	// The ID sequence resumes past the recovered records: a new
	// submission must not collide with a pre-restart ID.
	var sub api.JobResponse
	if code, body := postJSON(t, tsB.URL+"/v1/simulate", api.SimulateRequest{LayoutID: comp.LayoutID}, &sub); code != http.StatusAccepted {
		t.Fatalf("post-restart submit: %d: %s", code, body)
	}
	for _, id := range ids {
		if sub.JobID == id {
			t.Fatalf("post-restart job ID %s collides with a recovered job", sub.JobID)
		}
	}
	waitJob(t, tsB, sub.JobID)
}

func TestRecoverySkipsStaleRecords(t *testing.T) {
	dir := t.TempDir()
	// Hand-craft a journal a newer daemon cannot fully replay: a corrupt
	// (torn) line, a record whose source no longer compiles, and a record
	// whose content hash does not match its payload.
	wal := strings.Join([]string{
		`{{{ torn`,
		`{"id":"lybadbadbadbadbad","source":"array A[4]; garbage"}`,
		fmt.Sprintf(`{"id":"ly0000000000000000","source":%q}`, testProg),
	}, "\n") + "\n"
	if err := os.WriteFile(filepath.Join(dir, layoutWALFile), []byte(wal), 0o644); err != nil {
		t.Fatal(err)
	}
	// And a job accepted against a layout that will not be recovered.
	jwal := `{"op":"accept","id":"job-5","layout":"lydeadbeefdeadbe","req":{"layout_id":"lydeadbeefdeadbe"}}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, jobWALFile), []byte(jwal), 0o644); err != nil {
		t.Fatal(err)
	}

	s, ts := startDurable(t, dir, nil)
	defer stopDurable(t, s, ts)
	// The mismatched-ID record still compiled a valid layout (resident
	// under its true ID); the uncompilable record is skipped outright.
	if got := s.cache.Len(); got != 1 {
		t.Errorf("resident = %d, want 1", got)
	}
	// Skips: uncompilable source, ID mismatch, and the orphaned job.
	if got := s.Metrics().counter(mRecoverySkipped); got != 3 {
		t.Errorf("recovery skipped = %d, want 3", got)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/job-5")
	if err != nil {
		t.Fatal(err)
	}
	var jr api.JobResponse
	err = json.NewDecoder(resp.Body).Decode(&jr)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if jr.State != api.JobFailed || !strings.Contains(jr.Error, "not recovered") {
		t.Errorf("orphaned job = %+v, want failed/not recovered", jr)
	}
}

func TestPersisterSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	p, err := newPersister(dir, newMetrics())
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range []string{"ly1", "ly2", "ly3", "ly1", "ly4"} {
		if err := p.appendLayout(api.LayoutRecord{ID: id, Source: fmt.Sprintf("s%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := p.loadLayouts()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 || recs[0].ID != "ly1" || recs[0].Source != "s0" {
		t.Fatalf("loadLayouts = %+v, want 4 unique first-occurrence records", recs)
	}
	// Snapshot keeping all but ly3: WAL empties, snapshot holds the rest.
	if err := p.snapshotLayouts(func(id string) bool { return id != "ly3" }); err != nil {
		t.Fatal(err)
	}
	if p.walSize() != 0 {
		t.Errorf("walSize after snapshot = %d, want 0", p.walSize())
	}
	recs, err = p.loadLayouts()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("post-snapshot records = %+v, want 3", recs)
	}
	// New appends land in the WAL on top of the snapshot, and a reopened
	// persister counts them toward the next snapshot trigger.
	if err := p.appendLayout(api.LayoutRecord{ID: "ly5", Source: "s5"}); err != nil {
		t.Fatal(err)
	}
	if err := p.close(); err != nil {
		t.Fatal(err)
	}
	q, err := newPersister(dir, newMetrics())
	if err != nil {
		t.Fatal(err)
	}
	defer q.close()
	if q.walSize() != 1 {
		t.Errorf("reopened walSize = %d, want 1", q.walSize())
	}
	recs, err = q.loadLayouts()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Errorf("reopened records = %d, want 4", len(recs))
	}
}
