package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flopt/internal/cluster"
	"flopt/internal/service/api"
	"flopt/internal/sim"
)

// newTestCluster brings up n in-process cluster members sharing one
// roster. Each member's httptest server delegates through an
// atomic.Value so the roster URLs exist before the Servers do (peers
// hitting a not-yet-started member get 503, a transport-class failure).
func newTestCluster(t *testing.T, n int, mutate func(i int, cfg *Config)) ([]*Server, []*httptest.Server) {
	t.Helper()
	names := []string{"na", "nb", "nc", "nd", "ne"}[:n]
	boxes := make([]*atomic.Value, n)
	https := make([]*httptest.Server, n)
	roster := make([]cluster.Node, n)
	notReady := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "starting", http.StatusServiceUnavailable)
	})
	for i := 0; i < n; i++ {
		box := &atomic.Value{}
		box.Store(http.Handler(notReady))
		boxes[i] = box
		https[i] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			box.Load().(http.Handler).ServeHTTP(w, r)
		}))
		roster[i] = cluster.Node{ID: names[i], URL: https[i].URL}
	}
	servers := make([]*Server, n)
	for i := 0; i < n; i++ {
		cfg := DefaultServerConfig()
		cfg.Workers = 1
		cfg.Cluster = &ClusterConfig{
			Self:           names[i],
			Roster:         roster,
			GossipInterval: 50 * time.Millisecond,
			PeerTimeout:    2 * time.Second,
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("New(node %d): %v", i, err)
		}
		// Gossip that reaches a member still starting answers 503 and
		// trips its breaker. This clock moves one cooldown per read, so
		// a tripped breaker admits its next call as a probe instead of
		// shedding the peer for the 5 s cooldown.
		var tick atomic.Int64
		base := time.Now()
		for _, p := range s.clu.peers {
			p.breaker.SetClock(func() time.Time {
				return base.Add(time.Duration(tick.Add(int64(breakerCooldown))))
			})
		}
		servers[i] = s
		boxes[i].Store(s.Handler())
	}
	t.Cleanup(func() {
		for _, ts := range https {
			ts.Close()
		}
		for _, s := range servers {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			s.Drain(ctx)
			cancel()
			s.Close()
		}
	})
	return servers, https
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// sumCounter totals one counter across cluster members.
func sumCounter(servers []*Server, name string) int64 {
	var sum int64
	for _, s := range servers {
		sum += s.met.counter(name)
	}
	return sum
}

// TestClusterDistributedSingleflight is the tentpole property: 24
// concurrent submissions of one program, spread over three nodes,
// produce exactly one authoritative build cluster-wide. Non-owners
// forward to the ring owner, whose local singleflight collapses the
// rest; peer fills are charged to a separate counter.
func TestClusterDistributedSingleflight(t *testing.T) {
	servers, https := newTestCluster(t, 3, nil)

	const calls = 24
	var wg sync.WaitGroup
	errs := make(chan string, calls)
	ids := make(chan string, calls)
	for i := 0; i < calls; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(api.CompileRequest{Source: testProg})
			resp, err := http.Post(https[i%3].URL+"/v1/compile", "application/json", strings.NewReader(string(body)))
			if err != nil {
				errs <- err.Error()
				return
			}
			defer resp.Body.Close()
			var out api.CompileResponse
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Sprintf("status %d", resp.StatusCode)
				return
			}
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				errs <- err.Error()
				return
			}
			ids <- out.LayoutID
		}()
	}
	wg.Wait()
	close(errs)
	close(ids)
	for e := range errs {
		t.Fatalf("compile failed: %s", e)
	}
	first := ""
	for id := range ids {
		if first == "" {
			first = id
		}
		if id != first {
			t.Fatalf("divergent layout IDs: %s vs %s", first, id)
		}
	}
	if builds := sumCounter(servers, mCompileBuilds); builds != 1 {
		t.Errorf("compile_builds_total sums to %d across the cluster, want 1", builds)
	}
	if fwd := sumCounter(servers, mClusterForwardCompile); fwd == 0 {
		t.Error("no compile was forwarded — all 24 landed on the owner?")
	}
}

// TestClusterPeerFillOnOffsets: compile lands the layout on its owner;
// an offsets query on a different member fetches the record, rebuilds
// locally, verifies the content address, and serves — flagged Filled,
// echoing the layout ID, without touching compile_builds_total.
func TestClusterPeerFillOnOffsets(t *testing.T) {
	servers, https := newTestCluster(t, 3, nil)

	var comp api.CompileResponse
	status, body := postJSON(t, https[0].URL+"/v1/compile", api.CompileRequest{Source: testProg}, &comp)
	if status != http.StatusOK {
		t.Fatalf("compile: %d %s", status, body)
	}
	owner := comp.Node
	ownerIdx := -1
	for i, s := range servers {
		if s.clu.cfg.Self == owner {
			ownerIdx = i
		}
	}
	if ownerIdx < 0 {
		t.Fatalf("compile response node %q not in roster", owner)
	}
	// Pick a member that is neither the owner nor holds a replica from
	// forwarding (node 0 remembered the record when it forwarded), so the
	// fill exercises the owner round-trip.
	fillIdx := -1
	for i, s := range servers {
		if i != 0 && i != ownerIdx {
			fillIdx = i
			_ = s
		}
	}
	if fillIdx < 0 {
		fillIdx = ownerIdx // owner built it; can't happen with 3 nodes
	}

	var off api.OffsetsResponse
	req := api.OffsetsRequest{Array: "A", Queries: []api.OffsetQuery{{Start: []int64{0, 0}, Dir: []int64{0, 1}, Count: 64}}}
	status, body = postJSON(t, https[fillIdx].URL+"/v1/layouts/"+comp.LayoutID+"/offsets", req, &off)
	if status != http.StatusOK {
		t.Fatalf("offsets via non-owner: %d %s", status, body)
	}
	if !off.Filled {
		t.Error("offsets response not flagged filled")
	}
	if off.LayoutID != comp.LayoutID {
		t.Errorf("offsets echoed layout %q, want %q", off.LayoutID, comp.LayoutID)
	}
	if len(off.Results) != 1 || len(off.Results[0].Segs) == 0 {
		t.Fatalf("fill served empty results: %+v", off)
	}
	if fills := servers[fillIdx].met.counter(mClusterFills); fills != 1 {
		t.Errorf("fill node cluster_peer_fills_total = %d, want 1", fills)
	}
	if builds := sumCounter(servers, mCompileBuilds); builds != 1 {
		t.Errorf("fill inflated compile_builds_total to %d", builds)
	}
	if fb := servers[fillIdx].met.counter(mClusterFillBuilds); fb != 1 {
		t.Errorf("cluster_fill_builds_total = %d, want 1", fb)
	}

	// Second query on the same node is a plain resident hit: not filled.
	var off2 api.OffsetsResponse
	status, body = postJSON(t, https[fillIdx].URL+"/v1/layouts/"+comp.LayoutID+"/offsets", req, &off2)
	if status != http.StatusOK {
		t.Fatalf("second offsets: %d %s", status, body)
	}
	if off2.Filled {
		t.Error("resident re-query still flagged filled")
	}
	if off2.LayoutID != comp.LayoutID {
		t.Errorf("resident re-query layout ID %q, want %q", off2.LayoutID, comp.LayoutID)
	}
}

// TestClusterFillVerifiesContentAddress: a replica record whose inputs
// do not reproduce the requested ID is refused, not served — content
// addressing is the trust boundary between peers.
func TestClusterFillVerifiesContentAddress(t *testing.T) {
	servers, https := newTestCluster(t, 3, nil)

	// A doctored record: valid program, but filed under an ID it does not
	// hash to.
	fake := "ly00000000deadbeef"
	servers[1].clu.rememberRecord(api.LayoutRecord{
		ID:     fake,
		Source: testProg,
		Config: api.FromConfig(sim.DefaultConfig()),
	})
	req := api.OffsetsRequest{Array: "A", Queries: []api.OffsetQuery{{Start: []int64{0, 0}}}}
	status, body := postJSON(t, https[1].URL+"/v1/layouts/"+fake+"/offsets", req, nil)
	if status != http.StatusNotFound {
		t.Fatalf("doctored record served: %d %s", status, body)
	}
	if !strings.Contains(body, "verification") {
		t.Errorf("error does not mention verification: %s", body)
	}
	if mm := servers[1].met.counter(mClusterFillMismatch); mm != 1 {
		t.Errorf("cluster_fill_mismatch_total = %d, want 1", mm)
	}
	if servers[1].met.counter(mClusterFills) != 0 {
		t.Error("mismatched record counted as a successful fill")
	}
}

// TestClusterDeadPeerFallsBackLocal: with the ring owner of a program
// unreachable, a live member compiles locally instead of failing the
// request — degraded (no dedup against the dead owner) but serving.
func TestClusterDeadPeerFallsBackLocal(t *testing.T) {
	servers, https := newTestCluster(t, 3, nil)

	// Kill node nc outright.
	https[2].Close()
	deadID := servers[2].clu.cfg.Self

	// Find a variant of testProg owned by the dead node: trailing
	// newlines change the content hash without changing the program.
	ring := servers[0].clu.ring
	cfg := sim.DefaultConfig()
	source := ""
	for i := 0; i < 64; i++ {
		cand := testProg + strings.Repeat("\n", i)
		if ring.Owner(layoutID(cand, cfg)) == deadID {
			source = cand
			break
		}
	}
	if source == "" {
		t.Fatal("no variant hashed to the dead node in 64 tries")
	}

	var comp api.CompileResponse
	status, body := postJSON(t, https[0].URL+"/v1/compile", api.CompileRequest{Source: source}, &comp)
	if status != http.StatusOK {
		t.Fatalf("compile with dead owner: %d %s", status, body)
	}
	if comp.Node != servers[0].clu.cfg.Self {
		t.Errorf("fallback compile attributed to %q, want local node", comp.Node)
	}
	if fb := servers[0].met.counter(mClusterLocalFallback); fb == 0 {
		t.Error("local fallback not counted")
	}
	// The layout serves locally afterwards.
	req := api.OffsetsRequest{Array: "A", Queries: []api.OffsetQuery{{Start: []int64{0, 0}}}}
	var off api.OffsetsResponse
	status, body = postJSON(t, https[0].URL+"/v1/layouts/"+comp.LayoutID+"/offsets", req, &off)
	if status != http.StatusOK {
		t.Fatalf("offsets after fallback: %d %s", status, body)
	}
	if off.LayoutID != comp.LayoutID {
		t.Errorf("offsets layout ID %q, want %q", off.LayoutID, comp.LayoutID)
	}
}

// TestClusterJobPlacementAndProxyPoll: a submission on a backlogged
// member places onto the least-loaded peer (which fills the layout on
// demand), and the job is pollable from any member via ID-routed proxy.
func TestClusterJobPlacementAndProxyPoll(t *testing.T) {
	servers, https := newTestCluster(t, 3, nil)

	var comp api.CompileResponse
	status, body := postJSON(t, https[0].URL+"/v1/compile", api.CompileRequest{Source: testProg}, &comp)
	if status != http.StatusOK {
		t.Fatalf("compile: %d %s", status, body)
	}

	// Wait until node na has fresh load for both peers (gossip interval
	// 50 ms), then make na look backlogged so placement forwards.
	waitFor(t, 5*time.Second, "gossip to populate na's load table", func() bool {
		_, okB := servers[0].clu.loads.Get("nb")
		_, okC := servers[0].clu.loads.Get("nc")
		return okB && okC
	})
	servers[0].jobs.mu.Lock()
	servers[0].jobs.running = 5
	servers[0].jobs.mu.Unlock()

	var job api.JobResponse
	status, body = postJSON(t, https[0].URL+"/v1/simulate", api.SimulateRequest{LayoutID: comp.LayoutID}, &job)
	if status != http.StatusAccepted {
		t.Fatalf("simulate: %d %s", status, body)
	}
	if job.Node == "na" || job.Node == "" {
		t.Fatalf("job placed on %q, want a peer of the backlogged na", job.Node)
	}
	if !strings.HasPrefix(job.JobID, "job-"+job.Node+"-") {
		t.Errorf("job ID %q does not embed its node %q", job.JobID, job.Node)
	}
	if placed := servers[0].met.counter(mClusterJobsPlaced); placed != 1 {
		t.Errorf("cluster_jobs_placed_remote_total = %d, want 1", placed)
	}

	servers[0].jobs.mu.Lock()
	servers[0].jobs.running = 0
	servers[0].jobs.mu.Unlock()

	// Poll through a member that does NOT run the job.
	pollIdx := 0
	waitFor(t, 60*time.Second, "proxied job to finish", func() bool {
		var st api.JobResponse
		code, _ := getJSON(t, https[pollIdx].URL+"/v1/jobs/"+job.JobID, &st)
		if code != http.StatusOK {
			return false
		}
		if st.State == api.JobFailed {
			t.Fatalf("job failed: %s", st.Error)
		}
		return st.State == api.JobDone && st.Report != nil && st.Node == job.Node
	})
	if proxied := servers[0].met.counter(mClusterJobsProxied); proxied == 0 {
		t.Error("no poll was proxied")
	}
}

// TestClusterStatusEndpoint: every member reports the full roster with
// ring shares summing to one; a single-node daemon answers with one
// self entry so the endpoint is uniform.
func TestClusterStatusEndpoint(t *testing.T) {
	servers, https := newTestCluster(t, 3, nil)
	waitFor(t, 5*time.Second, "gossip to mark peers healthy", func() bool {
		var st api.ClusterStatusResponse
		code, _ := getJSON(t, https[0].URL+"/v1/cluster/status", &st)
		if code != http.StatusOK || len(st.Nodes) != 3 {
			return false
		}
		healthy := 0
		for _, n := range st.Nodes {
			if n.Healthy {
				healthy++
			}
		}
		return healthy == 3
	})
	var st api.ClusterStatusResponse
	code, body := getJSON(t, https[1].URL+"/v1/cluster/status", &st)
	if code != http.StatusOK {
		t.Fatalf("cluster status: %d %s", code, body)
	}
	if st.Self != "nb" {
		t.Errorf("self = %q, want nb", st.Self)
	}
	var share float64
	for i, n := range st.Nodes {
		share += n.RingShare
		if i > 0 && st.Nodes[i-1].ID >= n.ID {
			t.Errorf("nodes not sorted: %q before %q", st.Nodes[i-1].ID, n.ID)
		}
		if n.ID == "nb" && !n.Self {
			t.Error("nb entry not marked self")
		}
	}
	if share < 0.999 || share > 1.001 {
		t.Errorf("ring shares sum to %v, want 1", share)
	}
	_ = servers

	// Single-node daemon: one self entry, full ring share.
	_, solo := newTestServer(t, nil)
	code, body = getJSON(t, solo.URL+"/v1/cluster/status", &st)
	if code != http.StatusOK {
		t.Fatalf("single-node cluster status: %d %s", code, body)
	}
	if len(st.Nodes) != 1 || !st.Nodes[0].Self || st.Nodes[0].RingShare != 1 {
		t.Errorf("single-node status = %+v", st)
	}
}

// TestOffsetsResponseCarriesLayoutID pins the satellite fix: the layout
// ID is echoed on every offsets response, resident or filled (the old
// wire shape omitted it on recompile paths, breaking client-side result
// attribution).
func TestOffsetsResponseCarriesLayoutID(t *testing.T) {
	_, ts := newTestServer(t, nil)
	id := compileTestProg(t, ts).LayoutID
	var off api.OffsetsResponse
	req := api.OffsetsRequest{Array: "A", Queries: []api.OffsetQuery{{Start: []int64{0, 0}}}}
	status, body := postJSON(t, ts.URL+"/v1/layouts/"+id+"/offsets", req, &off)
	if status != http.StatusOK {
		t.Fatalf("offsets: %d %s", status, body)
	}
	if off.LayoutID != id {
		t.Errorf("offsets response layout_id = %q, want %q", off.LayoutID, id)
	}
	// The raw wire body must carry the field (not rely on client-side
	// defaulting).
	if !strings.Contains(body, `"layout_id":"`+id+`"`) {
		t.Errorf("wire body missing layout_id echo: %s", body)
	}
}

// TestLayoutRecordEndpoint: GET /v1/layouts/{id} serves the portable
// record, and its inputs reproduce the ID (the property peer fills
// stand on).
func TestLayoutRecordEndpoint(t *testing.T) {
	_, ts := newTestServer(t, nil)
	id := compileTestProg(t, ts).LayoutID
	var rec api.LayoutRecord
	code, body := getJSON(t, ts.URL+"/v1/layouts/"+id, &rec)
	if code != http.StatusOK {
		t.Fatalf("layout record: %d %s", code, body)
	}
	if rec.ID != id || rec.Source == "" {
		t.Fatalf("record = %+v", rec)
	}
	if got := layoutID(rec.Source, rec.Config.Apply(sim.DefaultConfig())); got != id {
		t.Errorf("record recompiles to %q, want %q", got, id)
	}
	if code, _ := getJSON(t, ts.URL+"/v1/layouts/nope", nil); code != http.StatusNotFound {
		t.Errorf("missing layout record returned %d", code)
	}
}

// getJSON is postJSON's GET sibling.
func getJSON(t *testing.T, url string, out any) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal([]byte(sb.String()), out); err != nil {
			t.Fatalf("decode %s: %v (body %q)", url, err, sb.String())
		}
	}
	return resp.StatusCode, sb.String()
}
