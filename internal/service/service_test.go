package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"flopt/internal/layout"
	"flopt/internal/linalg"
	"flopt/internal/poly"
	"flopt/internal/service/api"
	"flopt/internal/storage/cache"
)

// testProg reads A transposed (optimizable) and B row-friendly; small
// enough that compile + simulate stay fast under -race.
const testProg = `
array A[64][64];
array B[64][64];

parallel(i) for i = 0 to 63 {
    for j = 0 to 63 {
        read A[j][i];
        write B[i][j];
    }
}
`

func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := DefaultServerConfig()
	cfg.Workers = 2
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any, out any) (int, string) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			t.Fatalf("decode %s: %v (body %q)", url, err, buf.String())
		}
	}
	return resp.StatusCode, buf.String()
}

func compileTestProg(t *testing.T, ts *httptest.Server) api.CompileResponse {
	t.Helper()
	var resp api.CompileResponse
	code, body := postJSON(t, ts.URL+"/v1/compile", api.CompileRequest{Source: testProg}, &resp)
	if code != http.StatusOK {
		t.Fatalf("compile: status %d: %s", code, body)
	}
	return resp
}

func TestCompileDedupAndShape(t *testing.T) {
	s, ts := newTestServer(t, nil)
	first := compileTestProg(t, ts)
	if first.Cached {
		t.Error("first compile reported cached")
	}
	if first.TotalArrays != 2 || len(first.Arrays) != 2 {
		t.Errorf("arrays = %d/%v", first.TotalArrays, first.Arrays)
	}
	if first.Optimized < 1 {
		t.Errorf("expected at least one optimized array, got %d", first.Optimized)
	}
	if !strings.HasPrefix(first.LayoutID, "ly") {
		t.Errorf("layout id %q", first.LayoutID)
	}
	second := compileTestProg(t, ts)
	if !second.Cached || second.LayoutID != first.LayoutID {
		t.Errorf("resubmission: cached=%v id=%q (want cached id %q)", second.Cached, second.LayoutID, first.LayoutID)
	}
	if got := s.Metrics().counter(mCompileBuilds); got != 1 {
		t.Errorf("compile builds = %d, want 1", got)
	}
	// A different platform must yield a different layout set.
	var other api.CompileResponse
	code, body := postJSON(t, ts.URL+"/v1/compile",
		api.CompileRequest{Source: testProg, Config: &api.PlatformConfig{IOCacheBlocks: 32}}, &other)
	if code != http.StatusOK {
		t.Fatalf("compile with overrides: %d: %s", code, body)
	}
	if other.LayoutID == first.LayoutID {
		t.Error("different cache capacity produced the same layout ID")
	}
}

func TestCompileByWorkloadName(t *testing.T) {
	_, ts := newTestServer(t, nil)
	var resp api.CompileResponse
	code, body := postJSON(t, ts.URL+"/v1/compile", api.CompileRequest{Workload: "swim"}, &resp)
	if code != http.StatusOK {
		t.Fatalf("workload compile: %d: %s", code, body)
	}
	if len(resp.Arrays) == 0 {
		t.Error("workload compile returned no arrays")
	}
}

func TestCompileErrors(t *testing.T) {
	_, ts := newTestServer(t, nil)
	cases := []struct {
		name string
		req  api.CompileRequest
		want int
	}{
		{"empty", api.CompileRequest{}, http.StatusBadRequest},
		{"both", api.CompileRequest{Source: testProg, Workload: "swim"}, http.StatusBadRequest},
		{"unknown workload", api.CompileRequest{Workload: "nonesuch"}, http.StatusBadRequest},
		{"parse error", api.CompileRequest{Source: "array A[4]; garbage"}, http.StatusBadRequest},
		{"semantic error", api.CompileRequest{Source: "array A[4];\nparallel(i) for i = 0 to 3 { read A[i][i]; }"}, http.StatusBadRequest},
		{"bad config", api.CompileRequest{Source: testProg, Config: &api.PlatformConfig{ComputeNodes: 7}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if code, body := postJSON(t, ts.URL+"/v1/compile", tc.req, nil); code != tc.want {
			t.Errorf("%s: status %d want %d (%s)", tc.name, code, tc.want, body)
		}
	}
	// Malformed JSON body.
	resp, err := http.Post(ts.URL+"/v1/compile", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d", resp.StatusCode)
	}
}

func expandSegs(r api.OffsetResult) []int64 {
	var out []int64
	for _, s := range r.Segs {
		for k := int64(0); k < s.Count; k++ {
			out = append(out, s.Start+k*s.Stride)
		}
	}
	return out
}

func TestOffsetsBatchMatchesPointQueries(t *testing.T) {
	_, ts := newTestServer(t, nil)
	comp := compileTestProg(t, ts)
	url := ts.URL + "/v1/layouts/" + comp.LayoutID + "/offsets"
	for _, array := range []string{"A", "B"} {
		for _, dir := range [][]int64{{0, 1}, {1, 0}} {
			batch := api.OffsetsRequest{Array: array, Queries: []api.OffsetQuery{{Start: []int64{0, 0}, Dir: dir, Count: 64}}}
			var batchResp api.OffsetsResponse
			if code, body := postJSON(t, url, batch, &batchResp); code != http.StatusOK {
				t.Fatalf("%s dir %v: %d: %s", array, dir, code, body)
			}
			points := api.OffsetsRequest{Array: array}
			for k := int64(0); k < 64; k++ {
				points.Queries = append(points.Queries,
					api.OffsetQuery{Start: []int64{dir[0] * k, dir[1] * k}})
			}
			var pointResp api.OffsetsResponse
			if code, body := postJSON(t, url, points, &pointResp); code != http.StatusOK {
				t.Fatalf("%s points: %d: %s", array, code, body)
			}
			got := expandSegs(batchResp.Results[0])
			if len(got) != 64 {
				t.Fatalf("%s dir %v: run covers %d offsets, want 64", array, dir, len(got))
			}
			for k, off := range got {
				want := pointResp.Results[k].Segs[0].Start
				if off != want {
					t.Fatalf("%s dir %v offset %d: run says %d, point query says %d", array, dir, k, off, want)
				}
			}
		}
	}
}

func TestOffsetsErrors(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) { c.WalkBudget = 16 })
	comp := compileTestProg(t, ts)
	url := ts.URL + "/v1/layouts/" + comp.LayoutID + "/offsets"

	if code, _ := postJSON(t, ts.URL+"/v1/layouts/ly0000000000000000/offsets",
		api.OffsetsRequest{Array: "A", Queries: []api.OffsetQuery{{Start: []int64{0, 0}}}}, nil); code != http.StatusNotFound {
		t.Errorf("unknown layout: status %d", code)
	}
	cases := []struct {
		name string
		req  api.OffsetsRequest
	}{
		{"unknown array", api.OffsetsRequest{Array: "Z", Queries: []api.OffsetQuery{{Start: []int64{0, 0}}}}},
		{"empty batch", api.OffsetsRequest{Array: "A"}},
		{"rank mismatch", api.OffsetsRequest{Array: "A", Queries: []api.OffsetQuery{{Start: []int64{0}}}}},
		{"out of bounds", api.OffsetsRequest{Array: "A", Queries: []api.OffsetQuery{{Start: []int64{0, 64}}}}},
		{"walk escapes", api.OffsetsRequest{Array: "A", Queries: []api.OffsetQuery{{Start: []int64{0, 60}, Dir: []int64{0, 1}, Count: 8}}}},
		{"count without dir", api.OffsetsRequest{Array: "A", Queries: []api.OffsetQuery{{Start: []int64{0, 0}, Count: 8}}}},
		{"negative count", api.OffsetsRequest{Array: "A", Queries: []api.OffsetQuery{{Start: []int64{0, 0}, Dir: []int64{0, 1}, Count: -2}}}},
	}
	for _, tc := range cases {
		if code, body := postJSON(t, url, tc.req, nil); code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s)", tc.name, code, body)
		}
	}
	if errs := s.Metrics().counter(mOffsetsErrors); errs < int64(len(cases)) {
		t.Errorf("offsets errors counter = %d, want ≥ %d", errs, len(cases))
	}
}

// flatLayout is a Layout without the Strider capability, forcing the
// per-element fallback.
type flatLayout struct{ dims []int64 }

func (f flatLayout) Offset(idx linalg.Vec) int64 {
	var off int64
	for k, d := range f.dims {
		off = off*d + idx[k]
	}
	return off
}
func (f flatLayout) SizeElems() int64 {
	size := int64(1)
	for _, d := range f.dims {
		size *= d
	}
	return size
}
func (f flatLayout) Name() string { return "flat-test" }

func TestResolveQueryFallbackAndBudget(t *testing.T) {
	a := &poly.Array{Name: "A", Dims: []int64{8, 8}}
	l := flatLayout{dims: a.Dims}

	res, used, err := resolveQuery(l, a, api.OffsetQuery{Start: []int64{2, 0}, Dir: []int64{0, 1}, Count: 8}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strided {
		t.Error("non-Strider layout reported strided")
	}
	if used != 8 {
		t.Errorf("walk budget used = %d, want 8", used)
	}
	if len(res.Segs) != 1 || res.Segs[0].Start != 16 || res.Segs[0].Stride != 1 || res.Segs[0].Count != 8 {
		t.Errorf("merged segs = %+v", res.Segs)
	}
	// Column walk: stride 8 per step, still one merged segment.
	res, _, err = resolveQuery(l, a, api.OffsetQuery{Start: []int64{0, 3}, Dir: []int64{1, 0}, Count: 8}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Segs) != 1 || res.Segs[0].Stride != 8 {
		t.Errorf("column segs = %+v", res.Segs)
	}
	// Budget exhaustion.
	if _, _, err := resolveQuery(l, a, api.OffsetQuery{Start: []int64{0, 0}, Dir: []int64{0, 1}, Count: 8}, 4); err == nil {
		t.Error("walk beyond budget accepted")
	}
	// The Strider path is exempt from the budget.
	rm := layout.RowMajor(a)
	if _, used, err := resolveQuery(rm, a, api.OffsetQuery{Start: []int64{0, 0}, Dir: []int64{0, 1}, Count: 8}, 0); err != nil || used != 0 {
		t.Errorf("strided path consumed budget: used=%d err=%v", used, err)
	}
}

func TestSimulateJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, nil)
	comp := compileTestProg(t, ts)

	var sub api.JobResponse
	code, body := postJSON(t, ts.URL+"/v1/simulate", api.SimulateRequest{LayoutID: comp.LayoutID}, &sub)
	if code != http.StatusAccepted {
		t.Fatalf("simulate: %d: %s", code, body)
	}
	job := waitJob(t, ts, sub.JobID)
	if job.State != api.JobDone || job.Report == nil {
		t.Fatalf("job = %+v", job)
	}
	if job.Report.ExecTimeUS <= 0 || job.Report.Accesses <= 0 {
		t.Errorf("report = %+v", job.Report)
	}

	if code, _ := postJSON(t, ts.URL+"/v1/simulate", api.SimulateRequest{LayoutID: "nope"}, nil); code != http.StatusNotFound {
		t.Errorf("unknown layout: status %d", code)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/simulate",
		api.SimulateRequest{LayoutID: comp.LayoutID, Policy: "bogus"}, nil); code != http.StatusBadRequest {
		t.Errorf("bad policy: status %d", code)
	}
	// Every selectable policy is accepted and reports under its manager's
	// name; "mq" and report names such as "KARMA" are not selectable.
	for _, pol := range cache.Names() {
		m, err := cache.NewByName(pol, 1, 1, 1, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		code, body = postJSON(t, ts.URL+"/v1/simulate", api.SimulateRequest{LayoutID: comp.LayoutID, Policy: pol}, &sub)
		if code != http.StatusAccepted {
			t.Errorf("policy %s: status %d: %s", pol, code, body)
		} else if job := waitJob(t, ts, sub.JobID); job.State != api.JobDone || job.Report.Policy != m.Name() {
			t.Errorf("policy %s: job = %+v, want done with report policy %q", pol, job, m.Name())
		}
	}
	if code, _ := postJSON(t, ts.URL+"/v1/simulate",
		api.SimulateRequest{LayoutID: comp.LayoutID, Policy: "mq"}, nil); code != http.StatusBadRequest {
		t.Errorf("policy mq: status %d, want 400", code)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/simulate",
		api.SimulateRequest{LayoutID: comp.LayoutID, Policy: "KARMA"}, nil); code != http.StatusBadRequest {
		t.Errorf("policy KARMA: status %d, want 400", code)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d", resp.StatusCode)
	}
}

// TestSimulateOptimizedBeatsDefault serves the paper's headline claim
// online: for a group-3 workload the compiled layouts must beat the
// row-major default execution.
func TestSimulateOptimizedBeatsDefault(t *testing.T) {
	_, ts := newTestServer(t, nil)
	var comp api.CompileResponse
	if code, body := postJSON(t, ts.URL+"/v1/compile", api.CompileRequest{Workload: "swim"}, &comp); code != http.StatusOK {
		t.Fatalf("compile swim: %d: %s", code, body)
	}
	runOne := func(optimized bool) *api.SimReport {
		var sub api.JobResponse
		code, body := postJSON(t, ts.URL+"/v1/simulate",
			api.SimulateRequest{LayoutID: comp.LayoutID, Optimized: &optimized}, &sub)
		if code != http.StatusAccepted {
			t.Fatalf("simulate optimized=%v: %d: %s", optimized, code, body)
		}
		j := waitJob(t, ts, sub.JobID)
		if j.State != api.JobDone || j.Report == nil {
			t.Fatalf("job optimized=%v = %+v", optimized, j)
		}
		return j.Report
	}
	opt, def := runOne(true), runOne(false)
	if opt.ExecTimeUS >= def.ExecTimeUS {
		t.Errorf("optimized (%d µs) not faster than default (%d µs)", opt.ExecTimeUS, def.ExecTimeUS)
	}
}

func waitJob(t *testing.T, ts *httptest.Server, id string) api.JobResponse {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var jr api.JobResponse
		err = json.NewDecoder(resp.Body).Decode(&jr)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if jr.State == api.JobDone || jr.State == api.JobFailed {
			return jr
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return api.JobResponse{}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, nil)
	compileTestProg(t, ts)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" || health["layouts_resident"].(float64) != 1 {
		t.Errorf("healthz = %v", health)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	text := buf.String()
	for _, want := range []string{
		"floptd_compile_builds_total 1",
		"floptd_compile_requests_total 1",
		"floptd_http_requests_total",
		"floptd_layouts_resident 1",
		`floptd_latency_us_count{route="compile"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q:\n%s", want, text)
		}
	}
}

// stubbedPool builds a jobPool whose run function is the given stub.
func stubbedPool(workers, depth int, run func(context.Context, *job) (*api.SimReport, error)) *jobPool {
	return newJobPool(jobPoolConfig{
		workers: workers, queueDepth: depth, maxJobs: 16,
		timeout: time.Minute, met: newMetrics(), run: run,
	})
}

func TestJobQueueBackpressure(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{}, 8)
	p := stubbedPool(1, 1, func(ctx context.Context, j *job) (*api.SimReport, error) {
		started <- struct{}{}
		<-block
		return &api.SimReport{}, nil
	})
	// First job occupies the worker, second the queue slot, third must be
	// rejected with errQueueFull.
	if _, err := p.submit(nil, api.SimulateRequest{}); err != nil {
		t.Fatal(err)
	}
	<-started // worker has taken job 1 off the queue
	if _, err := p.submit(nil, api.SimulateRequest{}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.submit(nil, api.SimulateRequest{}); !errors.Is(err, errQueueFull) {
		t.Fatalf("third submit: %v, want errQueueFull", err)
	}
	close(block)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.drain(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := p.submit(nil, api.SimulateRequest{}); !errors.Is(err, errDraining) {
		t.Fatalf("post-drain submit: %v, want errDraining", err)
	}
}

func TestDrainLosesNoAcceptedJobs(t *testing.T) {
	var done int64
	p := stubbedPool(2, 32, func(ctx context.Context, j *job) (*api.SimReport, error) {
		time.Sleep(time.Millisecond)
		return &api.SimReport{ExecTimeUS: 1}, nil
	})
	var ids []string
	for i := 0; i < 16; i++ {
		id, err := p.submit(nil, api.SimulateRequest{})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := p.drain(ctx); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		j, ok := p.status(id)
		if !ok || j.state != api.JobDone {
			t.Errorf("job %s state %q after drain", id, j.state)
			continue
		}
		done++
	}
	if done != 16 {
		t.Errorf("%d/16 accepted jobs completed across drain", done)
	}
}

func TestJobRecordPruning(t *testing.T) {
	p := newJobPool(jobPoolConfig{
		workers: 1, queueDepth: 64, maxJobs: 4, timeout: time.Minute, met: newMetrics(),
		run: func(ctx context.Context, j *job) (*api.SimReport, error) {
			return &api.SimReport{}, nil
		},
	})
	var last string
	for i := 0; i < 12; i++ {
		id, err := p.submit(nil, api.SimulateRequest{})
		if err != nil {
			t.Fatal(err)
		}
		last = id
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.drain(ctx); err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	n := len(p.jobs)
	p.mu.Unlock()
	if n > 8 {
		t.Errorf("%d job records retained, want bounded", n)
	}
	if _, ok := p.status(last); !ok {
		t.Error("most recent job was pruned")
	}
}

func TestJobFailureSurfacesError(t *testing.T) {
	p := stubbedPool(1, 4, func(ctx context.Context, j *job) (*api.SimReport, error) {
		return nil, fmt.Errorf("boom")
	})
	id, err := p.submit(nil, api.SimulateRequest{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.drain(ctx); err != nil {
		t.Fatal(err)
	}
	j, ok := p.status(id)
	if !ok || j.state != api.JobFailed || !strings.Contains(j.errMsg, "boom") {
		t.Errorf("failed job = %+v", j)
	}
}
