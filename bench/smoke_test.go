package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of ../BENCHMARK.json the tests compare the
// printed metrics with.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// smallEnv shrinks every workload to a second and three programs.
func smallEnv(t *testing.T, g *goldens) *env {
	return &env{seed: 1, window: time.Second, nproc: runtime.GOMAXPROCS(0), workDir: t.TempDir(),
		gold: g, log: testLog{t}, small: true}
}

type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(strings.TrimSpace(string(p)))
	return len(p), nil
}

// runSmall runs one workload at reduced size and returns its exit code
// and result line.
func runSmall(t *testing.T, e *env, name string, traced bool) (int, outcome) {
	t.Helper()
	var out, errs bytes.Buffer
	spans := ""
	if traced {
		spans = filepath.Join(e.workDir, "spans.jsonl")
	}
	code := execute(context.Background(), e, workloadTable[name], traced, spans, &out, &errs)
	if errs.Len() > 0 {
		t.Log(errs.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var o outcome
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &o); err != nil {
		t.Fatalf("%s: last line %q: %v", name, lines[len(lines)-1], err)
	}
	return code, o
}

// TestWorkloadsSmall runs every workload, untraced and traced, at
// reduced size with every correctness check, and pins that each prints
// exactly the metrics BENCHMARK.json declares.
func TestWorkloadsSmall(t *testing.T) {
	spec := loadSpec(t)
	g, err := loadGoldens(testdata)
	if err != nil {
		t.Fatal(err)
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range spec.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		want[true][m.Name] = m.Unit
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloadTable) {
		t.Fatalf("BENCHMARK.json names %v, the benchmark has %d workloads", names, len(workloadTable))
	}
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			t.Run(map[bool]string{false: name, true: name + "/traced"}[traced], func(t *testing.T) {
				code, o := runSmall(t, smallEnv(t, g), name, traced)
				if code != 0 || !o.Correct || o.Attempted < 1 || o.Failed != 0 {
					t.Fatalf("exit %d, correct %v, attempted %d, failed %d", code, o.Correct, o.Attempted, o.Failed)
				}
				var got []string
				for m, v := range o.Metrics {
					got = append(got, m)
					if unit, ok := want[traced][m]; !ok || unit != v.Unit {
						t.Errorf("metric %s [%s] not declared in BENCHMARK.json", m, v.Unit)
					}
					if !traced && !(v.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, want > 0", m, v.Value)
					}
				}
				if sort.Strings(got); len(got) != len(want[traced]) {
					t.Errorf("printed %d metrics %v, BENCHMARK.json declares %d", len(got), got, len(want[traced]))
				}
			})
		}
	}
}

func TestPerturbedGoldenFailsTheRun(t *testing.T) {
	g, err := loadGoldens(testdata)
	if err != nil {
		t.Fatal(err)
	}
	k := simulateCalls([]*program{{name: "mgrid"}})[0].key()
	s, ok := g.sims[k]
	if !ok {
		t.Fatalf("no golden for %+v", k)
	}
	s.ExecTimeUS++
	g.sims[k] = s
	code, o := runSmall(t, smallEnv(t, g), "simulate", false)
	if code == 0 || o.Correct {
		t.Fatalf("exit %d, correct %v with a perturbed golden; want a non-zero exit", code, o.Correct)
	}
}

func TestBadFlagsExit2(t *testing.T) {
	var out, errs bytes.Buffer
	for _, args := range [][]string{{"-workload", "nope"}, {"-workload", "simulate", "-trace", "2"}, {"-bogus"}} {
		if code := run(args, &out, &errs); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}
