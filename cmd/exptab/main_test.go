package main

import (
	"os"
	"path/filepath"
	"testing"

	"flopt/internal/workload"
)

func TestSelectExperiments(t *testing.T) {
	want, err := selectExperiments("table2, FIG7A")
	if err != nil {
		t.Fatal(err)
	}
	if !want["table2"] || !want["fig7a"] || len(want) != 2 {
		t.Errorf("selection = %v", want)
	}
	all, err := selectExperiments("all")
	if err != nil {
		t.Fatal(err)
	}
	// "all" covers everything except workload, which needs -spec/-replay.
	if len(all) != len(order)-1 {
		t.Errorf("all selects %d of %d experiments", len(all), len(order))
	}
	if all["workload"] {
		t.Error("all must not select the workload experiment")
	}
	wl, err := selectExperiments("workload")
	if err != nil {
		t.Fatalf("workload rejected: %v", err)
	}
	if !wl["workload"] || len(wl) != 1 {
		t.Errorf("workload selection = %v", wl)
	}
	if _, err := selectExperiments("table2,nonesuch"); err == nil {
		t.Error("unknown experiment accepted")
	}
	// Every name in order except the special cases must have a builder,
	// and vice versa.
	for _, name := range order {
		if name == "table1" || name == "workload" {
			continue
		}
		if _, ok := builders[name]; !ok {
			t.Errorf("ordered experiment %q has no builder", name)
		}
	}
	if len(builders) != len(order)-2 {
		t.Errorf("%d builders for %d ordered experiments", len(builders), len(order))
	}
}

func TestValidateSeed(t *testing.T) {
	if err := validateSeed(true, 0, map[string]bool{"table2": true}); err == nil {
		t.Error("orphan -seed accepted")
	}
	if err := validateSeed(true, 0.5, map[string]bool{"table2": true}); err != nil {
		t.Errorf("seed with faults rejected: %v", err)
	}
	if err := validateSeed(true, 0, map[string]bool{"faults": true}); err != nil {
		t.Errorf("seed with -exp faults rejected: %v", err)
	}
	if err := validateSeed(false, 0, map[string]bool{"table2": true}); err != nil {
		t.Errorf("default seed rejected: %v", err)
	}
}

func TestLoadEvents(t *testing.T) {
	if _, err := workload.LoadEvents("", ""); err == nil {
		t.Error("no input accepted")
	}
	if _, err := workload.LoadEvents("a.json", "b.jsonl"); err == nil {
		t.Error("both inputs accepted")
	}

	dir := t.TempDir()
	spec := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(spec, []byte(`{
		"version": 1, "seed": 3, "duration_s": 1, "rate_rps": 20,
		"clients": [{"id": "c", "rate_fraction": 1,
			"arrival": {"process": "poisson"},
			"mix": [{"program": "swim", "kind": "offsets", "weight": 1}]}]
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	evs, err := workload.LoadEvents(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 {
		t.Fatal("spec expanded to no events")
	}

	trace := filepath.Join(dir, "trace.jsonl")
	tw, err := workload.NewTraceWriter(trace)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		if err := tw.Append(ev.Kind, ev.Client, ev.SLO, ev.Program); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	replayed, err := workload.LoadEvents("", trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != len(evs) {
		t.Errorf("trace replays %d events, want %d", len(replayed), len(evs))
	}

	empty := filepath.Join(dir, "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := workload.LoadEvents("", empty); err == nil {
		t.Error("empty trace accepted")
	}
}
