package sim

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"flopt/internal/obs"
)

// bigScan is large enough (128·128 = 16384 accesses) to cross the
// context-poll interval at least once.
const bigScan = `
array B[128][128];
parallel(i) for i = 0 to 127 { for j = 0 to 127 { read B[j][i]; } }
`

func TestMetricsSnapshotConsistency(t *testing.T) {
	cfg := smallConfig()
	cfg.Metrics = true
	ft, traces := buildTraces(t, colScan, cfg, false)
	m, err := NewMachine(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.SetFileNames(ft.Names)
	blocks := make([]int64, len(ft.Names))
	for id := range ft.Names {
		blocks[id] = ft.Blocks(int32(id), cfg.BlockElems)
	}
	m.SetFileBlocks(blocks)
	rep, err := m.Run(traces)
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Metrics
	if s == nil {
		t.Fatal("Config.Metrics set but Report.Metrics is nil")
	}
	if s.Totals.Accesses != rep.Accesses {
		t.Errorf("metrics totals %d accesses, report %d", s.Totals.Accesses, rep.Accesses)
	}
	if s.Totals.ServedIO != rep.IO.Hits {
		t.Errorf("metrics ServedIO %d, report IO hits %d", s.Totals.ServedIO, rep.IO.Hits)
	}
	if s.Totals.ServedStorage != rep.Storage.Hits {
		t.Errorf("metrics ServedStorage %d, report storage hits %d", s.Totals.ServedStorage, rep.Storage.Hits)
	}
	// Readahead is off, so every served-by-disk request is one device read.
	if s.Totals.ServedDisk != rep.DiskReads {
		t.Errorf("metrics ServedDisk %d, report disk reads %d", s.Totals.ServedDisk, rep.DiskReads)
	}
	if _, ok := s.Arrays["B"]; !ok {
		t.Errorf("per-array breakdown missing array B: %v", s.Arrays)
	}
	if len(s.Threads) != cfg.Threads() {
		t.Errorf("got %d thread breakdowns, want %d", len(s.Threads), cfg.Threads())
	}
	if len(s.Nodes) != cfg.StorageNodes {
		t.Fatalf("got %d node snapshots, want %d", len(s.Nodes), cfg.StorageNodes)
	}
	var nodeReads, primaries int64
	for _, n := range s.Nodes {
		nodeReads += n.Reads
		primaries += n.PrimaryBlocks
	}
	if nodeReads != rep.DiskReads {
		t.Errorf("node snapshots sum %d reads, report %d", nodeReads, rep.DiskReads)
	}
	var wantBlocks int64
	for _, b := range blocks {
		wantBlocks += b
	}
	if primaries != wantBlocks {
		t.Errorf("primary blocks sum %d, files hold %d", primaries, wantBlocks)
	}
	if len(s.IOCaches) != cfg.IONodes || len(s.StoreCaches) != cfg.StorageNodes {
		t.Errorf("per-cache stats: %d io, %d storage; want %d, %d",
			len(s.IOCaches), len(s.StoreCaches), cfg.IONodes, cfg.StorageNodes)
	}
	if h := s.LatencyUS[obs.HistRequestLatency]; h.Count != rep.Accesses {
		t.Errorf("request histogram holds %d samples, want %d", h.Count, rep.Accesses)
	}
	if s.Events.ByKind[obs.EvRunStart] != 1 || s.Events.ByKind[obs.EvRunEnd] != 1 {
		t.Errorf("run lifecycle events missing: %v", s.Events.ByKind)
	}
	if s.Events.ByKind[obs.EvNestStart] != int64(len(traces)) {
		t.Errorf("got %d nest.start events, want %d", s.Events.ByKind[obs.EvNestStart], len(traces))
	}
}

func TestMetricsOffByDefault(t *testing.T) {
	cfg := smallConfig()
	_, traces := buildTraces(t, colScan, cfg, false)
	rep, err := simulate(cfg, traces, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics != nil {
		t.Error("Report.Metrics should be nil when Config.Metrics is off")
	}
}

// TestMetricsDoNotPerturbTiming: attaching the observer must not change
// the simulated execution — observation, not intervention.
func TestMetricsDoNotPerturbTiming(t *testing.T) {
	base := smallConfig()
	_, traces := buildTraces(t, colScan, base, false)
	plain, err := simulate(base, traces, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Metrics = true
	observed, err := simulate(cfg, traces, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain.ExecTimeUS != observed.ExecTimeUS || plain.DiskReads != observed.DiskReads {
		t.Errorf("metrics changed the run: exec %d vs %d, disk reads %d vs %d",
			plain.ExecTimeUS, observed.ExecTimeUS, plain.DiskReads, observed.DiskReads)
	}
}

// TestMetricsFaultReplayIdentical: snapshots of two machines replaying the
// same fault seed are byte-identical — the determinism contract the
// parallel harness depends on.
func TestMetricsFaultReplayIdentical(t *testing.T) {
	cfg := smallConfig()
	cfg.Metrics = true
	cfg.FaultIntensity = 0.6
	cfg.FaultSeed = 11
	ft, traces := buildTraces(t, colScan, cfg, false)
	snap := func() []byte {
		m, err := NewMachine(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		m.SetFileNames(ft.Names)
		rep, err := m.Run(traces)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rep.Metrics)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := snap(), snap()
	if string(a) != string(b) {
		t.Error("metric snapshots differ across identical replays")
	}
}

func TestRunContextCanceled(t *testing.T) {
	cfg := smallConfig()
	_, traces := buildTraces(t, bigScan, cfg, false)
	m, err := NewMachine(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.RunContext(ctx, traces); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext on canceled context returned %v, want context.Canceled", err)
	}
}

func TestConfigValidateWrapsErrBadConfig(t *testing.T) {
	c := DefaultConfig()
	c.ComputeNodes = 0
	if err := c.Validate(); !errors.Is(err, ErrBadConfig) {
		t.Errorf("Validate error %v does not wrap ErrBadConfig", err)
	}
	c = DefaultConfig()
	c.FaultIntensity = 2
	if err := c.Validate(); !errors.Is(err, ErrBadConfig) {
		t.Errorf("fault-intensity error %v does not wrap ErrBadConfig", err)
	}
}
