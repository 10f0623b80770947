package sim

import (
	"reflect"
	"testing"

	"flopt/internal/fault"
	"flopt/internal/layout"
	"flopt/internal/storage/cache"
	"flopt/internal/trace"
)

// faultConfig is smallConfig with deterministic fault injection enabled.
func faultConfig(intensity float64, seed int64) Config {
	c := smallConfig()
	c.FaultIntensity = intensity
	c.FaultSeed = seed
	return c
}

// reportsEqual compares the fields that must replay bit-identically.
func reportsEqual(a, b *Report) bool {
	if a.ExecTimeUS != b.ExecTimeUS || a.Accesses != b.Accesses ||
		a.IO != b.IO || a.Storage != b.Storage ||
		a.DiskReads != b.DiskReads || a.DiskSeqReads != b.DiskSeqReads ||
		a.DiskBusyUS != b.DiskBusyUS || a.Prefetches != b.Prefetches ||
		a.Retries != b.Retries || a.Timeouts != b.Timeouts ||
		a.DegradedReads != b.DegradedReads || a.FailedOverBlocks != b.FailedOverBlocks {
		return false
	}
	for i := range a.ThreadTimeUS {
		if a.ThreadTimeUS[i] != b.ThreadTimeUS[i] {
			return false
		}
	}
	return true
}

// walkOnly hides a layout's Strider capability, forcing the trace
// generator onto its per-element walker.
type walkOnly struct{ layout.Layout }

// TestSpanEmitterSimulationIdentical is the end-to-end identity gate for
// the closed-form span emitter: its streams must equal the per-element
// walker's entry for entry, and so must the reports simulated from them,
// for every cache policy, healthy, under two fault seeds and with
// readahead, on both the default and the optimized layout.
func TestSpanEmitterSimulationIdentical(t *testing.T) {
	// Nest 1 is a single-ref row scan; nest 2 (two interleaved refs)
	// exercises the grouped multi-ref emitter; nest 3 is a column scan,
	// contiguous once the layout is optimized.
	const scans = `
array A[64][64];
array B[64][64];
parallel(i) for i = 0 to 63 { for j = 0 to 63 { read A[i][j]; } }
parallel(i) for i = 0 to 63 { for j = 0 to 63 { read A[i][j]; read B[i][j]; } }
parallel(i) for i = 0 to 63 { for j = 0 to 63 { read B[j][i]; } }
`
	variants := []struct {
		name      string
		faults    float64
		seed      int64
		readahead int
	}{
		{name: "healthy"},
		{name: "faults-seed42", faults: 0.6, seed: 42},
		{name: "faults-seed7", faults: 0.35, seed: 7},
		{name: "readahead", readahead: 2},
	}
	for _, optimized := range []bool{false, true} {
		base := smallConfig()
		p, plans, layouts := buildProgram(t, scans, base, optimized)
		walked := make(map[string]layout.Layout, len(layouts))
		for name, l := range layouts {
			if _, ok := l.(layout.Strider); !ok {
				t.Fatalf("optimized=%v: layout of %s is not strideable; the test is vacuous", optimized, name)
			}
			walked[name] = walkOnly{l}
		}
		ft, err := trace.NewFileTable(p, layouts)
		if err != nil {
			t.Fatal(err)
		}
		ftWalk, err := trace.NewFileTable(p, walked)
		if err != nil {
			t.Fatal(err)
		}
		spans, err := trace.Generate(p, plans, ft, base.BlockElems, base.Threads())
		if err != nil {
			t.Fatal(err)
		}
		walks, err := trace.Generate(p, plans, ftWalk, base.BlockElems, base.Threads())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(spans, walks) {
			t.Fatalf("optimized=%v: span emitter streams differ from the walker's", optimized)
		}
		for _, policy := range cache.Names() {
			for _, v := range variants {
				cfg := faultConfig(v.faults, v.seed)
				cfg.Policy = policy
				cfg.ReadaheadBlocks = v.readahead
				var hints, hintsWalk []cache.RangeHint
				if policy == "karma" {
					hints = GenerateHints(cfg, ft, spans)
					hintsWalk = GenerateHints(cfg, ftWalk, walks)
					if !reflect.DeepEqual(hints, hintsWalk) {
						t.Fatalf("optimized=%v %s: hints differ between emitter and walker traces", optimized, v.name)
					}
				}
				r1, err := Simulate(cfg, spans, hints)
				if err != nil {
					t.Fatalf("%s/%s emitter: %v", policy, v.name, err)
				}
				r2, err := Simulate(cfg, walks, hintsWalk)
				if err != nil {
					t.Fatalf("%s/%s walker: %v", policy, v.name, err)
				}
				if !reportsEqual(r1, r2) {
					t.Errorf("optimized=%v %s/%s: emitter and walker runs diverge:\n%+v\n%+v",
						optimized, policy, v.name, r1, r2)
				}
			}
		}
	}
}

func TestFaultReplayBitIdentical(t *testing.T) {
	cfg := faultConfig(0.8, 12345)
	_, traces := buildTraces(t, colScan, cfg, false)
	r1, err := Simulate(cfg, traces, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Simulate(cfg, traces, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reportsEqual(r1, r2) {
		t.Errorf("same fault seed produced different reports:\n%+v\n%+v", r1, r2)
	}
	// A different seed must (at this intensity) produce a different run —
	// otherwise the seed is not actually threaded through.
	r3, err := Simulate(faultConfig(0.8, 54321), traces, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reportsEqual(r1, r3) {
		t.Error("different fault seeds replayed identically")
	}
}

func TestFaultResetReplays(t *testing.T) {
	cfg := faultConfig(0.8, 7)
	_, traces := buildTraces(t, colScan, cfg, false)
	m, err := NewMachine(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := m.Run(traces)
	if err != nil {
		t.Fatal(err)
	}
	m.Reset()
	r2, err := m.Run(traces)
	if err != nil {
		t.Fatal(err)
	}
	if !reportsEqual(r1, r2) {
		t.Error("Reset machine did not replay the fault run")
	}
}

func TestFaultsSlowTheRun(t *testing.T) {
	cfg := smallConfig()
	_, traces := buildTraces(t, colScan, cfg, false)
	healthy, err := Simulate(cfg, traces, nil)
	if err != nil {
		t.Fatal(err)
	}
	degraded, err := Simulate(faultConfig(1, 99), traces, nil)
	if err != nil {
		t.Fatal(err)
	}
	if degraded.ExecTimeUS <= healthy.ExecTimeUS {
		t.Errorf("full-intensity faults did not slow the run: %d vs %d µs",
			degraded.ExecTimeUS, healthy.ExecTimeUS)
	}
	if degraded.Accesses != healthy.Accesses {
		t.Errorf("faults changed the access count: %d vs %d", degraded.Accesses, healthy.Accesses)
	}
}

func TestFailoverOnNodeOutage(t *testing.T) {
	cfg := smallConfig() // 2 storage nodes
	cfg.FaultSchedule = &fault.Schedule{
		Nodes: []fault.NodeOutage{
			{Windows: []fault.Window{{StartNS: 0, EndNS: fault.NeverNS - 1}}},
		},
	}
	_, traces := buildTraces(t, colScan, cfg, false)
	rep, err := Simulate(cfg, traces, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FailedOverBlocks == 0 {
		t.Error("permanent node outage produced no failover")
	}
	// Every request owned by node 0 that left the I/O layer must have
	// been rerouted — the dead node's disk services nothing.
	if rep.Retries != 0 || rep.DegradedReads != 0 {
		t.Errorf("outage-only schedule produced retries=%d degraded=%d",
			rep.Retries, rep.DegradedReads)
	}
}

func TestTransientErrorsRetryAndDegrade(t *testing.T) {
	cfg := smallConfig()
	// Retry-heavy regime: every attempt fails, so every disk-path read
	// burns its retry budget and is served degraded. The run must still
	// terminate, with latency charged, not spin.
	cfg.FaultSchedule = &fault.Schedule{TransientErrorRate: 0.999}
	cfg.MaxRetries = 2
	_, traces := buildTraces(t, colScan, cfg, false)
	rep, err := Simulate(cfg, traces, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Retries == 0 || rep.Timeouts == 0 || rep.DegradedReads == 0 {
		t.Errorf("rate≈1 run: retries=%d timeouts=%d degraded=%d, all should be positive",
			rep.Retries, rep.Timeouts, rep.DegradedReads)
	}
	if rep.DegradedReads != rep.Timeouts {
		t.Errorf("every timeout must be served degraded: timeouts=%d degraded=%d",
			rep.Timeouts, rep.DegradedReads)
	}
	healthy, err := Simulate(smallConfig(), traces, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ExecTimeUS <= healthy.ExecTimeUS {
		t.Error("retry storms did not cost virtual time")
	}
}

func TestFailSlowWindowCharged(t *testing.T) {
	cfg := smallConfig()
	cfg.FaultSchedule = &fault.Schedule{
		Disks: []fault.DiskFault{{
			SlowWindows: []fault.Window{{StartNS: 0, EndNS: fault.NeverNS - 1}},
			SlowFactor:  10,
			FailStopNS:  fault.NeverNS,
		}},
	}
	_, traces := buildTraces(t, colScan, cfg, false)
	slow, err := Simulate(cfg, traces, nil)
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := Simulate(smallConfig(), traces, nil)
	if err != nil {
		t.Fatal(err)
	}
	if slow.ExecTimeUS <= healthy.ExecTimeUS {
		t.Errorf("10x fail-slow disk did not slow the run: %d vs %d µs",
			slow.ExecTimeUS, healthy.ExecTimeUS)
	}
	if slow.DiskBusyUS <= healthy.DiskBusyUS {
		t.Error("fail-slow service time not charged to the device")
	}
}

// TestNoPanicUnderAnySchedule sweeps seeds and intensities — including a
// single-storage-node platform with nowhere to fail over to — asserting
// the simulator always terminates with a sane report. The race tier runs
// this under -race.
func TestNoPanicUnderAnySchedule(t *testing.T) {
	for _, nodes := range []int{1, 2} {
		base := smallConfig()
		base.StorageNodes = nodes
		_, traces := buildTraces(t, colScan, base, false)
		for seed := int64(0); seed < 6; seed++ {
			for _, intensity := range []float64{0.2, 0.6, 1} {
				cfg := base
				cfg.FaultIntensity = intensity
				cfg.FaultSeed = seed
				rep, err := Simulate(cfg, traces, nil)
				if err != nil {
					t.Fatalf("nodes=%d seed=%d intensity=%v: %v", nodes, seed, intensity, err)
				}
				if rep.ExecTimeUS <= 0 || rep.Accesses <= 0 {
					t.Fatalf("nodes=%d seed=%d intensity=%v: degenerate report %+v",
						nodes, seed, intensity, rep)
				}
			}
		}
	}
}

// TestFaultPoliciesAndReadahead drives the degraded path through every
// cache policy and with readahead armed: speculation must skip dead nodes
// and the run must stay deterministic.
func TestFaultPoliciesAndReadahead(t *testing.T) {
	cfg := faultConfig(0.7, 3)
	cfg.ReadaheadBlocks = 2
	ft, traces := buildTraces(t, colScan, cfg, false)
	for _, pol := range []string{"lru", "demote", "karma"} {
		c := cfg
		c.Policy = pol
		r1, err := Simulate(c, traces, GenerateHints(c, ft, traces))
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		r2, err := Simulate(c, traces, GenerateHints(c, ft, traces))
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if !reportsEqual(r1, r2) {
			t.Errorf("%s: fault replay diverged", pol)
		}
	}
}

func TestHealthyPathUnchangedByFaultFields(t *testing.T) {
	// Intensity 0 with a seed set must behave exactly like the seedless
	// healthy platform: the fault machinery must not even be armed.
	cfg := smallConfig()
	_, traces := buildTraces(t, colScan, cfg, false)
	healthy, err := Simulate(cfg, traces, nil)
	if err != nil {
		t.Fatal(err)
	}
	seeded := cfg
	seeded.FaultSeed = 42
	r, err := Simulate(seeded, traces, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reportsEqual(healthy, r) {
		t.Error("fault seed with zero intensity changed the healthy run")
	}
	if r.Retries != 0 || r.Timeouts != 0 || r.DegradedReads != 0 || r.FailedOverBlocks != 0 {
		t.Errorf("healthy run reported degraded activity: %+v", r)
	}
}

func TestConfigValidateFaultFields(t *testing.T) {
	base := smallConfig()
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"intensity > 1", func(c *Config) { c.FaultIntensity = 1.5 }},
		{"negative intensity", func(c *Config) { c.FaultIntensity = -0.1 }},
		{"negative retries", func(c *Config) { c.MaxRetries = -1 }},
		{"negative backoff", func(c *Config) { c.RetryBackoffUS = -5 }},
		{"negative timeout", func(c *Config) { c.RequestTimeoutUS = -5 }},
		{"oversized schedule", func(c *Config) {
			c.FaultSchedule = &fault.Schedule{Nodes: make([]fault.NodeOutage, 99)}
		}},
		{"zero RPM", func(c *Config) { c.Disk.RPM = 0 }},
		{"zero seek", func(c *Config) { c.Disk.AvgSeekNS = 0 }},
		{"negative transfer", func(c *Config) { c.Disk.TransferNSPerBlock = -1 }},
	} {
		c := base
		tc.mutate(&c)
		if c.Validate() == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("base config rejected: %v", err)
	}
}

// TestFaultStreamMismatchStillErrors keeps the error path intact with the
// fault machinery armed.
func TestFaultStreamMismatchStillErrors(t *testing.T) {
	cfg := faultConfig(0.5, 1)
	nt := &trace.NestTrace{Streams: make([][]trace.Access, 3)}
	if _, err := Simulate(cfg, []*trace.NestTrace{nt}, nil); err == nil {
		t.Error("stream/thread mismatch accepted under faults")
	}
}
