package flopt

import (
	"context"
	"errors"
	"testing"

	"flopt/internal/obs"
)

// bigTestSrc crosses the simulator's context-poll interval (16384
// accesses) so cancellation tests actually reach a poll.
const bigTestSrc = `
array B[128][128];
parallel(i) for i = 0 to 127 { for j = 0 to 127 { read B[j][i]; } }
`

func TestSentinelErrors(t *testing.T) {
	if _, err := Compile("bad", "not a program"); !errors.Is(err, ErrBadProgram) {
		t.Errorf("Compile error %v does not wrap ErrBadProgram", err)
	}
	p, err := Compile("t", testSrc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallTestConfig()
	cfg.IONodes = 3 // 8 % 3 != 0
	if _, err := Run(context.Background(), p, cfg); !errors.Is(err, ErrBadConfig) {
		t.Errorf("Run config error %v does not wrap ErrBadConfig", err)
	}
	// WithFaults feeds the intensity through config validation too.
	if _, err := Run(context.Background(), p, smallTestConfig(), WithFaults(1.5, 1)); !errors.Is(err, ErrBadConfig) {
		t.Errorf("out-of-range fault intensity error %v does not wrap ErrBadConfig", err)
	}
}

func TestRunWithMetrics(t *testing.T) {
	p, err := Compile("t", testSrc)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), p, smallTestConfig(), WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics == nil {
		t.Fatal("WithMetrics did not populate Report.Metrics")
	}
	if rep.Metrics.Totals.Accesses != rep.Accesses {
		t.Errorf("metrics cover %d accesses, report %d", rep.Metrics.Totals.Accesses, rep.Accesses)
	}
	if _, ok := rep.Metrics.Arrays["B"]; !ok {
		t.Errorf("array breakdown not keyed by name: %v", rep.Metrics.Arrays)
	}
	// Without the option, no collector is attached.
	plain, err := Run(context.Background(), p, smallTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if plain.Metrics != nil {
		t.Error("Report.Metrics set without WithMetrics")
	}
}

// countingObserver tallies callbacks to prove WithObserver reaches the
// machine's hot path.
type countingObserver struct {
	accesses, diskReads, events int
}

func (c *countingObserver) BlockAccess(int, int32, obs.Level, int64) { c.accesses++ }
func (c *countingObserver) DiskService(int, int64, bool)             { c.diskReads++ }
func (c *countingObserver) RetryWait(int, int64)                     {}
func (c *countingObserver) Event(obs.Event)                          { c.events++ }

func TestRunWithObserver(t *testing.T) {
	p, err := Compile("t", testSrc)
	if err != nil {
		t.Fatal(err)
	}
	var co countingObserver
	rep, err := Run(context.Background(), p, smallTestConfig(), WithObserver(&co))
	if err != nil {
		t.Fatal(err)
	}
	if int64(co.accesses) != rep.Accesses {
		t.Errorf("observer saw %d accesses, report has %d", co.accesses, rep.Accesses)
	}
	if int64(co.diskReads) != rep.DiskReads {
		t.Errorf("observer saw %d disk reads, report has %d", co.diskReads, rep.DiskReads)
	}
	if co.events == 0 {
		t.Error("observer saw no lifecycle events")
	}
}

func TestRunCanceled(t *testing.T) {
	p, err := Compile("t", bigTestSrc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, p, smallTestConfig()); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run on canceled context returned %v, want context.Canceled", err)
	}
}

func TestRunWithFaultsDeterministic(t *testing.T) {
	p, err := Compile("t", testSrc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallTestConfig()
	a, err := Run(context.Background(), p, cfg, WithFaults(0.5, 7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), p, cfg, WithFaults(0.5, 7))
	if err != nil {
		t.Fatal(err)
	}
	if a.ExecTimeUS != b.ExecTimeUS || a.Retries != b.Retries || a.Timeouts != b.Timeouts {
		t.Errorf("identical fault seeds diverged: (%d, %d, %d) vs (%d, %d, %d)",
			a.ExecTimeUS, a.Retries, a.Timeouts, b.ExecTimeUS, b.Retries, b.Timeouts)
	}
	if a.Retries == 0 && a.Timeouts == 0 && a.FailedOverBlocks == 0 && a.DegradedReads == 0 {
		t.Error("WithFaults(0.5, 7) injected no observable faults")
	}
}
