package flopt

import (
	"context"
	"errors"
	"testing"
)

const testSrc = `
array B[64][64];
parallel(i) for i = 0 to 63 { for j = 0 to 63 { read B[j][i]; } }
`

// smallTestConfig shrinks the platform for fast API tests.
func smallTestConfig() Config {
	cfg := DefaultConfig()
	cfg.ComputeNodes = 8
	cfg.IONodes = 4
	cfg.StorageNodes = 2
	cfg.BlockElems = 8
	cfg.IOCacheBlocks = 8
	cfg.StorageCacheBlocks = 16
	return cfg
}

func TestCompileErrors(t *testing.T) {
	if _, err := Compile("bad", "not a program"); err == nil {
		t.Error("invalid source accepted")
	}
	p, err := Compile("ok", testSrc)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "ok" || len(p.Arrays) != 1 {
		t.Errorf("program = %+v", p)
	}
}

func TestEndToEnd(t *testing.T) {
	p, err := Compile("t", testSrc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallTestConfig()
	res, err := Optimize(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	opt, total := res.OptimizedCount()
	if opt != 1 || total != 1 {
		t.Errorf("optimized %d/%d", opt, total)
	}
	before, err := Run(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	after, err := Run(context.Background(), p, cfg, WithResult(res))
	if err != nil {
		t.Fatal(err)
	}
	if Improvement(before, after) <= 0 {
		t.Errorf("no improvement on a transposed scan: before %d µs, after %d µs",
			before.ExecTimeUS, after.ExecTimeUS)
	}
}

func TestRunWithKarmaPolicy(t *testing.T) {
	p, err := Compile("t", testSrc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallTestConfig()
	cfg.Policy = "karma"
	rep, err := Run(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PolicyName != "KARMA" {
		t.Errorf("policy = %s", rep.PolicyName)
	}
}

// TestRunRejectsReportPolicyName: "KARMA" is KARMA's report name, not a
// selectable policy. Accepting it ran KARMA without hints while the
// report still said KARMA.
func TestRunRejectsReportPolicyName(t *testing.T) {
	p, err := Compile("t", testSrc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallTestConfig()
	cfg.Policy = "KARMA"
	if _, err := Run(context.Background(), p, cfg); !errors.Is(err, ErrBadConfig) {
		t.Errorf("Run with policy KARMA: err = %v, want ErrBadConfig", err)
	}
}

func TestWorkloadsAccessors(t *testing.T) {
	if len(Workloads()) != 16 {
		t.Errorf("workloads = %d", len(Workloads()))
	}
	if _, err := WorkloadByName("swim"); err != nil {
		t.Error(err)
	}
	if _, err := WorkloadByName("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestImprovementZeroBase(t *testing.T) {
	if Improvement(&Report{}, &Report{}) != 0 {
		t.Error("zero baseline should give 0")
	}
}

func TestRunValidatesConfig(t *testing.T) {
	p, _ := Compile("t", testSrc)
	cfg := smallTestConfig()
	cfg.ComputeNodes = 0
	if _, err := Run(context.Background(), p, cfg); err == nil {
		t.Error("invalid config accepted")
	}
}
