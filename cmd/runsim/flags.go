package main

import (
	"fmt"
	"slices"

	"flopt/internal/exp"
	"flopt/internal/storage/cache"
)

// runFlags carries the flag combinations that need cross-flag validation;
// keeping it a plain struct makes the rules unit-testable without parsing
// a real flag.FlagSet.
type runFlags struct {
	workload string
	src      string
	scheme   string
	policy   string
	parallel int
	faults   float64
	seedSet  bool // -seed was given explicitly
}

// validateFlags enforces the flag-combination rules before any simulation
// work starts: exactly one input source, a known scheme for that source, a
// known policy, and no orphan flags (-seed only means something when fault
// injection is on).
func validateFlags(f runFlags) error {
	if (f.workload == "") == (f.src == "") {
		return fmt.Errorf("exactly one of -workload or -src is required")
	}
	if f.parallel < 1 {
		return fmt.Errorf("-parallel must be ≥ 1, got %d", f.parallel)
	}
	if f.seedSet && f.faults <= 0 {
		return fmt.Errorf("-seed has no effect without -faults > 0")
	}
	if !slices.Contains(cache.Names(), f.policy) {
		return fmt.Errorf("unknown policy %q (want one of %v)", f.policy, cache.Names())
	}
	if f.src != "" {
		// The -src path runs outside the experiment runner, which is the
		// only place the baseline schemes are prepared.
		if f.scheme != "default" && f.scheme != "inter" {
			return fmt.Errorf("scheme %q requires -workload (it needs the experiment runner)", f.scheme)
		}
		return nil
	}
	for _, s := range exp.Schemes() {
		if f.scheme == string(s) {
			return nil
		}
	}
	return fmt.Errorf("unknown scheme %q (want one of %v)", f.scheme, exp.Schemes())
}
