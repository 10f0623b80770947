package main

import (
	"strings"
	"testing"
)

func TestValidateFlags(t *testing.T) {
	ok := runFlags{workload: "swim", scheme: "default", policy: "lru", parallel: 1}
	cases := []struct {
		name    string
		mutate  func(*runFlags)
		wantErr string // substring; "" means valid
	}{
		{"workload default", func(f *runFlags) {}, ""},
		{"workload inter", func(f *runFlags) { f.scheme = "inter" }, ""},
		{"workload compmap", func(f *runFlags) { f.scheme = "compmap" }, ""},
		{"src inter", func(f *runFlags) { f.workload = ""; f.src = "p.fl"; f.scheme = "inter" }, ""},
		{"seed with faults", func(f *runFlags) { f.seedSet = true; f.faults = 0.5 }, ""},
		{"policy karma", func(f *runFlags) { f.policy = "karma" }, ""},
		{"neither input", func(f *runFlags) { f.workload = "" }, "exactly one of"},
		{"both inputs", func(f *runFlags) { f.src = "p.fl" }, "exactly one of"},
		{"zero parallel", func(f *runFlags) { f.parallel = 0 }, "-parallel"},
		{"orphan seed", func(f *runFlags) { f.seedSet = true }, "-seed has no effect"},
		{"bad policy", func(f *runFlags) { f.policy = "mru" }, "unknown policy"},
		{"policy mq", func(f *runFlags) { f.policy = "mq" }, "unknown policy"},
		{"bad scheme", func(f *runFlags) { f.scheme = "bogus" }, "unknown scheme"},
		{"src needs runner scheme", func(f *runFlags) { f.workload = ""; f.src = "p.fl"; f.scheme = "compmap" }, "requires -workload"},
	}
	for _, tc := range cases {
		f := ok
		tc.mutate(&f)
		err := validateFlags(f)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.wantErr)
		}
	}
}
