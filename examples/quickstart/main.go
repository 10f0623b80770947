// Quickstart: compile a tiny two-array program, optimize its file layouts
// for the default storage hierarchy, and compare the simulated execution
// against the row-major default.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"flopt"
)

// The program reads A row-wise (friendly to the default layout) and
// writes B transposed — the access pattern that scatters each thread's
// data across the whole file under row-major storage.
const src = `
array A[256][256];
array B[256][256];

parallel(i) for i = 0 to 255 {
    for j = 0 to 255 {
        read A[i][j];
        write B[j][i];
    }
}
`

func main() {
	p, err := flopt.Compile("quickstart", src)
	if err != nil {
		log.Fatal(err)
	}
	cfg := flopt.DefaultConfig()

	res, err := flopt.Optimize(p, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Step I — array partitioning:")
	for _, a := range p.Arrays {
		fmt.Printf("  %s\n", res.Transforms[a.Name])
	}
	fmt.Printf("Step II — layout pattern: %s\n\n", res.Pattern)

	before, err := flopt.Run(context.Background(), p, cfg)
	if err != nil {
		log.Fatal(err)
	}
	// Metrics on the optimized run put a per-array, per-layer snapshot
	// on its report.
	metered := cfg
	metered.Metrics = true
	after, err := flopt.Run(context.Background(), p, metered, flopt.WithResult(res))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("default execution:   %8.3f s  (io miss %5.1f%%, storage miss %5.1f%%)\n",
		float64(before.ExecTimeUS)/1e6, 100*before.IOMissRate(), 100*before.StorageMissRate())
	fmt.Printf("optimized execution: %8.3f s  (io miss %5.1f%%, storage miss %5.1f%%)\n",
		float64(after.ExecTimeUS)/1e6, 100*after.IOMissRate(), 100*after.StorageMissRate())
	fmt.Printf("improvement: %.1f%%\n\n", 100*flopt.Improvement(before, after))

	// The snapshot shows which array the optimization actually moved off
	// the disk.
	fmt.Println("optimized run, per array (from Report.Metrics):")
	for _, name := range []string{"A", "B"} {
		b := after.Metrics.Arrays[name]
		fmt.Printf("  %s: io hit %5.1f%%, storage hit %5.1f%%, disk %5.1f%%, avg latency %.0f µs\n",
			name, b.IOHitPct, b.StorageHitPct, b.DiskPct, b.AvgLatencyUS)
	}
}
